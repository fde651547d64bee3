"""The hand-assembled journal and WAL lines against their encoder forms.

Decision, sample and WAL lines are written by string assembly, decision
floats through a memo of float texts; ``tests/journal_oracle.py`` holds
the dict payloads and encoders they replaced.  Every line must be the
oracle's byte for byte, for any value the records can carry.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.obs import journal
from repro.obs.journal import dumps_record, json_scalar, memo_scalar
from repro.obs.records import Candidate, DecisionRecord, SampleRecord
from repro.service.events import StationJoin, StationLeave, StatsReport
from repro.service.supervisor import read_wal, wal_line
from tests import journal_oracle

_ENCODER = json.JSONEncoder(separators=(",", ":"))

#: Floats whose text is easy to get wrong: signed zeros, NaN, the
#: infinities, the smallest subnormal, and where ``repr`` turns to
#: exponent form.
_EDGE_FLOATS = (
    0.0, -0.0, float("nan"), float("inf"), float("-inf"),
    5e-324, -5e-324, 1e16, 1e-5, 1e-4, 9999999999999998.0, 0.1, 1 / 3,
)
floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
#: Ids with quotes, backslashes, control and non-ASCII characters.
ids = st.one_of(
    st.sampled_from(['ap"0', "ap\\1", "café", " ", "\U0001f600", ""]),
    st.text(max_size=12),
)
#: Values of other types than the fast paths write: they go to the encoder.
others = st.one_of(
    st.booleans(),
    st.floats().map(np.float64),
)

candidates = st.builds(
    Candidate,
    ap_id=ids,
    load=st.one_of(floats, others),
    users=st.one_of(st.integers(), st.booleans()),
    score=st.one_of(st.none(), floats, others),
)
decisions = st.builds(
    DecisionRecord,
    user_id=ids,
    strategy=ids,
    controller_id=ids,
    batch_id=ids,
    sim_time=st.one_of(st.none(), floats),
    chosen=ids,
    candidates=st.lists(candidates, max_size=10).map(tuple),
    mode=ids,
    note=st.one_of(st.none(), ids),
)
samples = st.builds(
    SampleRecord,
    sim_time=floats,
    controller_id=ids,
    balance=floats,
    total_load=st.one_of(floats, st.integers(), others),
    users=st.integers(),
)


@settings(max_examples=400, deadline=None)
@given(decisions)
def test_decision_line_is_the_encoders(record: DecisionRecord) -> None:
    assert dumps_record(record) == journal_oracle.record_line(record)


@settings(max_examples=300, deadline=None)
@given(samples)
def test_sample_line_is_the_encoders(record: SampleRecord) -> None:
    assert dumps_record(record) == journal_oracle.record_line(record)


def test_a_decision_with_a_note_and_no_scores() -> None:
    record = DecisionRecord(
        user_id='u"1\\', strategy="llf", controller_id="cé",
        batch_id="c#3", sim_time=None, chosen="ap1",
        candidates=(Candidate("ap0", -0.0, 0), Candidate("ap1", 5e-324, 2)),
        mode="single", note="fallback:llf:stale-model",
    )
    line = dumps_record(record)
    assert line == journal_oracle.record_line(record)
    assert '"note":"fallback:llf:stale-model","candidates"' in line
    assert '"load":-0.0,"users":0,"score":null' in line


@settings(max_examples=200, deadline=None)
@given(st.lists(floats, max_size=60))
def test_float_memo_survives_hits_and_evictions(values: list) -> None:
    # A memo of four entries evicts every few values; every text must
    # still be the encoder's, on first sight and on every hit.
    with mock.patch.object(journal, "_FLOAT_MEMO_SIZE", 4), \
            mock.patch.object(journal, "_FLOAT_TEXT", {}):
        for value in values + values[::-1]:
            assert memo_scalar(value) == _ENCODER.encode(value)
            assert json_scalar(value) == _ENCODER.encode(value)
            assert len(journal._FLOAT_TEXT) <= 4


def test_signed_zeros_never_share_a_memo_entry() -> None:
    with mock.patch.object(journal, "_FLOAT_TEXT", {}):
        texts = [memo_scalar(value) for value in (0.0, -0.0, 0.0, -0.0)]
        assert texts == ["0.0", "-0.0", "0.0", "-0.0"]
        assert journal._FLOAT_TEXT == {}


def test_the_memo_is_bounded() -> None:
    with mock.patch.object(journal, "_FLOAT_TEXT", {}):
        for i in range(3 * journal._FLOAT_MEMO_SIZE):
            memo_scalar(i + 0.5)
            assert len(journal._FLOAT_TEXT) <= journal._FLOAT_MEMO_SIZE


def test_only_decision_lines_fill_the_memo() -> None:
    # Times (WAL, sample and decision times), rates and balances seldom
    # repeat: writing them leaves the memo as it was, so they cannot clear
    # out the decisions' candidate values, the only floats it keeps.
    events = [
        StationJoin(seq=1, time=1.25, user_id="u"),
        StationLeave(seq=2, time=2.5, user_id="u"),
        StatsReport(seq=3, time=3.75, user_id="u", mean_rate=1e6 / 3),
    ]
    sample = SampleRecord(
        sim_time=4.5, controller_id="c", balance=0.75, total_load=1.5, users=2
    )
    decision = DecisionRecord(
        user_id="u", strategy="s3", controller_id="c", batch_id="b",
        sim_time=5.5, chosen="ap0", mode="batch", note=None,
        candidates=(Candidate("ap0", 0.5, 1, 0.25),),
    )
    with mock.patch.object(journal, "_FLOAT_TEXT", {}):
        for event in events:
            wal_line(event)
        dumps_record(sample)
        assert journal._FLOAT_TEXT == {}
        dumps_record(decision)
        assert sorted(journal._FLOAT_TEXT) == [0.25, 0.5]


users = st.text(max_size=10)
events = st.one_of(
    st.builds(StationJoin, seq=st.integers(0), time=floats, user_id=users),
    st.builds(StationLeave, seq=st.integers(0), time=floats, user_id=users),
    st.builds(
        StatsReport, seq=st.integers(0), time=floats, user_id=users,
        mean_rate=floats,
    ),
)


@settings(max_examples=300, deadline=None)
@given(events)
def test_wal_line_is_the_sorted_key_encoders(event) -> None:
    assert wal_line(event) == journal_oracle.wal_line(event)


finite = st.floats(allow_nan=False)
finite_events = st.one_of(
    st.builds(StationJoin, seq=st.integers(0), time=finite, user_id=users),
    st.builds(StationLeave, seq=st.integers(0), time=finite, user_id=users),
    st.builds(
        StatsReport, seq=st.integers(0), time=finite, user_id=users,
        mean_rate=finite,
    ),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(finite_events, max_size=20))
def test_wal_lines_read_back_as_the_events(stream: list) -> None:
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "wal.jsonl"
        path.write_bytes(
            b"".join((wal_line(e) + "\n").encode("utf-8") for e in stream)
        )
        assert read_wal(path) == stream
