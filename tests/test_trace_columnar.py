"""Columnar transposes of the flow and session records.

:class:`~repro.trace.columnar.FlowArrays` round-trips exactly;
:class:`~repro.trace.columnar.SessionArrays` row slices must keep their
id tables so codes stay comparable across slices.
"""

from __future__ import annotations

from repro.trace.columnar import FlowArrays, SessionArrays
from repro.trace.records import FlowRecord, SessionRecord


def _flows():
    return [
        FlowRecord(
            user_id="u-a", start=0.5, end=1.5, src_ip="10.0.0.1",
            dst_ip="10.0.0.9", protocol="udp", src_port=5353, dst_port=53,
            bytes_total=123.0,
        ),
        FlowRecord(
            user_id="u-b", start=2.0, end=7.0, src_ip="10.0.0.2",
            dst_ip="10.0.0.1", protocol="tcp", src_port=40000, dst_port=443,
            bytes_total=9876.5,
        ),
    ]


def _sessions():
    return [
        SessionRecord("u-b", "ap-2", "ctl-1", 0.0, 4.0, 10.0),
        SessionRecord("u-a", "ap-1", "ctl-1", 1.0, 2.0, 20.0),
        SessionRecord("u-a", "ap-2", "ctl-2", 3.0, 8.0, 30.0),
    ]


def test_flow_arrays_round_trip_exact():
    flows = _flows()
    assert FlowArrays.from_flows(flows).to_flows() == flows
    assert FlowArrays.from_flows([]).to_flows() == []


def test_session_arrays_slice_shares_tables():
    arrays = SessionArrays.from_sessions(
        [
            SessionRecord("u-b", "ap-2", "ctl-1", 0.0, 4.0, 10.0),
            SessionRecord("u-a", "ap-1", "ctl-1", 1.0, 2.0, 20.0),
            SessionRecord("u-a", "ap-2", "ctl-1", 3.0, 8.0, 30.0),
        ]
    )
    view = arrays.slice_rows(slice(1, 3))
    assert view.user_ids == arrays.user_ids  # codes stay comparable
    assert view.n_sessions == 2
    assert list(view.connect) == [1.0, 3.0]
    masked = arrays.slice_rows(arrays.user == arrays.user_ids.index("u-a"))
    assert list(masked.connect) == [1.0, 3.0]


def test_group_ap_ids_matches_group_heads():
    arrays = SessionArrays.from_sessions(_sessions())
    order, starts, _ = arrays.by_ap_connect()
    ids = arrays.group_ap_ids(starts, order)
    expected = [arrays.ap_ids[int(arrays.ap[order[s]])] for s in starts]
    assert ids == expected == ["ap-1", "ap-2"]
