"""The service events: slotted, frozen, and value-like under pickle."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.service.events import StationJoin, StationLeave, StatsReport

_EVENTS = [
    StationJoin(seq=0, time=1.5, user_id="u001"),
    StationLeave(seq=1, time=2.25, user_id="u001"),
    StatsReport(seq=2, time=3.0, user_id="u002", mean_rate=1234.5),
]


@pytest.mark.parametrize("event", _EVENTS, ids=lambda e: type(e).__name__)
def test_slotted_without_a_dict(event: object) -> None:
    assert not hasattr(event, "__dict__")
    fields = tuple(field.name for field in dataclasses.fields(event))
    assert type(event).__slots__ == fields


@pytest.mark.parametrize("event", _EVENTS, ids=lambda e: type(e).__name__)
def test_pickle_round_trip(event: object) -> None:
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(event, protocol=protocol))
        assert type(back) is type(event)
        assert back == event
        assert hash(back) == hash(event)
        assert dataclasses.astuple(back) == dataclasses.astuple(event)


def test_equality_and_hash_are_by_value() -> None:
    join = StationJoin(seq=4, time=9.0, user_id="u")
    assert join == StationJoin(seq=4, time=9.0, user_id="u")
    assert join != StationJoin(seq=5, time=9.0, user_id="u")
    # Same fields, different kind: never equal.
    assert join != StationLeave(seq=4, time=9.0, user_id="u")
    assert hash(join) == hash((4, 9.0, "u"))
    report = StatsReport(seq=1, time=2.0, user_id="v", mean_rate=3.0)
    assert hash(report) == hash((1, 2.0, "v", 3.0))
    assert len({join, StationJoin(seq=4, time=9.0, user_id="u"), report}) == 2


@pytest.mark.parametrize("event", _EVENTS, ids=lambda e: type(e).__name__)
def test_assignment_is_refused(event: object) -> None:
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.seq = 99  # type: ignore[misc]
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.extra = 1  # type: ignore[attr-defined]
    with pytest.raises(dataclasses.FrozenInstanceError):
        del event.time  # type: ignore[misc]
