"""Pinned service event streams: what :func:`synthetic_events` yields.

The digests in ``tests/fixtures/service_stream_digests.json`` are the
SHA-256 of fixed specs' streams, one line per event: its class name,
``seq``, ``float.hex(time)``, ``user_id`` and, for a
:class:`StatsReport`, ``float.hex(mean_rate)``.  The specs cover one-
and two-user populations (where a draw's range is often one), the
write-path spec of ``tests/test_write_path_digests.py``, and the 10k-
and 100k-event streams the service benchmarks run.

They fail on any change to what the producer draws or how it turns
draws into events.  A change that moves the stream on purpose
regenerates them
(``PYTHONPATH=src python tests/test_service_stream_digests.py``) and
says why.

The value tests check that the producer's events are the constructors'
events: same type, equality, hash and pickle bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
from pathlib import Path
from typing import Dict, Iterable

import pytest

from repro.service import supervisor
from repro.service.events import ServiceEvent, StatsReport
from repro.service.workload import WorkloadSpec, synthetic_events

DIGESTS = Path(__file__).parent / "fixtures" / "service_stream_digests.json"

SPECS: Dict[str, WorkloadSpec] = {
    "users1_seed1": WorkloadSpec(users=1, aps=1, events=2_000, seed=1),
    "users1_seed2": WorkloadSpec(users=1, aps=1, events=2_000, seed=2),
    "users2_seed1": WorkloadSpec(users=2, aps=2, events=2_000, seed=1),
    "users2_seed2": WorkloadSpec(users=2, aps=2, events=2_000, seed=2),
    "write_path": WorkloadSpec(users=24, aps=6, events=500, seed=17),
    "users64_10k": WorkloadSpec(users=64, aps=8, events=10_000, seed=1),
    "users256_100k": WorkloadSpec(users=256, aps=16, events=100_000, seed=1),
}


def stream_digest(events: Iterable[ServiceEvent]) -> str:
    """SHA-256 over one line per event, floats as :meth:`float.hex`."""
    digest = hashlib.sha256()
    for event in events:
        line = (
            f"{type(event).__name__} {event.seq} {event.time.hex()} "
            f"{event.user_id}"
        )
        if isinstance(event, StatsReport):
            line += f" {event.mean_rate.hex()}"
        digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()


def compute_digests() -> Dict[str, str]:
    return {name: stream_digest(synthetic_events(spec)) for name, spec in SPECS.items()}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_stream_matches_the_pinned_digest(name: str) -> None:
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert stream_digest(synthetic_events(SPECS[name])) == pinned[name]


def test_supervisor_reads_the_same_producer() -> None:
    assert supervisor.synthetic_events is synthetic_events


def test_events_are_the_constructors_events() -> None:
    events = synthetic_events(SPECS["write_path"])
    assert {type(event).__name__ for event in events} == {
        "StationJoin", "StationLeave", "StatsReport",
    }
    for event in events:
        built = type(event)(**{
            field.name: getattr(event, field.name)
            for field in dataclasses.fields(event)
        })
        assert type(built) is type(event)
        assert event == built
        assert hash(event) == hash(built)
        assert type(event.seq) is int
        assert type(event.time) is float
        assert type(event.user_id) is str
        if isinstance(event, StatsReport):
            assert type(event.mean_rate) is float
        assert not hasattr(event, "__dict__")
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(event, protocol) == pickle.dumps(built, protocol)


if __name__ == "__main__":
    text = json.dumps(compute_digests(), indent=2, sort_keys=True) + "\n"
    DIGESTS.write_text(text, encoding="utf-8")
    print(text, end="")
