"""Benchmark the controller service's association decision path.

An open-loop synthetic client: the full event stream is pre-generated
(the client never waits on the service), then pushed through
:class:`~repro.service.loop.ControllerService` with observability off —
the configuration a production fast path would run.  Two phases:

* **throughput** — ``_ROUNDS`` timed passes over the stream, each on
  a fresh service; the gate is the tentpole number of the PR 9
  service: at least ``10_000`` committed association decisions per
  second (median pass), on one core, with the online learner folding
  every departure back into the social model as it runs.
* **latency** — a second pass with ``track_latency`` on; the p99 of
  wall seconds from join enqueue to committed decision must stay under
  5 ms (measured ~120 us on the reference box; micro-batching delay is
  sim-clock driven and excluded by construction from the wall path).

The companion JSON (``out/bench_service.json``) carries both numbers
for CI archiving, and its pytest-benchmark timing is gated against
``baselines/bench_service.json`` by ``scripts/bench_check.py``.
"""

from __future__ import annotations

import statistics
from typing import List, Tuple

from repro import perf
from repro.service import AdmissionConfig, WorkloadSpec
from repro.service.events import ServiceEvent, StationJoin
from repro.service.loop import ControllerService
from repro.service.workload import make_service, synthetic_events

_SPEC = WorkloadSpec(users=256, aps=16, events=30000, seed=17)
_ROUNDS = 5
_MIN_DECISIONS_PER_SEC = 10_000.0
_MAX_P99_SECONDS = 0.005


def _drive(service: ControllerService, events: List[ServiceEvent]) -> float:
    """Push the whole stream; returns the wall seconds it took."""
    start = perf.wall_seconds()
    for event in events:
        service.submit(event)
    service.drain()
    return perf.wall_seconds() - start


def test_bench_service(benchmark, report_writer) -> None:
    events = synthetic_events(_SPEC)
    joins = sum(1 for e in events if isinstance(e, StationJoin))

    # Throughput phase: observability off, every round on a fresh service.
    walls: List[float] = []
    services: List[ControllerService] = []

    def fresh() -> Tuple[Tuple[ControllerService, List[ServiceEvent]], dict]:
        services.append(make_service(_SPEC, monitor=False))
        return (services[-1], events), {}

    def timed(service: ControllerService, stream: List[ServiceEvent]) -> None:
        walls.append(_drive(service, stream))

    benchmark.pedantic(timed, setup=fresh, rounds=_ROUNDS, iterations=1)
    assert all(service.admission.decisions == joins for service in services)
    throughput_service = services[-1]
    queue = throughput_service.admission
    elapsed = statistics.median(walls)
    decisions_per_sec = queue.decisions / elapsed
    events_per_sec = len(events) / elapsed

    # Latency phase: a fresh service collecting per-decision walls.
    latency_service = make_service(
        _SPEC, AdmissionConfig(track_latency=True), monitor=False
    )
    _drive(latency_service, events)
    latencies = sorted(latency_service.admission.latencies)
    assert len(latencies) == joins
    p50 = latencies[int(0.50 * (len(latencies) - 1))]
    p99 = latencies[int(0.99 * (len(latencies) - 1))]

    learner = throughput_service.learner
    assert learner is not None
    text = "\n".join(
        [
            "--- bench: service decision path (open-loop client) ---",
            f"events               {len(events)}",
            f"decisions            {queue.decisions}",
            f"batches              {queue.batches}",
            f"sheds                {queue.sheds}",
            f"rounds               {len(walls)}",
            f"elapsed_s_median     {elapsed:.3f}",
            f"decisions_per_sec    {decisions_per_sec:,.0f}",
            f"events_per_sec       {events_per_sec:,.0f}",
            f"latency_p50_us       {p50 * 1e6:.1f}",
            f"latency_p99_us       {p99 * 1e6:.1f}",
            f"learned_pairs        {learner.social.known_pairs()}",
        ]
    )
    report_writer(
        "bench_service",
        text,
        benchmark=benchmark,
        metrics={
            "events": len(events),
            "decisions": queue.decisions,
            "batches": queue.batches,
            "sheds": queue.sheds,
            "rounds": len(walls),
            "elapsed_s_median": elapsed,
            "decisions_per_sec": decisions_per_sec,
            "events_per_sec": events_per_sec,
            "latency_p50_s": p50,
            "latency_p99_s": p99,
            "learned_pairs": learner.social.known_pairs(),
        },
    )

    assert decisions_per_sec >= _MIN_DECISIONS_PER_SEC, (
        f"service decision path too slow: {decisions_per_sec:,.0f}/s "
        f"< {_MIN_DECISIONS_PER_SEC:,.0f}/s"
    )
    assert p99 <= _MAX_P99_SECONDS, (
        f"p99 decision latency {p99 * 1e3:.2f} ms exceeds "
        f"{_MAX_P99_SECONDS * 1e3:.1f} ms"
    )
