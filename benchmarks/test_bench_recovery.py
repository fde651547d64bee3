"""Benchmark crash recovery, and check snapshots scale with state.

The robustness budget of the supervised controller service: a
controller that dies must be back — snapshot loaded, unpickled, global
observability state rolled back, and the *entire* write-ahead-log
suffix replayed through the live submission path — in **under one
second** for a 1k-event WAL.  The scenario is the worst case a cadence
snapshot allows: only the genesis snapshot exists, so recovery replays
every event the run ever delivered.  Recovery is timed over five rounds.

The companion JSON (``out/bench_recovery.json``) carries the restore
wall time and replay throughput; its pytest-benchmark timing is gated
against ``baselines/bench_recovery.json`` by ``scripts/bench_check.py``.

A second check runs the supervised service journaled, with metrics on,
at 10k and 30k events and requires the largest snapshot of the long run
to stay within 1.2x of the short run's: a checkpoint holds the service's
state and a journal offset, never the journal itself, so its size must
not grow with run length (``out/bench_recovery_scaling.json``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Tuple

from repro import perf
from repro.faults import FaultPlan
from repro.obs import metrics as obs_metrics
from repro.obs.journal import read_journal
from repro.service.checkpoint import restore_checkpoint
from repro.service.loop import ControllerService
from repro.service.supervisor import Supervisor, read_wal, run_supervised
from repro.service.workload import WorkloadSpec

_SPEC = WorkloadSpec(users=64, aps=8, events=1000, seed=17)
_MAX_RECOVERY_SECONDS = 1.0
_RECOVERY_ROUNDS = 5

#: Run lengths of the scaling check, and how much the longer run's
#: largest snapshot may exceed the shorter run's.
_SCALING_EVENTS = (10_000, 30_000)
_MAX_SNAPSHOT_GROWTH = 1.2


def _recover(supervisor: Supervisor) -> Tuple[float, int, ControllerService]:
    """One cold recovery: load, restore, replay the whole WAL suffix."""
    start = perf.wall_seconds()
    checkpoint = supervisor._load_latest_checkpoint()
    service = restore_checkpoint(checkpoint, supervisor.fingerprint)
    replayed = 0
    for event in read_wal(supervisor.wal_path):
        if event.seq >= checkpoint.next_seq:
            service.submit(event)
            replayed += 1
    service.drain()
    return perf.wall_seconds() - start, replayed, service


def test_bench_recovery(benchmark, report_writer, tmp_path: Path) -> None:
    # A huge cadence keeps the genesis snapshot as the only one, so the
    # recovery below replays the complete 1k-event WAL.
    supervisor = Supervisor(
        _SPEC, FaultPlan(), tmp_path, snapshot_every=10_000
    )
    supervisor.run()
    assert supervisor.snapshots_taken == 1

    elapsed, replayed, service = benchmark.pedantic(
        lambda: _recover(supervisor),
        rounds=_RECOVERY_ROUNDS,
        iterations=1,
        warmup_rounds=1,
    )
    assert replayed == _SPEC.events
    assert service.events_processed == _SPEC.events
    events_per_sec = replayed / elapsed if elapsed > 0 else float("inf")

    text = "\n".join(
        [
            "--- bench: crash recovery (restore + full WAL replay) ---",
            f"wal_events           {replayed}",
            f"recovery_s           {elapsed:.4f}",
            f"replay_events_per_s  {events_per_sec:,.0f}",
            f"decisions_rederived  {service.admission.decisions}",
        ]
    )
    report_writer(
        "bench_recovery",
        text,
        benchmark=benchmark,
        metrics={
            "wal_events": replayed,
            "recovery_s": elapsed,
            "replay_events_per_sec": events_per_sec,
            "decisions_rederived": service.admission.decisions,
        },
    )

    assert elapsed < _MAX_RECOVERY_SECONDS, (
        f"recovery took {elapsed:.3f}s for {replayed} WAL events; "
        f"the budget is {_MAX_RECOVERY_SECONDS:.1f}s"
    )


def _supervised_snapshots(events: int, workdir: Path) -> Dict[str, float]:
    """Largest snapshot and mean capture time of one journaled run."""
    spec = WorkloadSpec(users=64, aps=8, events=events, seed=17)
    journal = workdir / "journal.jsonl"
    try:
        summary = run_supervised(
            spec,
            FaultPlan(),
            workdir / "run",
            journal=journal,
            metrics=True,
            snapshot_every=100,
        )
    finally:
        obs_metrics.disable()
    sizes = [p.stat().st_size for p in (workdir / "run" / "snapshots").glob("*.pkl")]
    perf_footer = read_journal(journal).perf
    assert perf_footer is not None
    capture = perf_footer.timers["service.checkpoint.capture"]
    assert summary["events"] == events and len(sizes) == summary["snapshots"]
    return {
        "snapshots": float(len(sizes)),
        "snapshot_bytes_max": float(max(sizes)),
        "capture_ms_mean": 1e3 * capture["mean"],
        "journal_bytes": float(journal.stat().st_size),
    }


def test_snapshot_size_flat_in_run_length(report_writer, tmp_path: Path) -> None:
    short, long = (
        _supervised_snapshots(events, tmp_path / str(events))
        for events in _SCALING_EVENTS
    )
    growth = long["snapshot_bytes_max"] / short["snapshot_bytes_max"]
    lines = ["--- bench: snapshot size vs run length (journal + metrics on) ---"]
    for events, row in zip(_SCALING_EVENTS, (short, long)):
        lines.append(
            f"{events:>6} events  snapshots {row['snapshots']:.0f}  "
            f"max {row['snapshot_bytes_max'] / 1e3:.1f} kB  "
            f"capture {row['capture_ms_mean']:.2f} ms  "
            f"journal {row['journal_bytes'] / 1e6:.2f} MB"
        )
    lines.append(f"growth {growth:.3f}x (budget {_MAX_SNAPSHOT_GROWTH}x)")
    report_writer(
        "bench_recovery_scaling",
        "\n".join(lines),
        metrics={
            "growth": growth,
            **{f"{k}_{_SCALING_EVENTS[0]}": v for k, v in short.items()},
            **{f"{k}_{_SCALING_EVENTS[1]}": v for k, v in long.items()},
        },
    )
    assert growth <= _MAX_SNAPSHOT_GROWTH, (
        f"largest snapshot grew {growth:.2f}x from {_SCALING_EVENTS[0]} to "
        f"{_SCALING_EVENTS[1]} events; snapshots must track state, not history"
    )
