"""Benchmark crash recovery, and check snapshots scale with state.

The robustness budget of the supervised controller service: a
controller that dies must be back — snapshot loaded, unpickled, global
observability state rolled back, and the write-ahead log read from the
snapshot's offset and replayed through the live submission path — in
**under one second** for a 1k-event WAL.  The timed code is the
supervisor's own restore-and-replay step.  The scenario is the worst
case a cadence snapshot allows: only the genesis snapshot exists, at WAL
offset 0, so recovery replays every event the run ever delivered.
Recovery is timed over five rounds.

The companion JSON (``out/bench_recovery.json``) carries the restore
wall time and replay throughput; its pytest-benchmark timing is gated
against ``baselines/bench_recovery.json`` by ``scripts/bench_check.py``.

A second check runs the supervised service journaled, with metrics on,
at 10k and 30k events and requires the largest snapshot of the long run
to stay within 1.2x of the short run's: a checkpoint holds the service's
state and a journal offset, never the journal itself, so its size must
not grow with run length (``out/bench_recovery_scaling.json``).  A 100k
point is recorded beside them, not gated.  Each point runs in a fresh
interpreter (``python benchmarks/test_bench_recovery.py EVENTS WORKDIR``
prints one point as JSON), so each carries its own peak RSS.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Tuple

import repro
from repro import perf
from repro.faults import FaultPlan
from repro.obs import metrics as obs_metrics
from repro.obs.journal import read_journal
from repro.service.loop import ControllerService
from repro.service.supervisor import Supervisor, run_supervised
from repro.service.workload import WorkloadSpec

_SPEC = WorkloadSpec(users=64, aps=8, events=1000, seed=17)
_MAX_RECOVERY_SECONDS = 1.0
_RECOVERY_ROUNDS = 5

#: Run lengths of the scaling check, and how much the longer run's
#: largest snapshot may exceed the shorter run's.
_SCALING_EVENTS = (10_000, 30_000)
_MAX_SNAPSHOT_GROWTH = 1.2
#: A longer run recorded beside the gated pair, not gated.
_RECORDED_EVENTS = 100_000


def _recover(supervisor: Supervisor) -> Tuple[float, int, ControllerService]:
    """One cold recovery through the supervisor's restore-and-replay."""
    start = perf.wall_seconds()
    _, replayed, _ = supervisor._restore_and_replay()
    service = supervisor.service
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
            "--- bench: crash recovery (restore + WAL replay from the snapshot offset) ---",
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


def _peak_rss_mb() -> float:
    """This interpreter's own peak RSS (``VmHWM`` where it exists)."""
    return perf.peak_rss_bytes() / 2**20


def _supervised_snapshots(events: int, workdir: Path) -> Dict[str, float]:
    """Largest snapshot, mean capture time and rate of one journaled run."""
    spec = WorkloadSpec(users=64, aps=8, events=events, seed=17)
    journal = workdir / "journal.jsonl"
    start = perf.wall_seconds()
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
    elapsed = perf.wall_seconds() - start
    # Taken before the journal is parsed below, which is the bench's
    # own work, not the run's.
    peak_rss_mb = _peak_rss_mb()
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
        "events_per_s": events / elapsed,
        "peak_rss_mb": peak_rss_mb,
    }


def _fresh_process_point(events: int, workdir: Path) -> Dict[str, float]:
    """:func:`_supervised_snapshots` in a fresh interpreter."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, __file__, str(events), str(workdir)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    point: Dict[str, float] = json.loads(done.stdout)
    return point


def test_snapshot_size_flat_in_run_length(report_writer, tmp_path: Path) -> None:
    lengths = _SCALING_EVENTS + (_RECORDED_EVENTS,)
    rows = [_fresh_process_point(n, tmp_path / str(n)) for n in lengths]
    short, long = rows[0], rows[1]
    growth = long["snapshot_bytes_max"] / short["snapshot_bytes_max"]
    lines = ["--- bench: snapshot size vs run length (journal + metrics on) ---"]
    for events, row in zip(lengths, rows):
        lines.append(
            f"{events:>7} events  snapshots {row['snapshots']:.0f}  "
            f"max {row['snapshot_bytes_max'] / 1e3:.1f} kB  "
            f"capture {row['capture_ms_mean']:.2f} ms  "
            f"journal {row['journal_bytes'] / 1e6:.2f} MB  "
            f"{row['events_per_s']:,.0f} events/s  "
            f"peak RSS {row['peak_rss_mb']:.1f} MB"
        )
    lines.append(
        f"growth {_SCALING_EVENTS[0]} -> {_SCALING_EVENTS[1]}: {growth:.3f}x "
        f"(budget {_MAX_SNAPSHOT_GROWTH}x); the {_RECORDED_EVENTS} point is "
        "recorded, not gated"
    )
    report_writer(
        "bench_recovery_scaling",
        "\n".join(lines),
        metrics={
            "growth": growth,
            **{
                f"{key}_{events}": value
                for events, row in zip(lengths, rows)
                for key, value in row.items()
            },
        },
    )
    assert growth <= _MAX_SNAPSHOT_GROWTH, (
        f"largest snapshot grew {growth:.2f}x from {_SCALING_EVENTS[0]} to "
        f"{_SCALING_EVENTS[1]} events; snapshots must track state, not history"
    )


if __name__ == "__main__":
    print(json.dumps(_supervised_snapshots(int(sys.argv[1]), Path(sys.argv[2]))))
