"""Benchmark the sharded process engine against the serial reference.

One full PAPER-campus evaluation replay under LLF, serial vs
``engine="process"`` at 1, 2 and 4 workers, through the
``replay.run.llf`` perf timer (the registered wall-clock funnel), so
the speedup is measured exactly where users feel it.

Measurement discipline: after one warm-up round (which pays the
one-time costs — workload caches, the resilience layer's warm pools),
every configuration is timed once per *cycle*, round-robin, for seven
cycles.  Two estimators come out of that:

* ``min/min`` — each configuration's floor across cycles, the familiar
  benchmark headline.  Reported in the artifact.
* ``paired`` — within each cycle, serial and each process
  configuration run back-to-back, so a transient host slowdown (noisy
  neighbours on a shared box) inflates both sides of the ratio; the
  *best cycle's* ratio is the overhead gate.  A pure min/min gate is
  fragile exactly when the host is noisy: serial only needs one clean
  cycle to hit its floor, while a burst landing on every process slot
  fakes a regression.

The 1-worker assertion is *unconditional*: with the zero-copy
shared-memory transport and worker-group scheduling the process engine
must stay within 10% of serial even with no parallelism to exploit —
that overhead budget is the tentpole claim of the transport.  The
scaling assertions are gated on the host's core count: the parity
tests guarantee the engines agree everywhere, but a single-core CI box
cannot (and should not) demonstrate a parallel speedup.  Peak RSS is
reported alongside — the parent's own, and each pool worker's own
``VmHWM`` as its shard finished — so a transport that trades wall-clock
for duplicated memory shows up in the artifact diff.
"""

from __future__ import annotations

import os

from repro import perf
from repro.runtime import plan_replay_shards, replay_process, replay_serial
from repro.wlan.strategies import LeastLoadedFirst

from conftest import run_once

_WORKER_COUNTS = (1, 2, 4)
_ROUNDS = 7
_TIMER = "replay.run.llf"


def _interleaved_rounds(cases):
    """Warm each case once, then round-robin the measured cycles.

    Returns ``(results, times)``: each case's last result, and its
    per-cycle ``_TIMER`` walls (index ``i`` of every list is the same
    cycle — that alignment is what the paired gate relies on).
    """
    results = {name: fn() for name, fn in cases}  # warm-up round
    times = {name: [] for name, _ in cases}
    for _ in range(_ROUNDS):
        for name, fn in cases:
            perf.reset()
            results[name] = fn()
            times[name].append(perf.PERF.total(_TIMER))
    return results, times


def test_bench_runtime_process_speedup(benchmark, paper_workload, report_writer):
    layout = paper_workload.world.layout
    demands = paper_workload.test_demands
    config = paper_workload.config.replay
    plan = plan_replay_shards(layout, demands, config)

    cases = [
        ("serial", lambda: replay_serial(layout, LeastLoadedFirst(), demands, config))
    ]
    cases += [
        (
            f"process_{workers}",
            lambda workers=workers: replay_process(
                layout, LeastLoadedFirst(), demands, config, workers=workers
            ),
        )
        for workers in _WORKER_COUNTS
    ]
    results, times = _interleaved_rounds(cases)
    serial, serial_s = results["serial"], min(times["serial"])
    process_s = {w: min(times[f"process_{w}"]) for w in _WORKER_COUNTS}
    paired = {
        w: max(
            s / p for s, p in zip(times["serial"], times[f"process_{w}"])
        )
        for w in _WORKER_COUNTS
    }
    for workers in _WORKER_COUNTS:
        # the merge must stay exact at benchmark scale too
        process = results[f"process_{workers}"]
        assert process.sessions == serial.sessions
        assert process.events_processed == serial.events_processed
    # one extra max-worker round under pytest-benchmark, for its stats
    run_once(
        benchmark,
        lambda: replay_process(
            layout, LeastLoadedFirst(), demands, config,
            workers=_WORKER_COUNTS[-1],
        ),
    )

    cpu_count = os.cpu_count() or 1
    speedups = {
        workers: serial_s / seconds if seconds else 0.0
        for workers, seconds in process_s.items()
    }
    peak_rss = perf.peak_rss_bytes()
    worker_peaks = {
        w: list(results[f"process_{w}"].worker_peak_rss_bytes)
        for w in _WORKER_COUNTS
    }
    lines = [
        (
            f"sharded replay (PAPER, LLF, {len(demands)} demands, "
            f"{plan.busy_shards}/{len(plan.shards)} busy shards, "
            f"{cpu_count} cores, {_ROUNDS} interleaved cycles)"
        ),
        f"serial    : {serial_s:.3f}s",
    ]
    lines += [
        (
            f"process {workers}w: {process_s[workers]:.3f}s "
            f"(speedup {speedups[workers]:.2f}x min/min, "
            f"{paired[workers]:.2f}x best paired cycle)"
        )
        for workers in _WORKER_COUNTS
    ]
    lines.append(f"peak rss  : {peak_rss / 2**20:.0f} MiB parent")
    lines += [
        f"worker rss {workers}w: "
        + ", ".join(f"{peak / 2**20:.0f}" for peak in worker_peaks[workers])
        + " MiB"
        for workers in _WORKER_COUNTS
    ]
    report_writer(
        "bench_runtime",
        "\n".join(lines),
        benchmark=benchmark,
        metrics={
            "serial_s": serial_s,
            "process_s": {str(w): s for w, s in process_s.items()},
            "speedup": {str(w): s for w, s in speedups.items()},
            "speedup_paired": {str(w): s for w, s in paired.items()},
            "rounds": _ROUNDS,
            "cpu_count": cpu_count,
            "shards": len(plan.shards),
            "busy_shards": plan.busy_shards,
            "sessions": len(serial.sessions),
            "events": serial.events_processed,
            "peak_rss_bytes": peak_rss,
            "worker_peak_rss_bytes": {
                str(w): peaks for w, peaks in worker_peaks.items()
            },
        },
    )
    # The transport's overhead budget: even with zero parallelism the
    # process engine stays within 10% of serial in at least one
    # back-to-back cycle.  Unconditional.  On a quiet host the best
    # paired cycle converges to the true ratio, so the 0.9 bar is
    # tight there; on a noisy shared box a serial-side burst can
    # inflate a single cycle's ratio, so the min/min floor below
    # backstops against a real regression hiding behind one.
    assert paired[1] >= 0.9
    assert speedups[1] >= 0.75
    # Parallelism only pays where there are cores to spread over.
    if cpu_count >= 2:
        assert paired[2] >= 1.1
    if cpu_count >= 4:
        assert paired[4] >= 1.5
