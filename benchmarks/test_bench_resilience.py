"""Benchmark the fault subsystem: dormant overhead and recovery shape.

Two questions about :mod:`repro.faults` at PAPER scale.  First, what
does carrying a fault plan cost when nothing fires?  A plan whose
events all sit beyond the replay horizon exercises the full plan
compilation and per-flush bookkeeping without ever perturbing the run,
so its wall time against a plan-free replay is pure fault-path
overhead — the ISSUE budget is 15%.  Second, how do LLF and S³ degrade
and re-converge around a targeted worst-case AP outage?  The resilience
experiment derives every number from the journal, and this bench
archives them per commit.
"""

from __future__ import annotations

from repro import perf
from repro.experiments import resilience
from repro.experiments.config import PAPER
from repro.faults import targeted_ap_outage
from repro.wlan.replay import ReplayEngine, window_for
from repro.wlan.strategies import LeastLoadedFirst

from conftest import run_once

_TIMER = "replay.run.llf"
_ROUNDS = 3


def _best_of(fn):
    """Best wall time over ``_ROUNDS`` runs; returns (last result, seconds)."""
    best = float("inf")
    result = None
    for _ in range(_ROUNDS):
        perf.reset()
        result = fn()
        best = min(best, perf.PERF.total(_TIMER))
    return result, best


def test_bench_dormant_fault_plan_overhead(paper_workload, report_writer):
    layout = paper_workload.world.layout
    demands = paper_workload.test_demands
    config = paper_workload.config.replay
    window = window_for(demands, config)
    # A real, non-empty plan — but every event lands past the horizon,
    # so the run is byte-equivalent to the plan-free one.
    dormant = targeted_ap_outage(
        sorted(layout.aps)[0], window.horizon + 3600.0, 60.0
    )

    clean, clean_s = _best_of(
        lambda: ReplayEngine(layout, LeastLoadedFirst(), config).run(demands)
    )
    armed, armed_s = _best_of(
        lambda: ReplayEngine(
            layout, LeastLoadedFirst(), config, fault_plan=dormant
        ).run(demands)
    )
    assert armed.sessions == clean.sessions
    assert armed.events_processed == clean.events_processed

    overhead = armed_s / clean_s - 1.0 if clean_s else 0.0
    report_writer(
        "bench_resilience_overhead",
        (
            f"dormant fault-plan overhead (PAPER, LLF, "
            f"{len(demands)} demands, best of {_ROUNDS})\n"
            f"no plan     : {clean_s:.3f}s\n"
            f"dormant plan: {armed_s:.3f}s\n"
            f"overhead    : {overhead:+.1%} (budget 15%)"
        ),
        metrics={
            "clean_s": clean_s,
            "armed_s": armed_s,
            "overhead": overhead,
            "rounds": _ROUNDS,
            "sessions": len(clean.sessions),
        },
    )
    # 50ms absolute floor keeps sub-second timings from tripping on noise.
    assert armed_s <= clean_s * 1.15 + 0.05


def test_bench_resilience_recovery(benchmark, report_writer):
    result = run_once(benchmark, lambda: resilience.run(PAPER))
    assert sorted(result.by_strategy) == ["llf", "s3"]
    metrics = {
        "target_ap": result.target_ap,
        "fault_start": result.fault_start,
        "fault_duration": result.fault_duration,
    }
    for name, entry in sorted(result.by_strategy.items()):
        assert entry.evicted > 0  # the worst-case target really had users
        assert entry.drop >= 0.0
        metrics[f"{name}_evicted"] = entry.evicted
        metrics[f"{name}_pre_fault_balance"] = entry.pre_fault_balance
        metrics[f"{name}_min_balance_during"] = entry.min_balance_during
        metrics[f"{name}_drop"] = entry.drop
        metrics[f"{name}_recovery_s"] = entry.recovery_time
    report_writer(
        "bench_resilience",
        result.render(),
        benchmark=benchmark,
        metrics=metrics,
    )
