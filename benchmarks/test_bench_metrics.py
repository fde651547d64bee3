"""The cost of the metrics layer when it is switched off.

The instrumentation contract of :mod:`repro.obs.metrics` is that the
disabled fast path is cheap enough to leave in every hot loop: one
global load and one attribute check per call, no argument packing, no
allocation.  This bench holds the replay engine to that promise with an
analytic bound: measure the real per-call cost of a disabled module
function, count the instrumentation touches a replay actually makes
(kernel events, batches, decisions), and require the product to stay
under 3% of the replay's measured wall time.
"""

from __future__ import annotations

from repro import perf
from repro.experiments.config import TINY
from repro.experiments.workload import build_workload
from repro.obs import metrics as obs_metrics
from repro.wlan.replay import ReplayEngine
from repro.wlan.strategies import LeastLoadedFirst

#: Disabled no-op calls timed to estimate the per-call cost.
DISABLED_CALLS = 200_000

#: Maximum tolerated overhead of metrics-off instrumentation.
OVERHEAD_BUDGET = 0.03


def _disabled_call_seconds() -> float:
    """Measured wall seconds per disabled module-function call."""
    registry = perf.PerfRegistry()
    inc = obs_metrics.inc
    with registry.timer("disabled"):
        for _ in range(DISABLED_CALLS):
            inc("replay.decisions", 1.0, 0.0)
    return registry.total("disabled") / DISABLED_CALLS


def test_bench_metrics_disabled_overhead(benchmark, report_writer):
    workload = build_workload(TINY)
    metrics_registry = obs_metrics.get_metrics()
    assert not metrics_registry.enabled, "bench must run metrics-off"

    engine = ReplayEngine(
        workload.world.layout, LeastLoadedFirst(), workload.config.replay
    )
    wall = perf.PerfRegistry()

    def run():
        with wall.timer("replay"):
            return engine.run(workload.test_demands)

    result = benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
    stat = wall.timers()["replay"]
    replay_seconds = stat.minimum

    per_call = _disabled_call_seconds()
    # Touches per replay when disabled: one branch per kernel event plus
    # a handful of guarded call sites per decision/batch/sampler tick —
    # bounded generously by 4 full module-function calls per session.
    touches = result.events_processed + 4 * len(result.sessions)
    overhead = touches * per_call / replay_seconds

    report_writer(
        "micro_metrics_overhead",
        f"metrics-off replay overhead: {overhead * 100:.3f}% "
        f"({touches} touches x {per_call * 1e9:.0f}ns over "
        f"{replay_seconds:.3f}s replay)",
        benchmark=benchmark,
        metrics={
            "events": int(result.events_processed),
            "sessions": len(result.sessions),
            "touches": int(touches),
            "disabled_call_ns": per_call * 1e9,
            "replay_min_s": replay_seconds,
            "overhead_frac": overhead,
        },
    )
    assert metrics_registry.enabled is False
    assert not metrics_registry, "disabled run must not create series"
    assert overhead < OVERHEAD_BUDGET, (
        f"metrics-off instrumentation costs {overhead * 100:.2f}% of replay "
        f"wall time (budget {OVERHEAD_BUDGET * 100:.0f}%)"
    )
