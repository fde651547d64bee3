"""Sweep plans: serial/process equivalence, fingerprints, dispatch.

The registered equivalence proof for ``repro.runtime.sweep.run_sweep``
lives here: the process engine must return exactly the values the serial
reference loop computes, for the real ablation planners.
"""

from __future__ import annotations

import pytest

from repro.experiments.ablations import plan_threshold
from repro.experiments.config import TINY
from repro.obs import metrics as obs_metrics
from repro.obs.journal import render_journal, strip_wall
from repro.runtime.sweep import (
    SweepPlan,
    balance_task,
    make_task,
    run_sweep,
    run_sweep_process,
    run_sweep_serial,
)


def _square(x: int) -> int:
    return x * x


def _tiny_threshold_plan() -> SweepPlan:
    # Two thresholds keep the retrain-per-task cost test-sized while
    # still exercising a genuinely heterogeneous plan.
    return plan_threshold(TINY, thresholds=(0.3, 0.6))


def test_run_sweep_engines_identical():
    plan = _tiny_threshold_plan()
    serial = run_sweep_serial(plan)
    process = run_sweep_process(plan, workers=2)
    assert process == serial
    assert list(process) == [task.task_id for task in plan.tasks]


def test_plan_rejects_duplicate_task_ids():
    task = make_task("a", _square, x=2)
    with pytest.raises(ValueError, match="duplicate sweep task id"):
        SweepPlan([task, make_task("a", _square, x=3)])


def test_fingerprint_stable_and_sensitive():
    plan = SweepPlan([make_task("a", _square, x=2), make_task("b", _square, x=3)])
    same = SweepPlan([make_task("a", _square, x=2), make_task("b", _square, x=3)])
    different = SweepPlan(
        [make_task("a", _square, x=2), make_task("b", _square, x=4)]
    )
    assert plan.fingerprint() == same.fingerprint()
    assert plan.fingerprint() != different.fingerprint()
    assert plan.fingerprint().startswith("sweep:2:")


def test_make_task_sorts_kwargs():
    assert make_task("t", _square, b=1, a=2) == make_task("t", _square, a=2, b=1)


def test_dispatcher_rejects_unknown_engine():
    plan = SweepPlan([make_task("a", _square, x=2)])
    with pytest.raises(ValueError, match="unknown engine"):
        run_sweep(plan, engine="threads")


def test_auto_runs_single_task_serially():
    # One task: auto picks serial, and the value comes back keyed.
    plan = SweepPlan([make_task("only", _square, x=7)])
    assert run_sweep(plan, engine="auto") == {"only": 49}


def test_process_sweep_matches_plain_calls():
    plan = SweepPlan([make_task(f"sq/{n}", _square, x=n) for n in range(5)])
    values = run_sweep(plan, engine="process", workers=2)
    assert values == {f"sq/{n}": n * n for n in range(5)}


def test_balance_task_rejects_unknown_strategy():
    with pytest.raises(ValueError, match="unknown strategy"):
        balance_task(TINY, strategy="rssi")


def test_process_sweep_records_host_scoped_pool_series():
    """The pool's backpressure gauge lives under ``"wall"`` only: present
    in the rendered journal, gone after ``strip_wall``."""
    plan = SweepPlan([make_task(f"sq/{n}", _square, x=n) for n in range(3)])
    registry = obs_metrics.get_metrics()
    try:
        registry.reset()
        registry.enabled = True
        run_sweep(plan, engine="process", workers=2)
        records = obs_metrics.metric_records()
    finally:
        registry.reset()
        registry.enabled = False
    host_names = {r.name for r in records if r.scope == "host"}
    assert "runtime.pool_pending" in host_names
    text = render_journal(list(records))
    assert "runtime.pool_pending" in text
    assert "runtime.pool_pending" not in strip_wall(text)
