"""Task-graph execution for experiment sweeps.

An ablation sweep (and the figure runners) is a loop of independent,
expensive evaluations — retrain with one knob changed, replay, score.
A :class:`SweepPlan` captures that loop as named tasks; :func:`run_sweep`
executes it serially (the reference: same call sequence as the original
loop) or across a process pool, with optional checkpoint/resume.

Task functions must be module-level and picklable by reference; the
stock ones below (:func:`balance_task`, :func:`experiment_task`) rebuild
their workload inside the worker from the experiment config's seed —
deterministic by the workload module's construction — so task *inputs*
stay small even when the artifacts are hundreds of megabytes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union
import zlib

from repro import perf
from repro.runtime.checkpoint import RunDirectory
from repro.runtime.resilience import (
    TaskFailure,
    journal_failure,
    run_pool_with_retries,
    serial_with_retries,
)
from repro.runtime.workers import SweepCall, SweepOutcome, run_sweep_call

#: A sweep task is just a named call; reuse the worker's picklable form.
SweepTask = SweepCall


def make_task(task_id: str, fn: Callable[..., Any], **kwargs: Any) -> SweepTask:
    """Convenience constructor keeping kwargs in sorted, hashable form."""
    return SweepTask(
        task_id=task_id,
        fn=fn,
        kwargs=tuple(sorted(kwargs.items())),
    )


class SweepPlan:
    """An ordered set of uniquely named, independent tasks."""

    def __init__(self, tasks: Sequence[SweepTask]) -> None:
        self.tasks: Tuple[SweepTask, ...] = tuple(tasks)
        seen: Dict[str, SweepTask] = {}
        for task in self.tasks:
            if task.task_id in seen:
                raise ValueError(f"duplicate sweep task id {task.task_id!r}")
            seen[task.task_id] = task

    def __len__(self) -> int:
        return len(self.tasks)

    def fingerprint(self) -> str:
        """A stable digest of the plan (task ids + functions + kwargs)."""
        parts = [
            f"{task.task_id}={task.fn.__module__}.{task.fn.__qualname__}"
            f"({task.kwargs!r})"
            for task in self.tasks
        ]
        digest = zlib.crc32("|".join(parts).encode("utf-8"))
        return f"sweep:{len(self.tasks)}:{digest:08x}"


#: The engine names :func:`run_sweep` accepts.
ENGINES = ("auto", "serial", "process")


def run_sweep(
    plan: SweepPlan,
    *,
    engine: str = "auto",
    workers: Optional[int] = None,
    run_dir: Optional[Union[str, Path]] = None,
    max_task_retries: int = 0,
    on_failure: str = "raise",
) -> Dict[str, Any]:
    """Execute every task of ``plan``; values keyed by task id.

    ``engine="serial"`` runs the tasks in order in this process — the
    same call sequence as the loop the plan replaced.  ``"process"``
    fans them out over a pool, merging each worker's perf snapshot into
    the parent registry.  ``"auto"`` picks the pool when the plan holds
    more than one task.

    A failing task is retried ``max_task_retries`` times (on a fresh
    pool, so even a worker killed hard is survivable).  A task that
    exhausts its retries follows ``on_failure``: ``"raise"`` (default)
    re-raises the first original exception after the survivors have
    checkpointed; ``"quarantine"`` journals the failure, writes a
    ``.failed.json`` marker beside the checkpoints and completes the
    sweep with a :class:`~repro.runtime.resilience.TaskFailure` as that
    task's value.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    _check_on_failure(on_failure)
    if engine == "auto":
        engine = "process" if len(plan) > 1 else "serial"
    if engine == "serial":
        return run_sweep_serial(
            plan, run_dir=run_dir, max_task_retries=max_task_retries,
            on_failure=on_failure,
        )
    return run_sweep_process(
        plan, workers=workers, run_dir=run_dir,
        max_task_retries=max_task_retries, on_failure=on_failure,
    )


def _check_on_failure(on_failure: str) -> None:
    if on_failure not in ("raise", "quarantine"):
        raise ValueError(f"unknown on_failure policy {on_failure!r}")


def _call_task(task: SweepTask) -> Any:
    return task.fn(**task.kwargs_dict)


def _task_id(task: SweepTask) -> str:
    return task.task_id


def _resolve_failures(
    failures: Dict[str, TaskFailure],
    first_error: Optional[BaseException],
    values: Dict[str, Any],
    store: Optional[RunDirectory],
    on_failure: str,
) -> None:
    """Apply the ``on_failure`` policy to the tasks that exhausted retries.

    Either way the failures are journalled and (when checkpointing)
    marked on disk first — a failed task is never silently dropped.
    """
    if not failures:
        return
    for task_id in sorted(failures):
        failure = failures[task_id]
        journal_failure(failure)
        if store is not None:
            store.store_failure(
                task_id,
                {"error": failure.error, "attempts": failure.attempts},
            )
    if on_failure == "raise":
        assert first_error is not None
        raise first_error
    for task_id in sorted(failures):
        values[task_id] = failures[task_id]


def run_sweep_serial(
    plan: SweepPlan,
    run_dir: Optional[Union[str, Path]] = None,
    max_task_retries: int = 0,
    on_failure: str = "raise",
) -> Dict[str, Any]:
    """The reference: tasks run in plan order, in this process."""
    _check_on_failure(on_failure)
    store = _store(plan, run_dir)
    values: Dict[str, Any] = {}
    pending: List[SweepTask] = []
    for task in plan.tasks:
        hit = False
        value: Any = None
        if store is not None:
            hit, value = store.try_load(task.task_id)
        if hit:
            values[task.task_id] = value
        else:
            pending.append(task)

    def record(task: SweepTask, value: Any) -> None:
        values[task.task_id] = value
        if store is not None:
            store.store(task.task_id, value)

    failures, first_error = serial_with_retries(
        pending, _call_task, _task_id, record, max_retries=max_task_retries
    )
    _resolve_failures(failures, first_error, values, store, on_failure)
    return {task.task_id: values[task.task_id] for task in plan.tasks}


def run_sweep_process(
    plan: SweepPlan,
    workers: Optional[int] = None,
    run_dir: Optional[Union[str, Path]] = None,
    max_task_retries: int = 0,
    on_failure: str = "raise",
) -> Dict[str, Any]:
    """Fan the plan out over a process pool; resumes from ``run_dir``."""
    _check_on_failure(on_failure)
    store = _store(plan, run_dir)
    values: Dict[str, Any] = {}
    pending: List[SweepTask] = []
    for task in plan.tasks:
        hit = False
        value: Any = None
        if store is not None:
            hit, value = store.try_load(task.task_id)
        if hit:
            values[task.task_id] = value
        else:
            pending.append(task)
    if pending:
        snapshots: Dict[str, perf.PerfSnapshot] = {}

        def record(task: SweepTask, outcome: SweepOutcome) -> None:
            values[outcome.task_id] = outcome.value
            snapshots[outcome.task_id] = outcome.perf
            if store is not None:
                store.store(outcome.task_id, outcome.value)

        failures, first_error = run_pool_with_retries(
            pending,
            run_sweep_call,
            _task_id,
            record,
            workers=workers,
            max_retries=max_task_retries,
        )
        _resolve_failures(failures, first_error, values, store, on_failure)
        # Merge worker perf in plan order, so the parent registry's
        # contents do not depend on completion order.  Quarantined tasks
        # have no snapshot to merge.
        for task in pending:
            if task.task_id in snapshots:
                perf.merge(snapshots[task.task_id])
    return {task.task_id: values[task.task_id] for task in plan.tasks}


def _store(
    plan: SweepPlan, run_dir: Optional[Union[str, Path]]
) -> Optional[RunDirectory]:
    if run_dir is None:
        return None
    return RunDirectory(run_dir, kind="sweep", fingerprint=plan.fingerprint())


# --------------------------------------------------------------- task fns
#
# Stock task bodies for the ablation/figure planners.  They must stay
# module-level (picklable by reference) and rebuild everything they need
# from their arguments — the worker starts with cleared caches.


def balance_task(
    config: Any,
    strategy: str,
    training: Any = None,
    replay: Any = None,
    online_only: bool = False,
) -> float:
    """Mean daytime balance of one replay variant.

    ``strategy`` is ``"llf"`` or ``"s3"``; ``training`` overrides the
    S³ training config (forcing a retrain), ``replay`` overrides the
    replay config, and ``online_only`` wraps the S³ selector in the
    ablations' no-batching strategy.
    """
    from repro.experiments.evaluation import mean_daytime_balance
    from repro.experiments.workload import build_workload, trained_model
    from repro.wlan.strategies import LeastLoadedFirst, S3Strategy, SelectionStrategy

    workload = build_workload(config)
    selected: SelectionStrategy
    if strategy == "llf":
        selected = LeastLoadedFirst()
    elif strategy == "s3":
        model = trained_model(config, training)
        if online_only:
            from repro.experiments.ablations import OnlineOnlyS3

            selected = OnlineOnlyS3(model.selector())
        else:
            selected = S3Strategy(model.selector())
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return mean_daytime_balance(workload.replay_test(selected, replay))


def experiment_task(name: str, preset: str) -> str:
    """Run one registered experiment and return its rendered report."""
    from repro.experiments.__main__ import EXPERIMENTS, PRESETS

    result = EXPERIMENTS[name].run(PRESETS[preset])
    return str(result.render())
