"""The ``engine=`` dispatcher for sharded replays.

:func:`replay` is the drop-in parallel equivalent of
``ReplayEngine(layout, strategy, config).run(demands)``:

* ``engine="serial"`` — exactly that call (:func:`replay_serial`);
* ``engine="process"`` — shard per controller, execute the shards on a
  :class:`~concurrent.futures.ProcessPoolExecutor`, and merge results,
  journal fragments and perf snapshots deterministically
  (:func:`replay_process`);
* ``engine="auto"`` — the process pool when checkpointing or retries
  are asked for (only the pool honours them), or when the strategy is
  ``shard_safe``, more than one shard is busy and the stream holds at
  least :data:`AUTO_PROCESS_MIN_DEMANDS` demands; serial otherwise
  (:func:`resolve_engine`).

The two engines are byte-identical for a fixed seed — the parity tests
registered in :mod:`repro.devtools.parity_registry` assert equal
:class:`~repro.wlan.replay.ReplayResult`\\ s and ``strip_wall``-identical
journals.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro import perf
from repro.faults.model import FaultPlan
from repro.obs import metrics as obs_metrics
from repro.obs.tracer import Span, get_tracer
from repro.runtime.checkpoint import RunDirectory
from repro.runtime.merge import merge_journal_fragments, merge_shard_results
from repro.runtime.resilience import journal_failure, run_pool_with_retries
from repro.runtime.shards import ShardPlan, plan_replay_shards
from repro.runtime.workers import (
    ShardOutcome,
    ShardTask,
    init_worker,  # noqa: F401  (re-exported for pool users/tests)
    run_replay_shard,
)
from repro.trace.columnar import DemandArrays
from repro.trace.records import DemandSession
from repro.trace.social import CampusLayout
from repro.wlan.replay import ReplayConfig, ReplayEngine, ReplayResult
from repro.wlan.strategies import SelectionStrategy

#: ``engine="auto"`` replays on the pool only from this many demands up.
#: Serial / 2-worker process caller wall clock, LLF, median of alternating
#: pairs on a 2-core host (docs/runtime.md): 1.16x at PAPER (2,012
#: demands, 10 pairs) and 1.05x at 3,104 demands (20 pairs), but 1.89x at
#: 4,027 (20 pairs, won 20) and 1.55x at a 4x PAPER campus (7,820, 10
#: pairs, won 10).  The pool clears the 1.3x bar between 3,104 and 4,027.
AUTO_PROCESS_MIN_DEMANDS = 4000


def resolve_engine(
    requested: str,
    *,
    shard_safe: bool,
    n_demands: int,
    busy_shards: int,
    checkpointing: bool = False,
) -> str:
    """The concrete engine (``"serial"`` or ``"process"``) for one replay.

    ``requested`` is the caller's ``engine=``.  ``checkpointing`` is
    whether a ``run_dir`` or task retries were asked for: only the
    process engine honours them, so an explicit ``"serial"`` refuses
    them and ``"auto"`` picks the pool.
    """
    if requested not in ("auto", "serial", "process"):
        raise ValueError(f"unknown engine {requested!r}")
    if requested == "serial":
        if checkpointing:
            raise ValueError(
                "engine='serial' cannot checkpoint or retry; drop run_dir "
                "and max_task_retries, or use engine='process'"
            )
        return "serial"
    if requested == "process" or checkpointing:
        return "process"
    if (
        shard_safe
        and n_demands >= AUTO_PROCESS_MIN_DEMANDS
        and busy_shards > 1
    ):
        return "process"
    return "serial"


def replay(
    layout: CampusLayout,
    strategy: SelectionStrategy,
    demands: Sequence[DemandSession],
    config: Optional[ReplayConfig] = None,
    *,
    engine: str = "auto",
    workers: Optional[int] = None,
    run_dir: Optional[Union[str, Path]] = None,
    fault_plan: Optional[FaultPlan] = None,
    max_task_retries: int = 0,
) -> ReplayResult:
    """Replay ``demands`` under ``strategy``; see the module docstring."""
    config = config if config is not None else ReplayConfig()
    engine = engine_for_replay(
        layout, strategy, demands, config, engine,
        run_dir=run_dir, max_task_retries=max_task_retries,
    )
    if engine == "process" and not strategy.shard_safe:
        raise ValueError(
            f"strategy {strategy.name!r} is not shard-safe (it carries "
            "mutable cross-controller state); use engine='serial'"
        )
    if engine == "serial":
        return replay_serial(layout, strategy, demands, config, fault_plan=fault_plan)
    return replay_process(
        layout, strategy, demands, config, workers=workers, run_dir=run_dir,
        fault_plan=fault_plan, max_task_retries=max_task_retries,
    )


def engine_for_replay(
    layout: CampusLayout,
    strategy: SelectionStrategy,
    demands: Sequence[DemandSession],
    config: ReplayConfig,
    requested: str = "auto",
    *,
    run_dir: Optional[Union[str, Path]] = None,
    max_task_retries: int = 0,
) -> str:
    """The engine :func:`replay` runs for these arguments."""
    busy_shards = 0
    if requested == "auto" and strategy.shard_safe and demands:
        busy_shards = plan_replay_shards(layout, demands, config).busy_shards
    return resolve_engine(
        requested,
        shard_safe=strategy.shard_safe,
        n_demands=len(demands),
        busy_shards=busy_shards,
        checkpointing=run_dir is not None or max_task_retries > 0,
    )


def replay_serial(
    layout: CampusLayout,
    strategy: SelectionStrategy,
    demands: Sequence[DemandSession],
    config: Optional[ReplayConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> ReplayResult:
    """The single-process reference: ``ReplayEngine.run`` verbatim."""
    return ReplayEngine(layout, strategy, config, fault_plan=fault_plan).run(
        demands
    )


def replay_process(
    layout: CampusLayout,
    strategy: SelectionStrategy,
    demands: Sequence[DemandSession],
    config: Optional[ReplayConfig] = None,
    workers: Optional[int] = None,
    run_dir: Optional[Union[str, Path]] = None,
    fault_plan: Optional[FaultPlan] = None,
    max_task_retries: int = 0,
) -> ReplayResult:
    """Sharded replay across a process pool, deterministically merged."""
    config = config if config is not None else ReplayConfig()
    if not strategy.shard_safe:
        raise ValueError(
            f"strategy {strategy.name!r} is not shard-safe; the process "
            "engine would change its decisions"
        )
    if not demands:
        # Nothing to shard; keep the serial engine's empty-result shape.
        return replay_serial(layout, strategy, demands, config, fault_plan=fault_plan)
    plan = plan_replay_shards(layout, demands, config)
    tracer = get_tracer()
    metrics_registry = obs_metrics.get_metrics()
    with perf.timer(f"replay.run.{strategy.name}"):
        with tracer.span(
            "replay.run",
            strategy=strategy.name,
            demands=len(demands),
        ) as span:
            span.sim_start = plan.window.start
            ordered, ranges = plan.demand_layout()
            arrays = DemandArrays.from_demands(ordered)
            # One task per pool worker, not per controller: a worker
            # replays its whole (contiguous) shard group in a single
            # simulator pass, so the periodic sampler and poller grids
            # — which every per-controller shard would otherwise
            # duplicate — run once per worker.
            groups = plan.worker_groups(
                resolve_workers(workers, len(plan.shards))
            )
            tasks = [
                ShardTask(
                    shard_id="+".join(s.shard_id for s in group),
                    controller_id=group[0].controller_id,
                    controller_ids=tuple(s.controller_id for s in group),
                    demands=arrays.slice_rows(
                        slice(
                            ranges[group[0].shard_id][0],
                            ranges[group[-1].shard_id][1],
                        )
                    ).copy(),
                    layout=layout,
                    strategy=strategy,
                    config=config,
                    window=plan.window,
                    trace=tracer.enabled,
                    metrics=metrics_registry.enabled,
                    metrics_window=metrics_registry.window_seconds,
                    fault_plan=fault_plan,
                )
                for group in groups
            ]
            outcomes = _execute_shards(
                plan, tasks, workers, run_dir, max_task_retries
            )
            for outcome in outcomes:
                perf.merge(outcome.perf)
                if metrics_registry.enabled and outcome.metrics:
                    # Same contract as the journal fragments: the merged
                    # run-scoped series are byte-identical to a serial
                    # run's (order-independent fold, disjoint shards).
                    metrics_registry.merge(outcome.metrics)
            result = merge_shard_results(plan, outcomes, strategy.name)
            final_now = {outcome.final_now for outcome in outcomes}
            if len(final_now) != 1:
                raise ValueError(
                    f"shards ended at different clocks {sorted(final_now)}"
                )
            sim_end = next(iter(final_now))
            if tracer.enabled and isinstance(span, Span):
                tracer.inject(
                    merge_journal_fragments(
                        [outcome.records for outcome in outcomes],
                        base_id=span.span_id,
                        base_depth=span.depth,
                        sim_start=plan.window.start,
                        sim_end=sim_end,
                        events=result.events_processed,
                    )
                )
            span.sim_end = sim_end
            span.set(
                sessions=len(result.sessions),
                events=result.events_processed,
            )
    perf.count("replay.events", result.events_processed)
    perf.count("replay.sessions", len(result.sessions))
    return result


def resolve_workers(workers: Optional[int], pending: int) -> int:
    """The pool size: requested (or CPU count), never above the work."""
    limit = workers if workers is not None else os.cpu_count() or 1
    return max(1, min(limit, pending))


def _execute_shards(
    plan: ShardPlan,
    tasks: List[ShardTask],
    workers: Optional[int],
    run_dir: Optional[Union[str, Path]],
    max_task_retries: int = 0,
) -> List[ShardOutcome]:
    """Run (or reload) every shard; returns outcomes in plan order.

    A shard whose worker raises — or dies outright, breaking the pool —
    is retried up to ``max_task_retries`` times on a fresh pool.  A merge
    needs *every* shard, so a shard that exhausts its retries is fatal:
    it is journalled and marked ``.failed.json`` in the run directory
    (never silently dropped), the finished shards stay checkpointed, and
    the first original exception re-raises for the resume to handle.
    """
    store = (
        RunDirectory(run_dir, kind="replay", fingerprint=_fingerprint(plan, tasks))
        if run_dir is not None
        else None
    )
    outcomes: Dict[str, ShardOutcome] = {}
    pending: List[ShardTask] = []
    for task in tasks:
        hit = False
        value: Optional[ShardOutcome] = None
        if store is not None:
            hit, value = store.try_load(task.shard_id)
        if hit and value is not None:
            outcomes[task.shard_id] = value
        else:
            pending.append(task)
    if pending:

        def record(task: ShardTask, outcome: ShardOutcome) -> None:
            outcomes[task.shard_id] = outcome
            if store is not None:
                store.store(task.shard_id, outcome)

        failures, first_error = run_pool_with_retries(
            pending,
            run_replay_shard,
            lambda task: task.shard_id,
            record,
            workers=workers,
            max_retries=max_task_retries,
        )
        if failures:
            for task_id in sorted(failures):
                failure = failures[task_id]
                journal_failure(failure)
                if store is not None:
                    store.store_failure(
                        task_id,
                        {"error": failure.error, "attempts": failure.attempts},
                    )
            assert first_error is not None
            raise first_error
    return [outcomes[task.shard_id] for task in tasks]


def _fingerprint(plan: ShardPlan, tasks: List[ShardTask]) -> str:
    """Checkpoint fingerprint: plan shape, strategy/config/trace, faults.

    The ``transport=`` tag versions the task and :class:`ShardOutcome`
    pickle shapes: ``value-v2`` tasks carry their demand rows by value,
    and a run directory checkpointed under an earlier tag fails the
    fingerprint guard loudly instead of half-resuming.  The ``groups=``
    tag pins the worker-group shape: checkpoints are keyed by group id,
    so a directory written at one worker count refuses to half-resume
    at another instead of silently recomputing under different keys.
    """
    first = tasks[0]
    faults = (
        "none" if first.fault_plan is None else first.fault_plan.fingerprint()
    )
    groups = ",".join(task.shard_id for task in tasks)
    return (
        f"{plan.fingerprint()}|{first.strategy.name}|{first.config!r}"
        f"|trace={first.trace}|metrics={first.metrics}"
        f"|faults={faults}|transport=value-v2"
        f"|groups={groups}"
    )
