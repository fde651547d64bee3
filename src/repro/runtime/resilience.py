"""Bounded retry and quarantine for pool-executed task graphs.

The failure policy of the sweep executor (:mod:`repro.runtime.sweep`),
the same in its serial and process engines:

* a task that raises — or whose worker process dies outright, surfacing
  as ``BrokenProcessPool`` for everything in flight — is retried up to
  ``max_retries`` times on a **fresh** pool (a broken executor cannot be
  reused);
* a task that exhausts its retries becomes a :class:`TaskFailure`: the
  caller decides whether to re-raise the first original exception
  (``on_failure="raise"``, the default everywhere) or to quarantine the
  failure — journal it as a ``worker-failure`` fault record, persist a
  ``*.failed.json`` marker next to the checkpoints, and let the rest of
  the run complete.

Nothing here is silent: every failed attempt logs a warning, and a
quarantined task is visible in the run journal, the run directory and
the returned values.

Pool reuse: starting a :class:`ProcessPoolExecutor` costs tens of
milliseconds to seconds (workers are spawned from clean interpreters,
see :func:`_acquire_pool`) — enough to dominate a sweep of short tasks.
A round that
completes **fully clean** (every task succeeded, no exception escaped)
returns its pool to a per-size cache for the next call to reuse; any
failure discards the pool, preserving the fresh-pool-per-retry-round
semantics the recovery path depends on (a broken executor cannot be
reused, and a retried task must not see state a crashed sibling left in
a worker).  :func:`shutdown_pools` drains the cache — it runs at
interpreter exit, and tests call it for isolation (a cached pool's
workers were started under an earlier test's environment).
"""

from __future__ import annotations

import atexit
import logging
import multiprocessing
import os
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.obs import metrics as obs_metrics
from repro.obs.records import FaultRecord
from repro.obs.tracer import get_tracer
from repro.runtime.workers import init_worker

_LOG = logging.getLogger(__name__)

#: Idle, known-clean pools keyed by worker count.
_POOL_CACHE: Dict[int, ProcessPoolExecutor] = {}


def _acquire_pool(size: int) -> ProcessPoolExecutor:
    """A cached pool of ``size`` workers, or a fresh one.

    Workers are *spawned*, not forked, on every platform.  A forked
    worker inherits the parent's full heap image copy-on-write: its
    first write to any inherited page takes a COW fault, and every
    cyclic-GC pass walks the parent's objects — measurably slowing a
    replay inside the task (~5% on a 4,027-demand campus) on top of the
    fork-inheritance hazards ``init_worker`` exists to defuse.  A
    spawned worker starts from a clean interpreter: its heap holds only
    what the task unpickles.  The higher start-up cost (a fresh
    interpreter imports :mod:`repro`) is paid once per pool and
    amortized by the pool cache.
    """
    pool = _POOL_CACHE.pop(size, None)
    if pool is not None:
        return pool
    return ProcessPoolExecutor(
        max_workers=size,
        mp_context=multiprocessing.get_context("spawn"),
        initializer=init_worker,
    )


def _release_pool(size: int, pool: ProcessPoolExecutor) -> None:
    """Cache one clean pool for reuse (or shut it down if the slot is full)."""
    if size in _POOL_CACHE:
        pool.shutdown(wait=True)
    else:
        _POOL_CACHE[size] = pool


def shutdown_pools() -> None:
    """Shut down every cached worker pool (idempotent)."""
    while _POOL_CACHE:
        _, pool = _POOL_CACHE.popitem()
        pool.shutdown(wait=True)


atexit.register(shutdown_pools)


def resolve_workers(workers: Optional[int], pending: int) -> int:
    """The pool size: requested (or CPU count), never above the work."""
    limit = workers if workers is not None else os.cpu_count() or 1
    return max(1, min(limit, pending))


TaskT = TypeVar("TaskT")
OutcomeT = TypeVar("OutcomeT")


@dataclass(frozen=True)
class TaskFailure:
    """A task that exhausted its retries.

    ``error`` is ``"ExcType: message"`` of the *last* attempt;
    ``attempts`` counts every execution (first try included).
    """

    task_id: str
    error: str
    attempts: int


def failure_fault_record(failure: TaskFailure) -> FaultRecord:
    """The journal record of one quarantined task.

    ``sim_time`` is ``None``: a worker failure is a wall-clock event of
    the host, not of the simulated campus.
    """
    return FaultRecord(
        sim_time=None,
        kind="worker-failure",
        target=failure.task_id,
        controller_id=None,
        detail={"attempts": failure.attempts, "error": failure.error},
    )


def journal_failure(failure: TaskFailure) -> None:
    """Log and (when tracing) journal one quarantined task."""
    _LOG.warning(
        "task %s failed %d attempt(s), quarantined: %s",
        failure.task_id,
        failure.attempts,
        failure.error,
    )
    tracer = get_tracer()
    if tracer.enabled:
        tracer.fault(failure_fault_record(failure))


def run_pool_with_retries(
    tasks: Sequence[TaskT],
    runner: Callable[[TaskT], OutcomeT],
    task_id_of: Callable[[TaskT], str],
    on_result: Callable[[TaskT, OutcomeT], None],
    workers: Optional[int] = None,
    max_retries: int = 0,
) -> Tuple[Dict[str, TaskFailure], Optional[BaseException]]:
    """Execute ``tasks`` on process pools with bounded per-task retries.

    ``on_result`` is invoked in the parent, in completion order, for each
    success (the caller checkpoints and merges there).  Returns the
    tasks that exhausted their retries, keyed by id, plus the *first*
    exception observed — callers running ``on_failure="raise"`` re-raise
    exactly that object, preserving the original type and message.

    Every task is its own future, so a task's failure, soft (it raised)
    or hard (its worker died), reaches the parent through that future.
    Each retry round gets a fresh :class:`ProcessPoolExecutor`: a worker
    killed hard (``os._exit``, OOM, SIGKILL) breaks the pool for every
    in-flight future, so survivors of the round are retried on a new one.
    """
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    pending: List[TaskT] = list(tasks)
    attempts: Dict[str, int] = {}
    failures: Dict[str, TaskFailure] = {}
    first_error: Optional[BaseException] = None
    while pending:
        # Host-scoped backpressure gauge: how deep the queue was when
        # each round opened (retry rounds overwrite within the window).
        obs_metrics.set_gauge("runtime.pool_pending", float(len(pending)))
        pool_size = resolve_workers(workers, len(pending))
        retry: List[TaskT] = []
        pool = _acquire_pool(pool_size)
        round_clean = True
        try:
            futures: Dict[Future[OutcomeT], TaskT] = {
                pool.submit(runner, task): task for task in pending
            }
            for future in as_completed(futures):
                task = futures[future]
                try:
                    outcome = future.result()
                except Exception as exc:
                    round_clean = False
                    if first_error is None:
                        first_error = exc
                    task_id = task_id_of(task)
                    count = attempts.get(task_id, 0) + 1
                    attempts[task_id] = count
                    error = f"{type(exc).__name__}: {exc}"
                    if count <= max_retries:
                        _LOG.warning(
                            "task %s failed attempt %d/%d, retrying: %s",
                            task_id,
                            count,
                            max_retries + 1,
                            error,
                        )
                        obs_metrics.inc("runtime.task_retries")
                        retry.append(task)
                    else:
                        failures[task_id] = TaskFailure(
                            task_id=task_id, error=error, attempts=count
                        )
                else:
                    on_result(task, outcome)
        except BaseException:
            round_clean = False
            raise
        finally:
            if round_clean:
                _release_pool(pool_size, pool)
            else:
                # A failed round's pool may be broken, and even a merely
                # task-failed one could carry poisoned worker state —
                # discard without waiting, the next round starts fresh.
                pool.shutdown(wait=False, cancel_futures=True)
        pending = retry
    return failures, first_error


def serial_with_retries(
    tasks: Sequence[TaskT],
    runner: Callable[[TaskT], Any],
    task_id_of: Callable[[TaskT], str],
    on_result: Callable[[TaskT, Any], None],
    max_retries: int = 0,
) -> Tuple[Dict[str, TaskFailure], Optional[BaseException]]:
    """The in-process mirror of :func:`run_pool_with_retries`.

    Same retry accounting and return shape, so the serial and process
    sweep engines expose identical failure semantics.
    """
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    failures: Dict[str, TaskFailure] = {}
    first_error: Optional[BaseException] = None
    for task in tasks:
        task_id = task_id_of(task)
        for attempt in range(1, max_retries + 2):
            try:
                outcome = runner(task)
            except Exception as exc:
                if first_error is None:
                    first_error = exc
                error = f"{type(exc).__name__}: {exc}"
                if attempt <= max_retries:
                    _LOG.warning(
                        "task %s failed attempt %d/%d, retrying: %s",
                        task_id,
                        attempt,
                        max_retries + 1,
                        error,
                    )
                    obs_metrics.inc("runtime.task_retries")
                    continue
                failures[task_id] = TaskFailure(
                    task_id=task_id, error=error, attempts=attempt
                )
                break
            on_result(task, outcome)
            break
    return failures, first_error
