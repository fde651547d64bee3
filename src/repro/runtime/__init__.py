"""Multiprocess execution for experiment sweeps.

An ablation or figure sweep decomposes into independent tasks, one per
parameter point.  This package executes such a task graph serially or
across a :mod:`concurrent.futures` process pool with the same values
either way:

* :func:`run_sweep` executes a :class:`SweepPlan` under
  ``engine="serial"|"process"|"auto"``, merging each worker's perf
  snapshot into the parent in plan order;
* failing tasks are retried on a fresh pool and, past their budget,
  re-raised or quarantined (:mod:`repro.runtime.resilience`);
* :class:`RunDirectory` checkpoints completed tasks so an interrupted
  sweep resumes with only the unfinished ones.

Replays run in one process through
:meth:`repro.wlan.replay.ReplayEngine.run`; a sweep task may run one.
See ``docs/runtime.md`` for the contract.
"""

from repro.runtime.checkpoint import RunDirectory
from repro.runtime.options import RuntimeOptions
from repro.runtime.resilience import TaskFailure, shutdown_pools
from repro.runtime.sweep import (
    SweepPlan,
    SweepTask,
    run_sweep,
    run_sweep_process,
    run_sweep_serial,
)

__all__ = [
    "RunDirectory",
    "RuntimeOptions",
    "SweepPlan",
    "SweepTask",
    "TaskFailure",
    "run_sweep",
    "run_sweep_process",
    "run_sweep_serial",
    "shutdown_pools",
]
