"""Worker-process entry points and lifecycle.

Everything in this module is module-level and picklable by reference, so
it works under any :mod:`multiprocessing` start method (fork or spawn).

Lifecycle contract:

* :func:`init_worker` runs once per pool process.  It clears the
  :mod:`repro.experiments.workload` caches (the module's fork-safety
  contract: workers rebuild, never inherit), resets the perf registry
  and resets + disables the obs tracer and the metrics registry, so
  nothing recorded in the parent before the fork leaks into a worker's
  output.
* :func:`run_sweep_call` resets the worker's perf registry, runs its
  task and ships the value with a :class:`~repro.perf.PerfSnapshot`
  back to the parent, which merges it.  Per-task reset means a pool
  process serving many tasks never double-counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro import perf
from repro.obs import metrics as obs_metrics
from repro.obs.tracer import get_tracer
from repro.perf import PerfSnapshot


def init_worker() -> None:
    """Pool initializer: a worker rebuilds, never inherits."""
    # Imported here: the experiments package imports this one (its
    # sweep planners), so a top-level import would be a cycle.  The
    # clear is the workload module's fork-safety contract.
    from repro.experiments.workload import clear_caches

    clear_caches()
    perf.reset()
    tracer = get_tracer()
    tracer.reset()
    tracer.enabled = False
    registry = obs_metrics.get_metrics()
    registry.reset()
    registry.enabled = False


@dataclass(frozen=True)
class SweepCall:
    """One sweep task: a module-level function plus keyword arguments."""

    task_id: str
    fn: Callable[..., Any]
    kwargs: Tuple[Tuple[str, Any], ...]

    @property
    def kwargs_dict(self) -> Dict[str, Any]:
        """The kwargs as a dict (stored as a tuple to stay hashable)."""
        return dict(self.kwargs)


@dataclass
class SweepOutcome:
    """One sweep task's value plus the worker's perf snapshot."""

    task_id: str
    value: Any
    perf: PerfSnapshot


def run_sweep_call(call: SweepCall) -> SweepOutcome:
    """Execute one sweep task in this process and package the outcome."""
    perf.reset()
    value = call.fn(**call.kwargs_dict)
    return SweepOutcome(task_id=call.task_id, value=value, perf=perf.snapshot())
