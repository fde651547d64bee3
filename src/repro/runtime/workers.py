"""Worker-process entry points and lifecycle.

Everything in this module is module-level and picklable by reference, so
it works under any :mod:`multiprocessing` start method (fork or spawn).

Lifecycle contract:

* :func:`init_worker` runs once per pool process.  It clears the
  :mod:`repro.experiments.workload` caches (the module's fork-safety
  contract: workers rebuild, never inherit), resets the perf registry
  and resets + disables the obs tracer, so nothing recorded in the
  parent before the fork leaks into a worker's output.
* Each task function resets the worker's perf registry, does its work,
  and ships a :class:`~repro.perf.PerfSnapshot` (plus, for replay
  shards, the tracer's record fragment) back to the parent, which merges
  them.  Per-task reset means a pool process serving many tasks never
  double-counts.

Transport contract: a :class:`ShardTask` carries its worker group's
demand rows by value, as a :class:`~repro.trace.columnar.DemandArrays`
(flat numpy columns plus small id tables, one pickle of a few hundred
kB at PAPER scale).  Results travel back as :class:`SessionColumns` —
the same shape — instead of per-object pickled
:class:`~repro.trace.records.SessionRecord` lists.

RNG contract: a worker never draws from a root-seeded
:class:`~repro.sim.rng.RandomStreams` directly — per-shard streams are
derived via ``child(shard_stream_name(controller_id))`` inside the
replay engine, which is what makes worker draws bit-identical to the
serial engine's (the ``rng-stream-registry`` lint rule rejects any
stream this package draws itself: no stream name is registered to it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import perf
from repro.faults.model import FaultPlan
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsSnapshot
from repro.obs.tracer import TracedRecord, get_tracer
from repro.perf import PerfSnapshot
from repro.trace.columnar import DemandArrays
from repro.trace.records import SessionRecord
from repro.trace.social import CampusLayout
from repro.wlan.metrics import ControllerSeries
from repro.wlan.replay import ReplayConfig, ReplayEngine, ReplayWindow
from repro.wlan.strategies import SelectionStrategy


@dataclass(frozen=True)
class ShardTask:
    """One replay shard (or worker group of shards) and its demand rows."""

    shard_id: str
    controller_id: str
    demands: DemandArrays
    layout: CampusLayout
    strategy: SelectionStrategy
    config: ReplayConfig
    window: ReplayWindow
    #: Whether the worker should trace (journal fragments are collected
    #: only when the parent's tracer is enabled).
    trace: bool
    #: Whether the worker should collect windowed metrics, and on what
    #: sim-time window — mirrors the parent registry's settings so the
    #: merged series line up window for window.
    metrics: bool = False
    metrics_window: float = obs_metrics.DEFAULT_WINDOW_SECONDS
    #: All controllers this task replays, in plan order.  The engine
    #: groups one task per pool worker so a worker runs its whole
    #: controller group in a single simulator pass — one periodic grid
    #: for the group instead of one per controller.  Empty means just
    #: ``controller_id`` (single-shard tasks, and older pickles).
    controller_ids: Tuple[str, ...] = ()
    #: The run's fault plan (the worker fires the plan's events on its
    #: own controllers, exactly as the serial engine would).
    fault_plan: Optional[FaultPlan] = None


@dataclass
class SessionColumns:
    """A shard's session output as flat columns — the cheap return pickle.

    Codes index sorted id tables (code order == lexicographic id order,
    like :class:`~repro.trace.columnar.SessionArrays`); the merge layer
    unions tables across shards with array ops instead of unpickling
    thousands of :class:`~repro.trace.records.SessionRecord` objects.
    """

    user_ids: List[str]
    ap_ids: List[str]
    controller_ids: List[str]
    user: np.ndarray
    ap: np.ndarray
    controller: np.ndarray
    connect: np.ndarray
    disconnect: np.ndarray
    bytes_total: np.ndarray

    @classmethod
    def from_records(cls, records: Sequence[SessionRecord]) -> "SessionColumns":
        """Transpose one shard's session list into columns.

        ``np.unique(..., return_inverse=True)`` builds each sorted id
        table and its code column in one C pass — the table is sorted,
        so code order is lexicographic id order, same as the dict-based
        encoding it replaces.
        """
        n = len(records)
        user_table, user = np.unique(
            np.array([r.user_id for r in records], dtype=object),
            return_inverse=True,
        )
        ap_table, ap = np.unique(
            np.array([r.ap_id for r in records], dtype=object),
            return_inverse=True,
        )
        controller_table, controller = np.unique(
            np.array([r.controller_id for r in records], dtype=object),
            return_inverse=True,
        )
        connect = np.fromiter(
            (r.connect for r in records), dtype=np.float64, count=n
        )
        disconnect = np.fromiter(
            (r.disconnect for r in records), dtype=np.float64, count=n
        )
        bytes_total = np.fromiter(
            (r.bytes_total for r in records), dtype=np.float64, count=n
        )
        return cls(
            user_table.tolist(),
            ap_table.tolist(),
            controller_table.tolist(),
            user.astype(np.int64, copy=False),
            ap.astype(np.int64, copy=False),
            controller.astype(np.int64, copy=False),
            connect,
            disconnect,
            bytes_total,
        )

    def to_records(self) -> List[SessionRecord]:
        """Materialize the columns back into records, row order preserved.

        Batch-decodes the columns with ``tolist`` and builds records via
        ``__new__`` plus a direct ``__dict__`` assignment, skipping
        ``__post_init__`` — every row was validated when the worker's
        engine constructed the original record.
        """
        user_ids = self.user_ids
        ap_ids = self.ap_ids
        controller_ids = self.controller_ids
        user = self.user.tolist()
        ap = self.ap.tolist()
        controller = self.controller.tolist()
        connect = self.connect.tolist()
        disconnect = self.disconnect.tolist()
        bytes_total = self.bytes_total.tolist()
        new = SessionRecord.__new__
        out: List[SessionRecord] = []
        append = out.append
        for i in range(len(user)):
            record = new(SessionRecord)
            record.__dict__.update({
                "user_id": user_ids[user[i]],
                "ap_id": ap_ids[ap[i]],
                "controller_id": controller_ids[controller[i]],
                "connect": connect[i],
                "disconnect": disconnect[i],
                "bytes_total": bytes_total[i],
            })
            append(record)
        return out

    def __len__(self) -> int:
        return int(self.user.shape[0])


@dataclass
class ShardOutcome:
    """What one replay shard sends back for the deterministic merge."""

    shard_id: str
    controller_id: str
    #: The shard's sessions in the engine's output order (sorted by
    #: ``(connect, user_id)``), as compact columns.
    sessions: SessionColumns
    #: The shard's own controller series (disjoint across shards).
    series: Dict[str, ControllerSeries]
    events_processed: int
    final_now: float
    sampler_ticks: int
    poller_ticks: int
    #: The worker tracer's records (flush spans, decisions, samples and
    #: the worker's own ``sim.run`` span); empty when not tracing.
    records: List[TracedRecord]
    perf: PerfSnapshot
    #: The worker's windowed-metrics snapshot; empty when metrics were
    #: off.  Merged parent-side exactly like the journal fragments.
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    #: The worker process's own peak RSS as the shard finished.
    peak_rss_bytes: int = 0


def init_worker() -> None:
    """Pool initializer: a worker rebuilds, never inherits."""
    # Imported here so replay-only pools don't pay for the experiments
    # package; the clear is the workload module's fork-safety contract.
    from repro.experiments.workload import clear_caches

    clear_caches()
    perf.reset()
    tracer = get_tracer()
    tracer.reset()
    tracer.enabled = False
    registry = obs_metrics.get_metrics()
    registry.reset()
    registry.enabled = False


def run_replay_shard(task: ShardTask) -> ShardOutcome:
    """Execute one shard in this process and package the outcome."""
    tracer = get_tracer()
    tracer.reset()
    tracer.enabled = task.trace
    perf.reset()
    registry = obs_metrics.get_metrics()
    registry.reset()
    registry.window_seconds = task.metrics_window
    registry.enabled = task.metrics
    engine = ReplayEngine(
        task.layout, task.strategy, task.config, fault_plan=task.fault_plan
    )
    # The worker-side wall clock: the parent's ``replay.run.*`` timer
    # minus the merged ``shard.run`` totals is the transport + pool
    # overhead, directly readable off a perf snapshot.
    with perf.timer("shard.run"):
        run = engine.run_window(
            task.demands,
            task.window,
            controllers=task.controller_ids or (task.controller_id,),
        )
    records = list(tracer.records)
    tracer.reset()
    tracer.enabled = False
    if task.metrics:
        # The shard's wall latency, as a host-scoped histogram anchored
        # at the shard window's start.  Read off the perf timer rather
        # than a clock: the wall-time funnel stays in repro.perf.
        obs_metrics.observe(
            "runtime.task_seconds",
            perf.PERF.total("shard.run"),
            task.window.start,
        )
    metrics_snapshot = registry.snapshot() if task.metrics else MetricsSnapshot()
    registry.reset()
    registry.enabled = False
    return ShardOutcome(
        shard_id=task.shard_id,
        controller_id=task.controller_id,
        sessions=SessionColumns.from_records(run.result.sessions),
        series=dict(run.result.series),
        events_processed=run.result.events_processed,
        final_now=run.final_now,
        sampler_ticks=run.sampler_ticks,
        poller_ticks=run.poller_ticks,
        records=records,
        perf=perf.snapshot(),
        metrics=metrics_snapshot,
        peak_rss_bytes=perf.peak_rss_bytes(),
    )


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
