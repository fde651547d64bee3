"""``repro.service`` — the controller as a long-running asyncio service.

The batch replay engine (:mod:`repro.runtime`) answers "what would S³
have done over this trace"; this package answers the operational
question the paper's controller actually faces: association queries
arriving concurrently, a sociality model that must learn from the same
event stream it serves, and load that can outrun the decision path.

Three layers (see ``docs/service.md``):

* :mod:`repro.service.loop` — a :class:`ControllerService` dispatching
  ``station_join`` / ``station_leave`` / ``stats_report`` events to
  controller apps in deterministic sim-clock order (a sequence-number
  reorder buffer makes the journal independent of producer
  interleaving);
* :mod:`repro.service.admission` — micro-batching of join queries with
  a bounded queue that sheds to the ``s3 -> llf -> rssi`` fallback
  chain under saturation, emitting backpressure metrics;
* :mod:`repro.service.fastpath` — an incremental social-cost index
  that scores every AP in one O(APs + partners) row per arrival, over
  the same :class:`~repro.core.social.SocialModel` the batch selector
  uses, fed by the online delta updates.

Crash safety rides on top (``docs/robustness.md``):
:mod:`repro.service.checkpoint` snapshots the whole service plus the
global observability state; :mod:`repro.service.supervisor` journals a
write-ahead log, kills the controller at planned
:class:`~repro.faults.ControllerCrash` points and restores
exactly-once from snapshot + WAL replay; :mod:`repro.service.soak`
(also a CLI: ``python -m repro.service.soak``) runs seeded
crash/restart cycles and judges recovery from the journals alone.

Same-seed runs journal byte-identically after ``strip_wall`` whether
events arrive from one producer or many — that contract is what makes a
concurrent service auditable with the same tools as a batch replay.
"""

from __future__ import annotations

from repro.service.admission import AdmissionConfig
from repro.service.checkpoint import (
    ServiceCheckpoint,
    capture_checkpoint,
    restore_checkpoint,
)
from repro.service.events import (
    ServiceEvent,
    StationJoin,
    StationLeave,
    StatsReport,
)
from repro.service.fastpath import FastAssociator
from repro.service.loop import (
    BalanceMonitorApp,
    ControllerService,
    JoinTicket,
    ServiceApp,
    run_events,
)
from repro.service.supervisor import Supervisor, run_supervised
from repro.service.workload import (
    WorkloadSpec,
    make_service,
    run_journaled_service,
    synthetic_events,
)

__all__ = [
    "AdmissionConfig",
    "BalanceMonitorApp",
    "ControllerService",
    "FastAssociator",
    "JoinTicket",
    "ServiceApp",
    "ServiceCheckpoint",
    "ServiceEvent",
    "StationJoin",
    "StationLeave",
    "StatsReport",
    "Supervisor",
    "WorkloadSpec",
    "capture_checkpoint",
    "make_service",
    "restore_checkpoint",
    "run_events",
    "run_journaled_service",
    "run_supervised",
    "synthetic_events",
]
