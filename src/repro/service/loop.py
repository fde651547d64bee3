"""The controller event loop: deterministic dispatch over a live stream.

:class:`ControllerService` is the hub.  Producers (asyncio tasks, the
CLI, a benchmark's open loop) call :meth:`ControllerService.submit`
with :mod:`repro.service.events` values; the service holds a
**sequence-number reorder buffer** and processes events strictly by
``seq``.  That one rule is the whole determinism story: no matter how
many producers race, the admission queue, the online learner and the
journal all see the identical total order, so same-seed runs stay
byte-identical after ``strip_wall``.

Dispatch per event:

``station_join``
    Offered to the :class:`~repro.service.admission.AdmissionQueue`
    (micro-batched or shed); the returned :class:`JoinTicket` resolves
    with the chosen AP id when the decision commits.
``station_leave``
    Any pending join for the same user is flushed first (a decision
    must exist before its departure), then the fast path releases the
    association and the online learner extracts encounter / co-leaving
    events from it.
``stats_report``
    Feeds the demand EWMA the feasibility check reads.

Controller **apps** (:class:`ServiceApp`) ride the same dispatch —
:class:`BalanceMonitorApp` samples the balance index on a sim-time
grid, journaling the same :class:`~repro.obs.records.SampleRecord`
lines the batch replay engine emits.
"""

from __future__ import annotations

import asyncio
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.balance import normalized_balance_index
from repro.core.online import OnlineLearner
from repro.obs import metrics as obs_metrics
from repro.obs.records import FaultRecord, SampleRecord
from repro.obs.tracer import TRACER
from repro.service.admission import AdmissionConfig, AdmissionQueue
from repro.service.events import (
    ServiceEvent,
    StationJoin,
    StationLeave,
    StatsReport,
)
from repro.service.fastpath import FastAssociator

_INF = math.inf
_NEG_INF = -math.inf


class JoinTicket:
    """The service's answer slot for one join query.

    Producers that just drive the stream can ignore it; a caller that
    needs the decision awaits :meth:`wait`.  The asyncio event is
    created lazily so the synchronous fast path (benchmarks, serial
    tests) never touches the event loop machinery.
    """

    __slots__ = ("ap_id", "done", "_event")

    def __init__(self) -> None:
        self.ap_id: Optional[str] = None
        self.done = False
        self._event: Optional[asyncio.Event] = None

    def resolve(self, ap_id: str) -> None:
        """Commit the decision; wakes any waiter."""
        self.ap_id = ap_id
        self.done = True
        if self._event is not None:
            self._event.set()

    async def wait(self) -> str:
        """Block until the decision commits; returns the chosen AP id."""
        if not self.done:
            if self._event is None:
                self._event = asyncio.Event()
            await self._event.wait()
        assert self.ap_id is not None
        return self.ap_id


class ServiceApp:
    """Base controller app: override the hooks you care about."""

    def on_join(self, event: StationJoin, ap_id: str) -> None:
        """A join decision committed (possibly after batching delay)."""

    def on_leave(self, event: StationLeave, ap_id: Optional[str]) -> None:
        """A station left ``ap_id`` (``None`` if it was never admitted)."""

    def on_stats(self, event: StatsReport) -> None:
        """A rate report was folded into the demand estimator."""


class BalanceMonitorApp(ServiceApp):
    """Samples the balance index on a sim-time grid into the tracer.

    Emits the same :class:`~repro.obs.records.SampleRecord` vocabulary
    as the batch replay engine's sampler, so journal tooling reads
    service runs unchanged.  Sampling is driven by event times (the
    service has no wall-clock timers), so it is a pure function of the
    stream.
    """

    def __init__(self, interval: float = 60.0) -> None:
        if not 0 < interval < _INF:
            raise ValueError("interval must be positive and finite")
        self.interval = interval
        self.samples_taken = 0
        self._service: Optional["ControllerService"] = None
        self._next_at: Optional[float] = None

    def attach(self, service: "ControllerService") -> None:
        self._service = service

    def detach(self) -> None:
        self._service = None

    def _maybe_sample(self, now: float) -> None:
        if self._service is None:
            return
        if self._next_at is None:
            self._next_at = now + self.interval
            return
        while now >= self._next_at:
            self._sample(self._next_at)
            self._next_at += self.interval

    def _sample(self, sim_time: float) -> None:
        assert self._service is not None
        # A sample nobody journals is only counted: the grid advances
        # identically whether or not the tracer records it.
        if TRACER.enabled:
            associator = self._service.associator
            loads = associator.loads()
            TRACER.sample(
                SampleRecord(
                    sim_time=sim_time,
                    controller_id=self._service.controller_id,
                    balance=normalized_balance_index(loads),
                    total_load=sum(loads),
                    users=associator.total_users(),
                )
            )
        self.samples_taken += 1

    # Most events fall between two grid points: the hooks skip the
    # sampling call for them.
    def on_join(self, event: StationJoin, ap_id: str) -> None:
        if self._next_at is None or event.time >= self._next_at:
            self._maybe_sample(event.time)

    def on_leave(self, event: StationLeave, ap_id: Optional[str]) -> None:
        if self._next_at is None or event.time >= self._next_at:
            self._maybe_sample(event.time)

    def on_stats(self, event: StatsReport) -> None:
        if self._next_at is None or event.time >= self._next_at:
            self._maybe_sample(event.time)


class ControllerService:
    """The event hub: reorder buffer, dispatch, app fan-out.

    ``submit`` is synchronous and re-entrant-free by construction — the
    asyncio producers of :func:`run_events` interleave *between*
    submits, never inside one, so no locks are needed and the processed
    order is exactly the ``seq`` order.
    """

    def __init__(
        self,
        associator: FastAssociator,
        admission: Optional[AdmissionConfig] = None,
        apps: Sequence[ServiceApp] = (),
        learner: Optional[OnlineLearner] = None,
        controller_id: str = "svc",
        gap_horizon: Optional[float] = None,
    ) -> None:
        if gap_horizon is not None and gap_horizon <= 0:
            raise ValueError(f"gap_horizon must be positive: {gap_horizon}")
        self.associator = associator
        self.learner = learner
        self.controller_id = controller_id
        #: Sim seconds a reorder-buffer gap may age before it is declared
        #: permanent and skipped (``None`` = strict mode: gaps and
        #: duplicates raise).  Tolerant mode assumes serial delivery —
        #: the supervisor's side of the wire — where a surviving gap can
        #: only mean the event is gone for good.
        self.gap_horizon = gap_horizon
        self.apps: List[ServiceApp] = list(apps)
        self.admission = AdmissionQueue(
            associator,
            admission,
            controller_id=controller_id,
            on_commit=self._committed,
        )
        for app in self.apps:
            attach = getattr(app, "attach", None)
            if callable(attach):
                attach(self)
        #: seq -> (event, ticket) parked until the gap before them fills.
        self._parked: Dict[int, Tuple[ServiceEvent, Optional[JoinTicket]]] = {}
        self._next_seq = 0
        self._last_time = float("-inf")
        #: Largest event time *submitted* (processed or parked) — the
        #: clock gap aging is measured against.
        self._horizon_clock = float("-inf")
        self.events_processed = 0
        #: Seqs skipped over at the gap horizon (tolerant mode only).
        self.gap_skips = 0
        #: Late or duplicate submissions discarded (tolerant mode only).
        self.dropped_events = 0

    def detach(self) -> None:
        """Unhook the admission queue's commit hook and every app.

        The hook is a bound method of this service and an attached app
        points back at it, so a discarded service is cyclic garbage
        until the next full collection.  A supervisor replacing a
        crashed controller detaches it, and reference counting frees it
        at once.  A detached service must not process further events.
        """
        self.admission.on_commit = None
        for app in self.apps:
            detach = getattr(app, "detach", None)
            if callable(detach):
                detach()

    # -------------------------------------------------------------- intake

    def submit(self, event: ServiceEvent) -> Optional[JoinTicket]:
        """Accept one event; processes the contiguous ``seq`` prefix.

        Returns a :class:`JoinTicket` for joins (resolved once the
        admission layer commits the decision), ``None`` otherwise.
        Events may arrive in any order; an event is *processed* only
        when every lower ``seq`` has been.  In strict mode (no
        ``gap_horizon``) a duplicate or already-passed ``seq`` raises;
        in tolerant mode it is counted and discarded — a skipped seq
        arriving late must not corrupt the already-advanced stream.
        """
        seq = event.seq
        ticket = None
        if seq == self._next_seq and not self._parked:
            # In order with nothing parked: the buffer would hand the
            # event straight back, so process it without the round trip.
            if isinstance(event, StationJoin):
                ticket = JoinTicket()
            if event.time > self._horizon_clock:
                self._horizon_clock = event.time
            self._next_seq = seq + 1
            self._process(event, ticket)
            return ticket
        if seq < self._next_seq or seq in self._parked:
            if self.gap_horizon is None:
                raise ValueError(f"duplicate event seq {seq}")
            self.dropped_events += 1
            return None
        if isinstance(event, StationJoin):
            ticket = JoinTicket()
        self._parked[seq] = (event, ticket)
        if event.time > self._horizon_clock:
            self._horizon_clock = event.time
        self._drain_ready()
        if self.gap_horizon is not None and self._parked:
            self._maybe_skip_gap()
        return ticket

    def _drain_ready(self) -> None:
        """Process the contiguous seq prefix now present in the buffer."""
        while self._next_seq in self._parked:
            parked_event, parked_ticket = self._parked.pop(self._next_seq)
            self._next_seq += 1
            self._process(parked_event, parked_ticket)

    def _maybe_skip_gap(self) -> None:
        """Skip gaps whose oldest parked successor has aged past the horizon.

        A producer that died mid-send leaves a seq that will never
        arrive; without this, dispatch wedges forever behind it.  The
        trigger is pure sim time — how far the submitted stream has
        advanced past the oldest *parked* event — so a given event
        stream always skips at the same point.
        """
        assert self.gap_horizon is not None
        while self._parked and self._next_seq not in self._parked:
            frontier = min(self._parked)
            oldest = self._parked[frontier][0]
            if self._horizon_clock - oldest.time < self.gap_horizon:
                return
            self._skip_to(frontier)
            self._drain_ready()

    def _skip_to(self, frontier: int) -> None:
        """Declare seqs ``[_next_seq, frontier)`` permanently missing."""
        skipped = frontier - self._next_seq
        TRACER.fault(
            FaultRecord(
                sim_time=self._horizon_clock,
                kind="gap-skip",
                target=f"seq:{self._next_seq}-{frontier - 1}",
                controller_id=self.controller_id,
                detail={"skipped": skipped},
            )
        )
        obs_metrics.inc("service.gap_skips", float(skipped), self._horizon_clock)
        self.gap_skips += skipped
        self._next_seq = frontier

    def drain(self) -> None:
        """End of stream: flush admission; error on sequence gaps.

        In tolerant mode trailing gaps are skipped (journaling the same
        ``gap-skip`` note) instead of raising — the stream ended, so no
        missing seq can arrive anymore.
        """
        if self._parked:
            if self.gap_horizon is None:
                raise ValueError(
                    f"sequence gap at end of stream: expected seq "
                    f"{self._next_seq}, still parked {sorted(self._parked)}"
                )
            while self._parked:
                self._skip_to(min(self._parked))
                self._drain_ready()
        now = self._last_time if self.events_processed else 0.0
        self.admission.drain(now)

    # ------------------------------------------------------------- dispatch

    def _process(
        self, event: ServiceEvent, ticket: Optional[JoinTicket]
    ) -> None:
        now = event.time
        # One comparison chain refuses a NaN, an infinite and a
        # backwards time alike; the message tells them apart.
        if not (_NEG_INF < now < _INF and now >= self._last_time):
            if not math.isfinite(now):
                raise ValueError(
                    f"event seq {event.seq} has a non-finite time ({now})"
                )
            raise ValueError(
                f"event seq {event.seq} moves the sim clock backwards "
                f"({now} < {self._last_time})"
            )
        self._last_time = now
        self.events_processed += 1
        obs_metrics.inc("service.events", 1.0, now)
        self.admission.maybe_flush(now)
        if isinstance(event, StationJoin):
            self._on_join(event, ticket)
        elif isinstance(event, StationLeave):
            self._on_leave(event)
        else:
            self._on_stats(event)

    def _on_join(
        self, event: StationJoin, ticket: Optional[JoinTicket]
    ) -> None:
        assert ticket is not None
        user_id = event.user_id
        if self.admission.pending_user(user_id):
            self.admission.flush(event.time)
        if self.associator.ap_of(user_id) is not None:
            self._implicit_leave(event)
        self.admission.offer(event, ticket)

    def _implicit_leave(self, event: StationJoin) -> None:
        """A join from a user already associated ends the old stay first.

        The stream lost that user's leave.  The association is released
        as a leave would release it, but the learner only forgets the
        stay: the leave's time is unknown, so it dates no encounter or
        co-leaving.  Apps see the join alone.
        """
        ap_id = self.associator.apply_leave(event.user_id)
        if ap_id is not None and self.learner is not None:
            self.learner.on_lost_departure(event.user_id, ap_id)
        obs_metrics.inc("service.implicit_leaves", 1.0, event.time)

    def _on_leave(self, event: StationLeave) -> None:
        # A pending join must be decided before its user can depart.
        if self.admission.pending_user(event.user_id):
            self.admission.flush(event.time)
        ap_id = self.associator.apply_leave(event.user_id)
        if ap_id is not None and self.learner is not None:
            self.learner.on_departure(event.user_id, ap_id, event.time)
        for app in self.apps:
            app.on_leave(event, ap_id)

    def _on_stats(self, event: StatsReport) -> None:
        if event.mean_rate > 0:
            self.associator.demand.observe(event.user_id, event.mean_rate)
        for app in self.apps:
            app.on_stats(event)

    def _committed(
        self,
        event: StationJoin,
        ap_id: str,
        mode: str,
        note: Optional[str],
    ) -> None:
        if self.learner is not None:
            self.learner.on_arrival(event.user_id, ap_id, event.time)
        for app in self.apps:
            app.on_join(event, ap_id)


async def run_events(
    service: ControllerService,
    events: Sequence[ServiceEvent],
    producers: int = 1,
) -> None:
    """Feed ``events`` through ``service`` from ``producers`` tasks.

    With more than one producer the stream is split round-robin and the
    tasks yield to the loop after every submit, maximising interleaving
    — the adversarial schedule the reorder buffer must neutralise.
    ``drain`` runs after all producers finish, so a trailing micro-batch
    is always flushed.
    """
    if producers < 1:
        raise ValueError("producers must be >= 1")
    if producers == 1:
        for event in events:
            service.submit(event)
    else:
        slices = [list(events[i::producers]) for i in range(producers)]

        async def produce(chunk: List[ServiceEvent]) -> None:
            for event in chunk:
                service.submit(event)
                await asyncio.sleep(0)

        await asyncio.gather(*(produce(chunk) for chunk in slices))
    service.drain()
