"""Micro-batching admission control with deterministic backpressure.

Concurrent join queries are held in a bounded queue until the oldest
pending query has waited ``flush_horizon`` simulated seconds (checked
as later events advance the clock — no wall-time timers, so journals
stay deterministic), then decided in chunks of ``max_batch`` queries,
each chunk one micro-batch.  A join arriving at a saturated queue
(``queue_capacity`` pending) is **shed**: it is answered immediately by
the next link of the ``s3 -> llf -> rssi`` fallback chain
(least-loaded-first over live state) and its decision record carries
the ``"fallback:llf:admission-shed"`` provenance note — exactly the
degradation vocabulary :mod:`repro.wlan.replay` journals, so the same
report tooling reads both.  The same chain backs the post-recovery
degraded mode: when a crash recovery permanently lost events (gap
skips), :meth:`AdmissionQueue.flag_stale` routes the next N decisions
least-loaded-first under the ``"fallback:llf:model-stale"`` note until
the online social model has re-observed enough fresh arrivals.

Backpressure is observable through four :mod:`repro.obs.metrics`
series: ``service.queue_depth`` (gauge), ``service.batch_size``
(histogram), ``service.shed`` (counter) — all run-scoped, since the
queue is a pure function of the event stream — and the host-scoped
``service.decision_latency`` histogram (wall seconds from enqueue to
commit, measured through :func:`repro.perf.wall_seconds`).  A join's
latency has a reader when the metrics registry is enabled or
``track_latency`` is set as it is enqueued; only then is the host clock
read, at enqueue and at commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple

from repro import perf
from repro.obs import metrics as obs_metrics
from repro.obs.records import DecisionRecord
from repro.obs.tracer import TRACER
from repro.service.events import StationJoin
from repro.service.fastpath import FastAssociator
from repro.wlan.strategies import S3Strategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.loop import JoinTicket

#: The degradation order the shed path follows (the replay engine's).
FALLBACK_CHAIN: Tuple[str, ...] = S3Strategy.fallback_chain

#: Provenance note on decisions shed by a saturated admission queue.
SHED_NOTE = "fallback:llf:admission-shed"

#: Provenance note on decisions degraded because the social model was
#: flagged stale after a lossy crash recovery (gap-skipped events mean
#: the online model missed arrivals it can never observe).
STALE_NOTE = "fallback:llf:model-stale"

#: ``(event, ap_id, mode, note)`` — the loop's commit hook signature.
CommitHook = Callable[[StationJoin, str, str, Optional[str]], None]


@dataclass(frozen=True)
class AdmissionConfig:
    """Tunables of the admission layer."""

    #: Decide pending joins in chunks of this size per flush.
    max_batch: int = 8
    #: Flush when the oldest pending join is this many sim seconds old.
    flush_horizon: float = 0.5
    #: Pending joins beyond which new arrivals are shed to the fallback
    #: chain instead of queued.
    queue_capacity: int = 64
    #: Keep per-decision wall latencies in :attr:`AdmissionQueue.latencies`
    #: (the benchmark's p99 source) in addition to the metrics histogram.
    track_latency: bool = False

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.flush_horizon < 0:
            raise ValueError("flush_horizon must be non-negative")
        if self.queue_capacity < self.max_batch:
            raise ValueError("queue_capacity must be >= max_batch")


class AdmissionQueue:
    """The bounded join queue in front of the fast-path associator."""

    def __init__(
        self,
        associator: FastAssociator,
        config: Optional[AdmissionConfig] = None,
        controller_id: str = "svc",
        on_commit: Optional[CommitHook] = None,
    ) -> None:
        self.associator = associator
        self.config = config if config is not None else AdmissionConfig()
        self.controller_id = controller_id
        self.on_commit = on_commit
        #: ``(event, ticket, wall at enqueue)`` in seq order; the wall
        #: time is ``None`` when nothing reads the join's latency.
        self._pending: List[Tuple[StationJoin, "JoinTicket", Optional[float]]] = []
        #: The users of ``_pending``.  Derived from it, so it is left out
        #: of the pickled state and rebuilt on load.
        self._pending_users: Set[str] = set()
        self.decisions = 0
        self.batches = 0
        self.sheds = 0
        #: Decisions still to answer from the fallback chain because the
        #: social model is stale (set by :meth:`flag_stale` on recovery).
        self.stale_remaining = 0
        #: Total decisions degraded through the stale-model path.
        self.stale_decisions = 0
        #: Wall seconds enqueue->commit when ``track_latency`` is set.
        self.latencies: List[float] = []

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        del state["_pending_users"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._pending_users = {event.user_id for event, _, _ in self._pending}

    # ------------------------------------------------------------- queries

    @property
    def depth(self) -> int:
        """Currently pending join queries."""
        return len(self._pending)

    def pending_user(self, user_id: str) -> bool:
        """Whether ``user_id`` has a join waiting in the queue."""
        return user_id in self._pending_users

    # ------------------------------------------------------- degraded mode

    def flag_stale(self, decisions: int) -> None:
        """Degrade the next ``decisions`` commits to the fallback chain.

        Called by the supervisor when a crash recovery found permanently
        lost events (gap skips), meaning the online social model missed
        arrivals it can never observe: instead of trusting a stale model,
        the next ``decisions`` joins are answered least-loaded-first with
        the :data:`STALE_NOTE` provenance note, after which the model has
        re-observed enough fresh arrivals to be trusted again.
        """
        if decisions < 0:
            raise ValueError(f"stale decision count must be >= 0: {decisions}")
        self.stale_remaining = max(self.stale_remaining, decisions)

    # ------------------------------------------------------------ enqueue

    def offer(self, event: StationJoin, ticket: "JoinTicket") -> None:
        """Queue one join query — or shed it if the queue is saturated."""
        if len(self._pending) >= self.config.queue_capacity:
            self._shed(event, ticket)
            return
        self._pending.append((event, ticket, self._enqueue_stamp()))
        self._pending_users.add(event.user_id)
        obs_metrics.set_gauge(
            "service.queue_depth", float(len(self._pending)), event.time
        )

    def maybe_flush(self, now: float) -> None:
        """Flush if the oldest pending join has aged past the horizon."""
        if (
            self._pending
            and now - self._pending[0][0].time >= self.config.flush_horizon
        ):
            self.flush(now)

    # -------------------------------------------------------------- commit

    def flush(self, now: float) -> None:
        """Decide every pending join, in seq order, in max_batch chunks."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        self._pending_users.clear()
        size = self.config.max_batch
        for start in range(0, len(pending), size):
            chunk = pending[start : start + size]
            self.batches += 1
            obs_metrics.observe("service.batch_size", float(len(chunk)), now)
            for event, ticket, enqueued in chunk:
                if self.stale_remaining > 0:
                    self.stale_remaining -= 1
                    self.stale_decisions += 1
                    self._commit(
                        event, ticket, enqueued,
                        self.associator.least_loaded(),
                        sim_time=now, strategy=FALLBACK_CHAIN[1],
                        mode="batch", note=STALE_NOTE,
                    )
                    continue
                ap_id, costs = self.associator.select(event.user_id)
                self._commit(
                    event, ticket, enqueued, ap_id,
                    sim_time=now, strategy="s3", mode="batch", note=None,
                    costs=costs,
                )
        obs_metrics.set_gauge("service.queue_depth", 0.0, now)

    def drain(self, now: float) -> None:
        """Flush whatever is pending (end of stream)."""
        self.flush(now)

    def _shed(self, event: StationJoin, ticket: "JoinTicket") -> None:
        """Answer one join immediately from the fallback chain."""
        self.sheds += 1
        obs_metrics.inc("service.shed", 1.0, event.time)
        ap_id = self.associator.least_loaded()
        self._commit(
            event, ticket, self._enqueue_stamp(), ap_id,
            sim_time=event.time, strategy=FALLBACK_CHAIN[1], mode="single",
            note=SHED_NOTE,
        )

    def _enqueue_stamp(self) -> Optional[float]:
        """The wall clock now, if anything reads a latency from it."""
        if self.config.track_latency or obs_metrics.REGISTRY.enabled:
            return perf.wall_seconds()
        return None

    def _batch_id(self, mode: str) -> str:
        """The journaled batch of a decision being committed: the flush
        chunk under way (``mode`` ``"batch"``), else its own shed."""
        if mode == "batch":
            return f"{self.controller_id}#{self.batches}"
        return f"{self.controller_id}#shed-{self.sheds}"

    def _commit(
        self,
        event: StationJoin,
        ticket: "JoinTicket",
        enqueued: Optional[float],
        ap_id: str,
        sim_time: float,
        strategy: str,
        mode: str,
        note: Optional[str],
        costs: Optional[List[float]] = None,
    ) -> None:
        """Apply, journal and meter one decision; resolve its ticket.

        ``enqueued`` is the join's wall stamp (``None``: its latency has
        no reader).  ``costs`` is the cost row the decision ranked, when
        it ranked one; the journaled provenance reuses it.
        """
        tracer = TRACER
        if tracer.enabled:
            tracer.decision(
                DecisionRecord(
                    user_id=event.user_id,
                    strategy=strategy,
                    controller_id=self.controller_id,
                    batch_id=self._batch_id(mode),
                    sim_time=sim_time,
                    chosen=ap_id,
                    candidates=self.associator.candidates(event.user_id, costs),
                    mode=mode,
                    note=note,
                )
            )
        self.associator.apply_join(event.user_id, ap_id)
        self.decisions += 1
        obs_metrics.inc("service.decisions", 1.0, sim_time)
        if enqueued is not None:
            self._meter_latency(enqueued, sim_time)
        ticket.resolve(ap_id)
        if self.on_commit is not None:
            self.on_commit(event, ap_id, mode, note)

    def _meter_latency(self, enqueued: float, sim_time: float) -> None:
        """Record one decision's wall latency, enqueue to commit."""
        latency = perf.wall_seconds() - enqueued
        obs_metrics.observe("service.decision_latency", latency, sim_time)
        if self.config.track_latency:
            self.latencies.append(latency)
