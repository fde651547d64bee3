"""Kill-and-restore supervision of the controller service.

:func:`run_supervised` drives one synthetic workload through a
:class:`~repro.service.loop.ControllerService` exactly like
:func:`repro.service.workload.run_journaled_service` — but under a
:class:`~repro.faults.FaultPlan` of service-layer chaos, with the
durability loop a real deployment needs:

* every produced event is appended to a **write-ahead log** before it is
  submitted (JSONL, one line per delivery through one binary append
  handle flushed after every line; a torn trailing line from a kill
  mid-append is tolerated on read);
* the journal is **streamed**: every record is written the moment it
  completes (:func:`repro.service.workload.service_journal`);
* every ``snapshot_every`` deliveries the whole service plus the global
  observability state — the journal as a byte offset, not a copy — and
  the WAL's byte offset are checkpointed through
  :mod:`repro.service.checkpoint` (atomic write, fingerprint-guarded,
  quarantine-on-corruption — the :mod:`repro.runtime.checkpoint`
  conventions);
* at each :class:`~repro.faults.ControllerCrash` the in-memory
  controller is **discarded** — state, tracer, metrics, perf, all of it
  — and rebuilt from the newest readable snapshot, the journal is
  truncated back to the snapshot's offset, then the WAL tail past the
  snapshot's WAL offset is read and replayed through the very same
  submission path.  The dead controller is detached from its apps and
  admission hook, so reference counting frees it at once.
  Re-deliveries of events the snapshot had already processed are dropped
  by the reorder buffer's tolerant mode, so recovery is exactly-once.

Because the replay re-derives precisely the journal lines the crash
destroyed, a crashed-and-recovered run is **byte-identical** (after
``strip_wall``, metrics off) to the same run with the crash events
removed from its plan.  Each recovery journals a
:class:`~repro.obs.records.RecoveryRecord` — downtime in sim time,
events replayed, decisions re-derived — whose payload lives entirely
under ``"wall"``, so the recovery trail never perturbs that contract.

Degraded mode: when a recovery's replay reveals **gap skips** (event
seqs lost for good — the online model can never observe them), the
learner is marked stale and the admission queue answers the next
decisions least-loaded-first (``fallback:llf:model-stale``) until fresh
observations dilute the gap.  Plans that combine losses with crashes
therefore trade byte-parity for honesty — the chaos soak quantifies
that trade as decision divergence.

This module is inside the ``fault-determinism`` lint scope: it draws no
randomness at all (the plan owns every draw), and it keeps the
``.get``-free discipline that makes the invariant auditable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, BinaryIO, Dict, List, Optional, Tuple, Union

from repro import perf
from repro.faults.model import (
    ControllerCrash,
    EventDuplicate,
    EventLoss,
    FaultPlan,
    ProducerStall,
    SERVICE_KINDS,
)
from repro.obs import metrics as obs_metrics
from repro.obs.journal import json_scalar
from repro.obs.records import RecoveryRecord
from repro.obs.tracer import TRACER
from repro.runtime.checkpoint import RunDirectory
from repro.service.admission import AdmissionConfig
from repro.service.checkpoint import (
    RUN_KIND,
    SNAPSHOT_PREFIX,
    ServiceCheckpoint,
    capture_checkpoint,
    restore_checkpoint,
    snapshot_seqs,
)
from repro.service.events import (
    ServiceEvent,
    StationJoin,
    StationLeave,
    StatsReport,
)
from repro.service.workload import (
    WorkloadSpec,
    journal_meta,
    make_service,
    service_journal,
    synthetic_events,
)

#: The write-ahead log's filename inside the supervisor's work directory.
WAL_NAME = "wal.jsonl"


def run_fingerprint(spec: WorkloadSpec, plan: FaultPlan) -> str:
    """The identity a supervised run's snapshots are guarded by."""
    return (
        f"service:{spec.seed}:{spec.users}:{spec.aps}:{spec.events}:"
        f"{plan.fingerprint()}"
    )


# ----------------------------------------------------------------- WAL I/O


def wal_line(event: ServiceEvent) -> str:
    """One WAL line (no newline) for ``event``.

    Compact JSON with sorted keys — ``kind``, (``rate``,) ``seq``,
    ``time``, ``user`` — written directly rather than through an encoder.
    """
    seq = json_scalar(event.seq)
    time = json_scalar(event.time)
    user = json_scalar(event.user_id)
    if isinstance(event, StationJoin):
        return f'{{"kind":"join","seq":{seq},"time":{time},"user":{user}}}'
    if isinstance(event, StationLeave):
        return f'{{"kind":"leave","seq":{seq},"time":{time},"user":{user}}}'
    rate = json_scalar(event.mean_rate)
    return (
        f'{{"kind":"stats","rate":{rate},"seq":{seq},"time":{time},'
        f'"user":{user}}}'
    )


def _event_from_wal(obj: Dict[str, Any]) -> ServiceEvent:
    kind = obj["kind"]
    seq = int(obj["seq"])
    time = float(obj["time"])
    user = str(obj["user"])
    if kind == "join":
        return StationJoin(seq=seq, time=time, user_id=user)
    if kind == "leave":
        return StationLeave(seq=seq, time=time, user_id=user)
    if kind == "stats":
        return StatsReport(
            seq=seq, time=time, user_id=user, mean_rate=float(obj["rate"])
        )
    raise ValueError(f"unknown WAL event kind {kind!r}")


def read_wal(path: Union[str, Path], offset: int = 0) -> List[ServiceEvent]:
    """Parse a WAL from byte ``offset`` on, tolerating a torn trailing line.

    ``offset`` is a line boundary recorded at a snapshot
    (:attr:`~repro.service.checkpoint.ServiceCheckpoint.wal_offset`), so
    a recovery parses only the lines delivered after it; an offset at or
    past the end yields ``[]``.  A kill mid-append leaves a final line
    that is not valid JSON (or is missing keys); everything up to it
    parsed fine and is returned — exactly the prefix that was durably
    written.  A torn line anywhere else would mean the log was edited,
    so parsing still stops there: nothing after an unreadable line can
    be trusted to be in order.
    """
    path = Path(path)
    if not path.exists():
        return []
    with path.open("rb") as handle:
        handle.seek(offset)
        tail = handle.read()
    events: List[ServiceEvent] = []
    for line in tail.split(b"\n"):
        if not line:
            continue
        try:
            events.append(_event_from_wal(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            break
    return events


# -------------------------------------------------------------- supervisor


class Supervisor:
    """One supervised session: produce, journal, crash, restore, replay."""

    def __init__(
        self,
        spec: WorkloadSpec,
        plan: FaultPlan,
        workdir: Union[str, Path],
        admission: Optional[AdmissionConfig] = None,
        gap_horizon: Optional[float] = None,
        snapshot_every: int = 100,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1: {snapshot_every}")
        foreign = [e.kind for e in plan.events if e.kind not in SERVICE_KINDS]
        if foreign:
            raise ValueError(
                f"plan contains non-service fault kinds: {sorted(set(foreign))}"
            )
        lossy = any(
            isinstance(e, (EventLoss, EventDuplicate)) for e in plan.events
        )
        if lossy and gap_horizon is None:
            raise ValueError(
                "plans with event losses or duplicates need a gap_horizon: "
                "without one the reorder buffer wedges behind the first "
                "missing seq (and raises on the first duplicate)"
            )
        self.spec = spec
        self.plan = plan
        self.fingerprint = run_fingerprint(spec, plan)
        self.workdir = Path(workdir)
        self.wal_path = self.workdir / WAL_NAME
        self.store = RunDirectory(
            self.workdir / "snapshots", kind=RUN_KIND, fingerprint=self.fingerprint
        )
        self.admission_config = admission
        self.gap_horizon = gap_horizon
        self.snapshot_every = snapshot_every
        self.service = make_service(
            spec, admission, gap_horizon=gap_horizon
        )
        self._lost = {e.seq for e in plan.events if isinstance(e, EventLoss)}
        self._dup = {e.seq for e in plan.events if isinstance(e, EventDuplicate)}
        self._stalls = [e for e in plan.events if isinstance(e, ProducerStall)]
        self._crashes = [
            e for e in plan.events if isinstance(e, ControllerCrash)
        ]
        self._held: List[ServiceEvent] = []
        self._stall_until: Optional[float] = None
        self._since_snapshot = 0
        #: The WAL's binary append handle, open from the first delivery
        #: until :meth:`close`; its ``tell()`` is the WAL's byte offset.
        self._wal: Optional[BinaryIO] = None
        #: Every recovery journaled so far, with the journal byte offset
        #: its record was written at — the supervisor's own ledger.  A
        #: restore truncates the journal to the snapshot's offset, which
        #: erases *earlier* crashes' recovery records (and rolls back
        #: their metric counts) when the newest snapshot predates them;
        #: recovery re-emits every entry written at or past that offset.
        self._recovery_ledger: List[Tuple[int, RecoveryRecord]] = []
        self.snapshots_taken = 0
        self.recoveries = 0
        self.replayed_events = 0
        self.total_downtime = 0.0

    # ----------------------------------------------------------- production

    def run(self) -> None:
        """Produce the whole stream, surviving every planned crash."""
        try:
            self._run()
        finally:
            self.close()

    def close(self) -> None:
        """Close the WAL append handle (a later delivery reopens it)."""
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def _run(self) -> None:
        # Genesis snapshot: recovery always has somewhere to restore to,
        # even when the first crash precedes the first cadence snapshot.
        self._snapshot()
        for event in synthetic_events(self.spec):
            while self._crashes and self._crashes[0].time <= event.time:
                self._crash_and_recover(self._crashes.pop(0))
            if self._stall_until is not None:
                if event.time < self._stall_until:
                    self._held.append(event)
                    continue
                self._release_held()
            while self._stalls and self._stalls[0].time <= event.time:
                stall = self._stalls.pop(0)
                until = stall.time + stall.duration
                if event.time < until:
                    self._stall_until = until
            if self._stall_until is not None and event.time < self._stall_until:
                self._held.append(event)
                continue
            self._produce(event)
        self._release_held()
        while self._crashes:
            self._crash_and_recover(self._crashes.pop(0))
        self.service.drain()

    def _release_held(self) -> None:
        """The stalled producer comes back: deliver its backlog in order."""
        held, self._held = self._held, []
        self._stall_until = None
        for event in held:
            self._produce(event)

    def _produce(self, event: ServiceEvent) -> None:
        """Deliver one event: WAL first, then submit (then again if duped)."""
        if event.seq in self._lost:
            # Dropped on the wire: the controller never sees it, so it is
            # neither logged nor submitted — the reorder buffer's gap
            # horizon will eventually declare the seq dead.
            return
        self._deliver(event)
        if event.seq in self._dup:
            self._deliver(event)

    def _deliver(self, event: ServiceEvent) -> None:
        if self._wal is None:
            self._wal = self.wal_path.open("ab")
        self._wal.write((wal_line(event) + "\n").encode("utf-8"))
        # Flushed per line: the line reaches the OS before the submit,
        # and a replay's read_wal sees every delivery so far.
        self._wal.flush()
        self.service.submit(event)
        self._since_snapshot += 1
        if self._since_snapshot >= self.snapshot_every:
            self._snapshot()

    def _snapshot(self) -> None:
        # Every delivery is flushed before its submit, so the handle's
        # position is the WAL's size: the snapshot's replay starts there.
        wal_offset = 0 if self._wal is None else self._wal.tell()
        checkpoint = capture_checkpoint(
            self.service, self.fingerprint, wal_offset
        )
        self.store.store(checkpoint.slot, checkpoint)
        self._since_snapshot = 0
        self.snapshots_taken += 1

    # ------------------------------------------------------------- recovery

    def _load_latest_checkpoint(self) -> ServiceCheckpoint:
        """The newest readable snapshot, falling back past corruption.

        ``try_load`` quarantines an unreadable pickle (``*.corrupt``) and
        reports a miss, so a snapshot torn by the very crash being
        recovered from simply costs a longer WAL replay from the next
        older one.
        """
        for seq in reversed(snapshot_seqs(self.store)):
            hit, value = self.store.try_load(f"{SNAPSHOT_PREFIX}{seq}")
            if hit and isinstance(value, ServiceCheckpoint):
                return value
        raise RuntimeError(
            f"no readable service snapshot in {self.store.path}; "
            "cannot recover"
        )

    def _restore_and_replay(self) -> Tuple[ServiceCheckpoint, int, int]:
        """Replace the controller by the newest snapshot plus the WAL tail.

        Returns the checkpoint restored, the WAL events replayed and the
        decisions the replay re-derived.
        """
        checkpoint = self._load_latest_checkpoint()
        # Everything in process memory dies with the controller; the
        # restore resets the service *and* the global tracer/metrics/
        # perf state to the snapshot instant.
        service = restore_checkpoint(checkpoint, self.fingerprint)
        # Break the dead controller's reference cycles so it is freed
        # now, not at some later cyclic collection.
        self.service.detach()
        self.service = service
        decisions_before = service.admission.decisions
        replayed = 0
        for event in read_wal(self.wal_path, checkpoint.wal_offset):
            if event.seq < checkpoint.next_seq:
                continue
            # Same injection path as live delivery; re-deliveries of seqs
            # the snapshot already consumed are dropped by the tolerant
            # reorder buffer.
            service.submit(event)
            replayed += 1
        return checkpoint, replayed, service.admission.decisions - decisions_before

    def _crash_and_recover(self, crash: ControllerCrash) -> None:
        """Kill the controller at ``crash.time``; restore; replay the WAL."""
        with perf.timer("service.recovery"):
            checkpoint, replayed, rederived = self._restore_and_replay()
        service = self.service
        base = checkpoint.last_time
        if base == float("-inf"):
            base = 0.0
        downtime = max(0.0, crash.time - base)
        if TRACER.enabled:
            # The restore truncated the journal to the snapshot's offset;
            # recovery records from earlier crashes written past it were
            # erased with it.  They describe the supervisor's own history,
            # not the controller's replayable state, so they are
            # re-journaled (records and metric counts both).
            restored = checkpoint.tracer.offset
            ledger: List[Tuple[int, RecoveryRecord]] = []
            for offset, entry in self._recovery_ledger:
                if offset >= restored:
                    offset = self._journal_recovery(entry)
                ledger.append((offset, entry))
            self._recovery_ledger = ledger
        record = RecoveryRecord(
            sim_time=crash.time,
            controller_id=service.controller_id,
            downtime=downtime,
            snapshot_seq=checkpoint.next_seq,
            replayed_events=replayed,
            rederived_decisions=rederived,
        )
        self._recovery_ledger.append((self._journal_recovery(record), record))
        self.recoveries += 1
        self.replayed_events += replayed
        self.total_downtime += downtime
        self._since_snapshot = 0
        learner = service.learner
        if learner is not None and service.gap_skips > learner.lost_events:
            # The replay exposed seqs that are gone for good: the online
            # model missed arrivals it can never observe.  Degrade the
            # next decisions to the fallback chain while it re-learns.
            newly_lost = service.gap_skips - learner.lost_events
            learner.mark_lost_events(newly_lost)
            service.admission.flag_stale(newly_lost)

    @staticmethod
    def _journal_recovery(record: RecoveryRecord) -> int:
        """Journal and count ``record``; returns the offset it landed at."""
        offset = TRACER.tell()
        TRACER.recovery(record)
        obs_metrics.inc("service.recoveries", 1.0, record.sim_time)
        obs_metrics.inc(
            "service.replayed_events",
            float(record.replayed_events),
            record.sim_time,
        )
        return offset


def run_supervised(
    spec: WorkloadSpec,
    plan: FaultPlan,
    workdir: Union[str, Path],
    journal: Optional[Union[str, Path]] = None,
    metrics: bool = False,
    admission: Optional[AdmissionConfig] = None,
    gap_horizon: Optional[float] = None,
    snapshot_every: int = 100,
) -> Dict[str, Any]:
    """Run one crash-supervised synthetic session; return a summary.

    Mirrors :func:`repro.service.workload.run_journaled_service` — same
    journal meta shape, same streamed journal path, same summary keys —
    plus the recovery tallies.
    The meta grows a ``"faults"`` key fingerprinting the plan's
    *non-crash* events only: crashes are recovered exactly-once and must
    leave no deterministic trace, while losses/duplicates/stalls shape
    the stream itself and belong to the run's identity.
    """
    if metrics and journal is None:
        raise ValueError("metrics require a journal to land in")
    supervisor = Supervisor(
        spec,
        plan,
        workdir,
        admission=admission,
        gap_horizon=gap_horizon,
        snapshot_every=snapshot_every,
    )
    meta = journal_meta(spec)
    survivors = FaultPlan(
        plan.of_kinds(sorted(SERVICE_KINDS - {ControllerCrash.kind}))
    )
    if not survivors.is_empty:
        meta["faults"] = survivors.fingerprint()
    # Opened only now: Supervisor(...) creates the work directory, which
    # the journal may live in.
    with service_journal(journal, meta, metrics):
        supervisor.run()
    service = supervisor.service
    queue = service.admission
    return {
        "events": service.events_processed,
        "decisions": queue.decisions,
        "batches": queue.batches,
        "sheds": queue.sheds,
        "users_online": service.associator.total_users(),
        "known_pairs": (
            service.learner.social.known_pairs()
            if service.learner is not None
            else 0
        ),
        "recoveries": supervisor.recoveries,
        "replayed_events": supervisor.replayed_events,
        "gap_skips": service.gap_skips,
        "dropped_events": service.dropped_events,
        "stale_decisions": queue.stale_decisions,
        "snapshots": supervisor.snapshots_taken,
        "downtime": supervisor.total_downtime,
    }
