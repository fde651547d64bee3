"""Crash-safe snapshots of a live controller service.

A :class:`ServiceCheckpoint` captures everything a controller process
would lose if it died: the :class:`~repro.service.loop.ControllerService`
object graph (reorder buffer, admission queue, fast-path associator,
online learner — pickled once, so the social model shared between
associator and learner stays shared on restore) plus the process-global
observability state as of the same instant: the tracer's lifecycle and
the byte offset its streamed journal had reached, the metrics registry
and the perf registry.  It also records the byte offset the write-ahead
log had reached, so recovery parses only the WAL's tail.  Restoring a
checkpoint truncates the journal back to its offset, and replaying the
write-ahead log past the WAL offset is *exactly-once*: the events
processed between the snapshot and the crash re-execute against state
that has never seen them, re-emitting the identical journal lines the
truncation removed.

A checkpoint holds state, never history: its size tracks the service
(users, APs, learned pairs, metric windows), not how many records the
run has journaled.

Snapshots persist through :class:`~repro.runtime.checkpoint.RunDirectory`
(``kind="service"``), inheriting its conventions wholesale: atomic
temp-file + ``os.replace`` writes, a fingerprint-guarded ``meta.json``
that refuses to mix runs, and quarantine-and-fall-back on corrupt
pickles.  Slots are named ``snapshot-<seq>`` where ``<seq>`` is the next
unprocessed sequence number, so recovery can discover the latest usable
snapshot from the directory alone (:func:`latest_snapshot_seq`) — the
process that wrote it, and its in-memory bookkeeping, are gone.

Each checkpoint is stamped with :data:`CHECKPOINT_VERSION` and the run
fingerprint; :func:`restore_checkpoint` refuses a version or fingerprint
it does not recognise — a snapshot from another run restoring cleanly
but wrongly would be far worse than an error.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import List, Optional

from repro import perf
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import TRACER, TracerState
from repro.runtime.checkpoint import RunDirectory
from repro.service.loop import ControllerService

#: Bumped whenever the checkpoint layout changes incompatibly.  Version
#: 5 added :attr:`ServiceCheckpoint.wal_offset` and the columnar
#: ``SocialModel`` pickle state; version 6 keeps the associator's APs in
#: a :class:`~repro.wlan.entities.ControllerRuntime`, which version-5
#: pickles do not have; version 7 drops the social model's per-user
#: generation stamps and pickles service events through ``__reduce__``;
#: version 8 services carry the event-time bound of their apps; version 9
#: carries the metrics registry as a by-value copy
#: (:meth:`~repro.obs.metrics.MetricsRegistry.capture`).
CHECKPOINT_VERSION = 9

#: Slot-name prefix of service snapshots inside a run directory.
SNAPSHOT_PREFIX = "snapshot-"

#: The ``RunDirectory`` kind service snapshots are stored under.
RUN_KIND = "service"


@dataclass
class ServiceCheckpoint:
    """One atomic capture of a controller service and its observability."""

    #: :data:`CHECKPOINT_VERSION` at capture time.
    version: int
    #: The owning run's fingerprint (spec + fault plan).
    fingerprint: str
    #: The next unprocessed sequence number (WAL replay starts here).
    next_seq: int
    #: The service sim clock at capture time.
    last_time: float
    #: The WAL's byte offset at capture time: every WAL line past it was
    #: delivered after the capture (0 replays the whole WAL).
    wal_offset: int
    #: The full service object graph, pickled at capture time.
    service_pickle: bytes
    #: Tracer lifecycle and journal byte offset as of the capture.
    tracer: TracerState
    #: A by-value copy of the metrics registry as of the capture.
    metrics: MetricsRegistry
    #: Perf timers/counters as of the capture.
    perf: perf.PerfSnapshot

    @property
    def slot(self) -> str:
        """The run-directory slot this checkpoint stores under."""
        return f"{SNAPSHOT_PREFIX}{self.next_seq}"


def capture_checkpoint(
    service: ControllerService, fingerprint: str, wal_offset: int = 0
) -> ServiceCheckpoint:
    """Snapshot ``service`` plus the global observability state.

    ``wal_offset`` is the write-ahead log's byte offset at the capture,
    where a recovery from this checkpoint starts reading.

    The service graph is pickled, so the checkpoint stays frozen while
    the live service keeps mutating; the pickle memo keeps the social
    model shared between the associator and the online learner a single
    object, exactly as constructed.  An enabled tracer must stream its
    journal (see :meth:`~repro.obs.tracer.Tracer.export_state`).
    """
    with perf.timer("service.checkpoint.capture"):
        return ServiceCheckpoint(
            version=CHECKPOINT_VERSION,
            fingerprint=fingerprint,
            next_seq=service._next_seq,
            last_time=service._last_time,
            wal_offset=wal_offset,
            tracer=TRACER.export_state(),
            service_pickle=pickle.dumps(
                service, protocol=pickle.HIGHEST_PROTOCOL
            ),
            metrics=obs_metrics.get_metrics().capture(),
            perf=perf.snapshot(),
        )


def restore_checkpoint(
    checkpoint: ServiceCheckpoint, fingerprint: str
) -> ControllerService:
    """Rebuild the world as of ``checkpoint``; returns the service.

    Puts the process-global tracer, metrics registry and perf registry
    back to their captured states, copied by value so the checkpoint
    stays reusable — the streamed journal is truncated to the
    captured offset, so records emitted after the capture (by the
    timeline the crash destroyed) are discarded, to be re-emitted by the
    WAL replay.  The returned service is unpickled afresh, so restoring
    the same checkpoint twice yields independent services.
    """
    if checkpoint.version != CHECKPOINT_VERSION:
        raise RuntimeError(
            f"service checkpoint version {checkpoint.version} is not the "
            f"supported version {CHECKPOINT_VERSION}"
        )
    if checkpoint.fingerprint != fingerprint:
        raise RuntimeError(
            f"service checkpoint belongs to run {checkpoint.fingerprint!r}, "
            f"not {fingerprint!r}; refusing to restore foreign state"
        )
    with perf.timer("service.checkpoint.restore"):
        service = pickle.loads(checkpoint.service_pickle)
        if not isinstance(service, ControllerService):
            raise TypeError(
                f"service checkpoint holds a {type(service).__name__}, "
                "not a ControllerService"
            )
        TRACER.restore_state(checkpoint.tracer)
        obs_metrics.get_metrics().install(checkpoint.metrics)
        perf.PERF.install(checkpoint.perf)
    return service


def snapshot_seqs(store: RunDirectory) -> List[int]:
    """Every stored snapshot's ``next_seq``, ascending."""
    seqs = []
    for slot in store.stored_slots():
        if slot.startswith(SNAPSHOT_PREFIX):
            suffix = slot[len(SNAPSHOT_PREFIX):]
            if suffix.isdigit():
                seqs.append(int(suffix))
    return sorted(seqs)


def latest_snapshot_seq(store: RunDirectory) -> Optional[int]:
    """The newest stored snapshot's ``next_seq`` (``None`` when empty)."""
    seqs = snapshot_seqs(store)
    return seqs[-1] if seqs else None
