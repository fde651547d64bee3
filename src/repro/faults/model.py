"""Typed fault events and the deterministic :class:`FaultPlan` container.

A fault plan is the chaos analogue of a demand trace: a frozen, sorted
tuple of typed events that fully determines what goes wrong and when.
Plans come from exactly two places — :func:`repro.faults.schedule.generate_plan`
(seeded draws from the dedicated ``faults`` child stream) or a JSON file
written by :meth:`FaultPlan.save` — so every chaos run is reproducible
and byte-identical under both the serial and process replay engines.

Event kinds map one-to-one onto injection points:

========================  =====================================================
``ap-down`` / ``ap-up``   :mod:`repro.wlan.replay` evicts the AP's users into a
                          forced re-association batch and hides the AP from
                          candidate sets until the matching ``ap-up``.
``controller-outage``     steering degrades to per-station strongest-signal
                          while the controller is unreachable.
``stale-load-report``     the controller's next measurement poll is skipped,
                          so strategies decide on stale loads.
``frame-loss`` /          windows interpreted by the prototype
``frame-delay`` /         :class:`~repro.prototype.transport.LinkPolicy`
``frame-duplicate``       (drop / extra-delay / duplicate message frames).
``corrupt-trace-record``  rows damaged by :func:`apply_trace_corruption`,
                          surfaced by the :mod:`repro.trace.io` strict/skip
                          reader policy.
``event-loss`` /          service-stream faults interpreted by the
``event-duplicate`` /     :mod:`repro.service.supervisor` delivery loop: a
``producer-stall`` /      sequenced event dropped on the wire / delivered
``controller-crash``      twice / a producer's send window held back whole /
                          the controller process killed and restored from its
                          latest :class:`~repro.service.checkpoint.ServiceCheckpoint`.
========================  =====================================================

Events order canonically by ``(time, kind, target)``; the replay engine
schedules same-instant faults in that order, so their fault records
journal in one fixed order.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, ClassVar, Dict, Iterable, Tuple, Type, Union

#: CSV families that :class:`CorruptTraceRecord` may target.
TRACE_FAMILIES = ("sessions", "flows", "demands")


@dataclass(frozen=True)
class ApDown:
    """Take one AP off the air, force-evicting its associations."""

    kind: ClassVar[str] = "ap-down"
    time: float
    ap_id: str

    @property
    def target(self) -> str:
        """The entity this event acts on (sort tie-break key)."""
        return self.ap_id


@dataclass(frozen=True)
class ApUp:
    """Restore a previously downed AP to the candidate set."""

    kind: ClassVar[str] = "ap-up"
    time: float
    ap_id: str

    @property
    def target(self) -> str:
        return self.ap_id


@dataclass(frozen=True)
class ControllerOutage:
    """The controller stops answering steering queries for ``duration``."""

    kind: ClassVar[str] = "controller-outage"
    time: float
    controller_id: str
    duration: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"outage duration must be positive: {self.duration}")

    @property
    def target(self) -> str:
        return self.controller_id


@dataclass(frozen=True)
class StaleLoadReport:
    """The controller's next load-measurement poll is silently skipped."""

    kind: ClassVar[str] = "stale-load-report"
    time: float
    controller_id: str

    @property
    def target(self) -> str:
        return self.controller_id


@dataclass(frozen=True)
class FrameLoss:
    """Message frames sent during the window are dropped with ``probability``."""

    kind: ClassVar[str] = "frame-loss"
    time: float
    duration: float
    probability: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"frame-loss duration must be positive: {self.duration}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability out of [0, 1]: {self.probability}")

    @property
    def target(self) -> str:
        return "link"


@dataclass(frozen=True)
class FrameDelay:
    """Frames in the window arrive ``delay`` seconds late with ``probability``."""

    kind: ClassVar[str] = "frame-delay"
    time: float
    duration: float
    probability: float
    delay: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"frame-delay duration must be positive: {self.duration}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability out of [0, 1]: {self.probability}")
        if self.delay <= 0:
            raise ValueError(f"extra delay must be positive: {self.delay}")

    @property
    def target(self) -> str:
        return "link"


@dataclass(frozen=True)
class FrameDuplicate:
    """Frames in the window are delivered twice with ``probability``."""

    kind: ClassVar[str] = "frame-duplicate"
    time: float
    duration: float
    probability: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(
                f"frame-duplicate duration must be positive: {self.duration}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability out of [0, 1]: {self.probability}")

    @property
    def target(self) -> str:
        return "link"


@dataclass(frozen=True)
class CorruptTraceRecord:
    """Damage one data row of a trace CSV family (0-indexed, header excluded)."""

    kind: ClassVar[str] = "corrupt-trace-record"
    time: float
    family: str
    row: int

    def __post_init__(self) -> None:
        if self.family not in TRACE_FAMILIES:
            raise ValueError(
                f"unknown trace family {self.family!r}; choose from {TRACE_FAMILIES}"
            )
        if self.row < 0:
            raise ValueError(f"row index must be >= 0: {self.row}")

    @property
    def target(self) -> str:
        return f"{self.family}:{self.row}"


@dataclass(frozen=True)
class EventLoss:
    """The service event with sequence number ``seq`` never arrives.

    The supervisor drops it between producer and controller: the write-
    ahead log still records it (the producer sent it), but the reorder
    buffer sees a permanent gap that only the gap horizon resolves.
    """

    kind: ClassVar[str] = "event-loss"
    time: float
    seq: int

    def __post_init__(self) -> None:
        if self.seq < 0:
            raise ValueError(f"event seq must be >= 0: {self.seq}")

    @property
    def target(self) -> str:
        return f"seq:{self.seq}"


@dataclass(frozen=True)
class EventDuplicate:
    """The service event with sequence number ``seq`` is delivered twice."""

    kind: ClassVar[str] = "event-duplicate"
    time: float
    seq: int

    def __post_init__(self) -> None:
        if self.seq < 0:
            raise ValueError(f"event seq must be >= 0: {self.seq}")

    @property
    def target(self) -> str:
        return f"seq:{self.seq}"


@dataclass(frozen=True)
class ProducerStall:
    """Events produced in ``[time, time + duration)`` are held back.

    The stalled events are delivered, in order, with the first event at
    or past the window's end — late enough that the reorder buffer's gap
    horizon may already have skipped them.
    """

    kind: ClassVar[str] = "producer-stall"
    time: float
    duration: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"stall duration must be positive: {self.duration}")

    @property
    def target(self) -> str:
        return "producer"


@dataclass(frozen=True)
class ControllerCrash:
    """The controller process dies at ``time`` and must be restored.

    Interpreted by :func:`repro.service.supervisor.run_supervised`: the
    live service is discarded before the first event at or past ``time``
    and rebuilt from its latest snapshot plus write-ahead-log replay.
    """

    kind: ClassVar[str] = "controller-crash"
    time: float
    controller_id: str

    @property
    def target(self) -> str:
        return self.controller_id


FaultEvent = Union[
    ApDown,
    ApUp,
    ControllerOutage,
    StaleLoadReport,
    FrameLoss,
    FrameDelay,
    FrameDuplicate,
    CorruptTraceRecord,
    EventLoss,
    EventDuplicate,
    ProducerStall,
    ControllerCrash,
]

#: Event classes by their stable ``kind`` tag (JSON round-trip dispatch).
EVENT_TYPES: Dict[str, Type[Any]] = {
    cls.kind: cls
    for cls in (
        ApDown,
        ApUp,
        ControllerOutage,
        StaleLoadReport,
        FrameLoss,
        FrameDelay,
        FrameDuplicate,
        CorruptTraceRecord,
        EventLoss,
        EventDuplicate,
        ProducerStall,
        ControllerCrash,
    )
}

#: Kinds interpreted by the replay engine (vs the prototype link / trace IO).
REPLAY_KINDS = frozenset(
    {ApDown.kind, ApUp.kind, ControllerOutage.kind, StaleLoadReport.kind}
)

#: Kinds interpreted by the prototype transport's LinkPolicy.
LINK_KINDS = frozenset({FrameLoss.kind, FrameDelay.kind, FrameDuplicate.kind})

#: Kinds interpreted by the supervised controller service's delivery loop.
SERVICE_KINDS = frozenset(
    {EventLoss.kind, EventDuplicate.kind, ProducerStall.kind, ControllerCrash.kind}
)


def event_sort_key(event: FaultEvent) -> Tuple[float, str, str]:
    """Canonical plan order: time, then kind, then target."""
    return (event.time, event.kind, event.target)


def event_payload(event: FaultEvent) -> Dict[str, Any]:
    """A JSON-ready dict: ``kind`` first, then field names sorted."""
    raw = asdict(event)
    payload: Dict[str, Any] = {"kind": event.kind}
    for name in sorted(raw):
        payload[name] = raw[name]
    return payload


def event_from_payload(payload: Dict[str, Any]) -> FaultEvent:
    """Rebuild a typed event from :func:`event_payload` output."""
    data = dict(payload)
    kind = data.pop("kind")
    if kind not in EVENT_TYPES:
        raise ValueError(f"unknown fault kind {kind!r}")
    cls = EVENT_TYPES[kind]
    names = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ValueError(f"unknown fields for {kind!r}: {unknown}")
    event: FaultEvent = cls(**data)
    return event


def _validate(events: Tuple[FaultEvent, ...]) -> None:
    seen = set()
    for event in events:
        key = event_sort_key(event)
        if key in seen:
            raise ValueError(f"duplicate fault event {key}")
        seen.add(key)
    # ap-down / ap-up must alternate per AP, starting down.
    state: Dict[str, bool] = {}
    for event in events:
        if isinstance(event, ApDown):
            if state.setdefault(event.ap_id, False):
                raise ValueError(
                    f"AP {event.ap_id} is already down at t={event.time}"
                )
            state[event.ap_id] = True
        elif isinstance(event, ApUp):
            if not state.setdefault(event.ap_id, False):
                raise ValueError(
                    f"ApUp for {event.ap_id} at t={event.time} without a "
                    "preceding ApDown"
                )
            state[event.ap_id] = False


@dataclass(frozen=True)
class FaultPlan:
    """A frozen, canonically sorted schedule of fault events."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=event_sort_key))
        object.__setattr__(self, "events", ordered)
        _validate(ordered)

    @property
    def is_empty(self) -> bool:
        """True when no events are scheduled (a clean run)."""
        return not self.events

    def of_kinds(self, kinds: Iterable[str]) -> Tuple[FaultEvent, ...]:
        """The plan's events restricted to the given kinds, in plan order."""
        wanted = frozenset(kinds)
        return tuple(e for e in self.events if e.kind in wanted)

    def fingerprint(self) -> str:
        """Content digest folded into checkpoint identities."""
        digest = zlib.crc32(self.to_json().encode("utf-8")) & 0xFFFFFFFF
        return f"faults:{len(self.events)}:{digest:08x}"

    # ------------------------------------------------------------ round-trip

    def to_json(self) -> str:
        """Canonical JSON text (stable key order, compact separators)."""
        payload = {
            "version": 1,
            "events": [event_payload(event) for event in self.events],
        }
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse :meth:`to_json` output (the only accepted layout)."""
        payload = json.loads(text)
        if payload["version"] != 1:
            raise ValueError(f"unsupported fault-plan version {payload['version']!r}")
        return cls(tuple(event_from_payload(item) for item in payload["events"]))

    def save(self, path: Union[str, Path]) -> Path:
        """Write the plan as JSON; returns the path written."""
        path = Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        """Load a plan saved by :meth:`save`."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def apply_trace_corruption(
    path: Union[str, Path], family: str, events: Iterable[CorruptTraceRecord]
) -> int:
    """Damage the CSV at ``path`` per the plan's corrupt-record events.

    Each matching event's data row (0-indexed, header excluded) has its
    final field replaced with a non-numeric marker, which the strict
    reader policy rejects and the skip policy counts and drops.  Returns
    the number of rows corrupted; rows beyond the file are ignored.
    """
    if family not in TRACE_FAMILIES:
        raise ValueError(
            f"unknown trace family {family!r}; choose from {TRACE_FAMILIES}"
        )
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = sorted({e.row for e in events if e.family == family})
    corrupted = 0
    for row in rows:
        index = row + 1  # skip the header line
        if index >= len(lines):
            continue
        head, _, _ = lines[index].rpartition(",")
        lines[index] = f"{head},CORRUPT" if head else "CORRUPT"
        corrupted += 1
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return corrupted
