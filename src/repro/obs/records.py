"""Journal record types and their deterministic JSON shapes.

Every record renders to one JSONL object of the form::

    {"type": "<kind>", "data": {...}, "wall": {...}}

with a fixed, hand-ordered key layout inside ``data`` so that two seeded
runs produce byte-identical lines.  Everything derived from wall time —
and *only* that — lives under the top-level ``"wall"`` key, which
:func:`repro.obs.journal.strip_wall` removes before diffing.  Most
records build that object as a ``payload()``; the two the service writes
per event — ``decision`` and ``sample`` — have no payload and are written
straight from their fields by :func:`repro.obs.journal.dumps_record`,
in the layout below.  The record kinds:

``meta``
    One header line per journal: schema version plus free-form run
    metadata (preset, experiment names, seed).
``span``
    One closed :class:`~repro.obs.tracer.Span`: name, nesting, explicit
    sim-clock bounds, attributes; wall start/elapsed under ``"wall"``.
``decision``
    One association decision with full provenance: the user, the batch it
    arrived in, every candidate AP with its load/user-count and the
    strategy's own score, and the chosen AP.  Keys: ``user``,
    ``strategy``, ``controller``, ``batch``, ``sim_time``, ``chosen``,
    ``mode``, ``note`` (only when set), then ``candidates`` — a list of
    ``{"ap", "load", "users", "score"}`` objects.
``sample``
    One balance-index observation of a controller domain at a sampler
    tick.  Keys: ``sim_time``, ``controller``, ``balance``,
    ``total_load``, ``users``.
``fault``
    One injected fault firing (or a runtime worker failure): the event
    kind, its target, and a small deterministic detail map.  Replay
    faults carry their sim time; worker failures have ``sim_time: null``.
``perf``
    The journal footer: :mod:`repro.perf` counters (deterministic, under
    ``data``) and timers (wall durations, under ``"wall"``).
``metric``
    One :mod:`repro.obs.metrics` series window.  Run-scoped series
    serialize under ``data`` (part of the ``strip_wall`` byte contract);
    host-scoped series serialize under ``"wall"`` only, leaving ``data``
    empty — :func:`repro.obs.journal.strip_wall` drops such lines
    entirely.
``metrics``
    The whole-run metrics rollup footer: per-series totals split by
    determinism scope the same way.
``recovery``
    One supervised crash/restore cycle of the controller service.  A
    recovered run must stay byte-identical to an uninterrupted one, so
    the whole payload lives under ``"wall"`` with an empty ``data`` and
    :func:`repro.obs.journal.strip_wall` drops the line entirely — the
    record documents *how* the run survived, never *what* it computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

#: Journal schema version, bumped on any breaking layout change.
#: v2: ``fault`` records and the optional ``note`` key on decisions.
#: v3: ``metric`` window records and the ``metrics`` rollup footer.
#: v4: ``recovery`` records for supervised service crash/restore cycles.
SCHEMA_VERSION = 4

Payload = Tuple[str, Dict[str, Any], Dict[str, Any]]


class APStateLike(Protocol):
    """The slice of an AP snapshot that decision provenance records."""

    @property
    def ap_id(self) -> str: ...

    @property
    def load(self) -> float: ...

    @property
    def users(self) -> Tuple[str, ...]: ...


class Candidate(NamedTuple):
    """One candidate AP as the deciding strategy saw it.

    A named tuple, not a dataclass: the service builds one per AP per
    decision, and the journal writer unpacks it positionally.
    """

    ap_id: str
    load: float
    users: int
    #: The strategy's own preference score (lower preferred); ``None``
    #: when the strategy exposes no score for this AP.
    score: Optional[float] = None


def candidates_from_states(
    aps: Sequence[APStateLike], scores: Dict[str, float]
) -> Tuple[Candidate, ...]:
    """Build the candidate tuple for a decision, ordered by AP id.

    Scores are coerced to ``float`` so journal lines round-trip exactly
    (``0`` and ``0.0`` serialize differently).
    """
    return tuple(
        Candidate(
            ap_id=ap.ap_id,
            load=float(ap.load),
            users=len(ap.users),
            score=None if ap.ap_id not in scores else float(scores[ap.ap_id]),
        )
        for ap in sorted(aps, key=lambda ap: ap.ap_id)
    )


@dataclass
class MetaRecord:
    """The journal header: schema version plus run metadata."""

    fields: Dict[str, Any] = field(default_factory=dict)

    def payload(self) -> Payload:
        data: Dict[str, Any] = {"format": SCHEMA_VERSION}
        for key in sorted(self.fields):
            data[key] = self.fields[key]
        return "meta", data, {}


@dataclass
class SpanRecord:
    """One closed span (see :class:`repro.obs.tracer.Span`)."""

    span_id: int
    parent_id: Optional[int]
    name: str
    depth: int
    sim_start: Optional[float] = None
    sim_end: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    wall_start: float = 0.0
    wall_elapsed: float = 0.0

    @property
    def sim_elapsed(self) -> Optional[float]:
        """Sim-time duration, when both bounds were recorded."""
        if self.sim_start is None or self.sim_end is None:
            return None
        return self.sim_end - self.sim_start

    def payload(self) -> Payload:
        data: Dict[str, Any] = {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "depth": self.depth,
            "sim_start": self.sim_start,
            "sim_end": self.sim_end,
            "attrs": {key: self.attrs[key] for key in sorted(self.attrs)},
        }
        wall = {"start": self.wall_start, "elapsed": self.wall_elapsed}
        return "span", data, wall


@dataclass
class DecisionRecord:
    """Full provenance of one association decision."""

    user_id: str
    strategy: str
    controller_id: str
    #: Which flush produced this decision (``"<controller>#<n>"`` in the
    #: replay engine, ``"query#<n>"`` in the prototype controller).
    batch_id: str
    #: Simulation time of the decision; ``None`` in the wall-time-driven
    #: prototype daemons.
    sim_time: Optional[float]
    chosen: str
    candidates: Tuple[Candidate, ...] = ()
    #: ``"batch"`` (Algorithm 1 flush), ``"single"`` (sequential arrival
    #: fallback) or ``"query"`` (prototype steering query).
    mode: str = "single"
    #: Degradation provenance (e.g. ``"fallback:llf:stale-model"``) when
    #: the decision came from a fallback path; omitted from the payload
    #: when ``None`` so clean runs keep their byte layout.
    note: Optional[str] = None



@dataclass
class SampleRecord:
    """One balance-index observation of a controller domain."""

    sim_time: float
    controller_id: str
    balance: float
    total_load: float
    users: int



@dataclass
class FaultRecord:
    """One injected fault firing, or a quarantined runtime worker failure.

    Replay-engine faults carry the sim time they fired at; runtime
    worker failures (kind ``"worker-failure"``) happen in wall time and
    carry ``sim_time=None``.  ``detail`` holds a small deterministic map
    (e.g. ``{"evicted": 4}`` for an AP outage, attempt counts for a
    worker failure) serialized with sorted keys.
    """

    sim_time: Optional[float]
    #: The fault-event kind tag (``repro.faults`` kinds or ``"worker-failure"``).
    kind: str
    #: What the fault acted on: an AP id, controller id, shard/task id.
    target: str
    #: The controller domain affected, when one applies.
    controller_id: Optional[str] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    def payload(self) -> Payload:
        data: Dict[str, Any] = {
            "sim_time": self.sim_time,
            "kind": self.kind,
            "target": self.target,
            "controller": self.controller_id,
            "detail": {key: self.detail[key] for key in sorted(self.detail)},
        }
        return "fault", data, {}


@dataclass
class RecoveryRecord:
    """One supervised crash/restore cycle of the controller service.

    Everything here is a property of *this particular* supervised run —
    where the crash fell relative to the last snapshot, how much of the
    write-ahead log had to be replayed — not of the event stream, so the
    entire payload serializes under ``"wall"`` and
    :func:`repro.obs.journal.strip_wall` drops the line: a crashed-and-
    recovered journal stays byte-identical to the uninterrupted one.
    """

    #: Sim time of the crash the supervisor recovered from.
    sim_time: float
    controller_id: str
    #: Sim-time lag of the restored snapshot behind the crash point.
    downtime: float
    #: Sequence number the restored snapshot had committed up to.
    snapshot_seq: int
    #: Write-ahead-log events resubmitted past the snapshot.
    replayed_events: int
    #: Association decisions re-derived during the replay.
    rederived_decisions: int

    def payload(self) -> Payload:
        wall: Dict[str, Any] = {
            "sim_time": self.sim_time,
            "controller": self.controller_id,
            "downtime": self.downtime,
            "snapshot_seq": self.snapshot_seq,
            "replayed_events": self.replayed_events,
            "rederived_decisions": self.rederived_decisions,
        }
        return "recovery", {}, wall


@dataclass
class PerfRecord:
    """The journal footer: a :mod:`repro.perf` registry snapshot.

    Counters are event counts and therefore deterministic for seeded
    runs; timer statistics are wall durations and live under ``"wall"``.
    """

    counters: Dict[str, float] = field(default_factory=dict)
    timers: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def payload(self) -> Payload:
        data: Dict[str, Any] = {
            "counters": {key: self.counters[key] for key in sorted(self.counters)}
        }
        wall: Dict[str, Any] = {
            "timers": {
                name: {
                    key: self.timers[name][key]
                    for key in ("calls", "total", "mean", "min", "max")
                    if key in self.timers[name]
                }
                for name in sorted(self.timers)
            }
        }
        return "perf", data, wall


@dataclass
class MetricRecord:
    """One metric series window (see :mod:`repro.obs.metrics`).

    ``scope`` picks the serialization side: ``"run"`` windows are
    deterministic and live under ``data``; ``"host"`` windows (wall
    durations, RSS, engine-shape-dependent counts) live under ``"wall"``
    with an empty ``data``, so :func:`repro.obs.journal.strip_wall`
    removes them without disturbing the run-scoped stream.
    """

    name: str
    #: ``"counter"``, ``"gauge"`` or ``"histogram"``.
    kind: str
    #: ``"run"`` (under ``data``) or ``"host"`` (under ``"wall"``).
    scope: str
    #: Window index: ``floor(sim_time / window_seconds)``.
    window: int
    #: Sim time at which the window opens.
    window_start: float
    labels: Tuple[Tuple[str, str], ...] = ()
    #: Counter: amount accumulated in the window.  Gauge: last value.
    value: Optional[float] = None
    #: Gauge only: sim time of the last set in the window.
    at: Optional[float] = None
    #: Histogram only: bucket upper bounds (``le``), +Inf implicit.
    buckets: Tuple[float, ...] = ()
    #: Histogram only: per-bucket counts, the +Inf bucket last.
    counts: Tuple[int, ...] = ()
    #: Histogram only: sum of observed values in the window.
    total: Optional[float] = None
    #: Histogram only: number of observations in the window.
    count: Optional[int] = None

    def payload(self) -> Payload:
        body: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "labels": {key: value for key, value in self.labels},
            "window": self.window,
            "start": self.window_start,
        }
        if self.kind == "counter":
            body["value"] = self.value
        elif self.kind == "gauge":
            body["value"] = self.value
            body["at"] = self.at
        else:
            body["buckets"] = list(self.buckets)
            body["counts"] = list(self.counts)
            body["sum"] = self.total
            body["count"] = self.count
        if self.scope == "run":
            return "metric", body, {}
        return "metric", {}, body


@dataclass
class MetricsRollupRecord:
    """The metrics footer: whole-run per-series totals.

    Series keys are rendered ``name`` or ``name{k=v,...}``; run-scoped
    totals live under ``data`` and host-scoped ones under ``"wall"``.
    """

    window_seconds: float = 0.0
    run_series: Dict[str, Dict[str, float]] = field(default_factory=dict)
    host_series: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def payload(self) -> Payload:
        data: Dict[str, Any] = {
            "window_seconds": self.window_seconds,
            "series": {
                key: {
                    name: self.run_series[key][name]
                    for name in sorted(self.run_series[key])
                }
                for key in sorted(self.run_series)
            },
        }
        wall: Dict[str, Any] = {}
        if self.host_series:
            wall["series"] = {
                key: {
                    name: self.host_series[key][name]
                    for name in sorted(self.host_series[key])
                }
                for key in sorted(self.host_series)
            }
        return "metrics", data, wall


JournalRecord = Union[
    MetaRecord,
    SpanRecord,
    DecisionRecord,
    SampleRecord,
    FaultRecord,
    RecoveryRecord,
    PerfRecord,
    MetricRecord,
    MetricsRollupRecord,
]


def record_from_payload(
    kind: str, data: Dict[str, Any], wall: Dict[str, Any]
) -> JournalRecord:
    """Reconstruct the typed record for one parsed journal line."""
    if kind == "meta":
        fields = {key: value for key, value in data.items() if key != "format"}
        return MetaRecord(fields=fields)
    if kind == "span":
        return SpanRecord(
            span_id=int(data["id"]),
            parent_id=None if data["parent"] is None else int(data["parent"]),
            name=str(data["name"]),
            depth=int(data["depth"]),
            sim_start=data["sim_start"],
            sim_end=data["sim_end"],
            attrs=dict(data["attrs"]),
            wall_start=float(wall.get("start", 0.0)),
            wall_elapsed=float(wall.get("elapsed", 0.0)),
        )
    if kind == "decision":
        candidates = tuple(
            Candidate(
                ap_id=str(c["ap"]),
                load=float(c["load"]),
                users=int(c["users"]),
                score=None if c["score"] is None else float(c["score"]),
            )
            for c in data["candidates"]
        )
        return DecisionRecord(
            user_id=str(data["user"]),
            strategy=str(data["strategy"]),
            controller_id=str(data["controller"]),
            batch_id=str(data["batch"]),
            sim_time=data["sim_time"],
            chosen=str(data["chosen"]),
            candidates=candidates,
            mode=str(data["mode"]),
            note=None if data.get("note") is None else str(data["note"]),
        )
    if kind == "fault":
        return FaultRecord(
            sim_time=data["sim_time"],
            kind=str(data["kind"]),
            target=str(data["target"]),
            controller_id=(
                None if data["controller"] is None else str(data["controller"])
            ),
            detail=dict(data["detail"]),
        )
    if kind == "sample":
        return SampleRecord(
            sim_time=float(data["sim_time"]),
            controller_id=str(data["controller"]),
            balance=float(data["balance"]),
            total_load=float(data["total_load"]),
            users=int(data["users"]),
        )
    if kind == "recovery":
        return RecoveryRecord(
            sim_time=float(wall["sim_time"]),
            controller_id=str(wall["controller"]),
            downtime=float(wall["downtime"]),
            snapshot_seq=int(wall["snapshot_seq"]),
            replayed_events=int(wall["replayed_events"]),
            rederived_decisions=int(wall["rederived_decisions"]),
        )
    if kind == "perf":
        return PerfRecord(
            counters=dict(data.get("counters", {})),
            timers={
                name: dict(stats)
                for name, stats in wall.get("timers", {}).items()
            },
        )
    if kind == "metric":
        scope = "run" if data else "host"
        body = data if data else wall
        record = MetricRecord(
            name=str(body["name"]),
            kind=str(body["kind"]),
            scope=scope,
            window=int(body["window"]),
            window_start=float(body["start"]),
            labels=tuple(sorted(
                (str(key), str(value))
                for key, value in body.get("labels", {}).items()
            )),
        )
        if record.kind == "histogram":
            record.buckets = tuple(float(b) for b in body["buckets"])
            record.counts = tuple(int(c) for c in body["counts"])
            record.total = float(body["sum"])
            record.count = int(body["count"])
        else:
            record.value = float(body["value"])
            if record.kind == "gauge":
                record.at = float(body["at"])
        return record
    if kind == "metrics":
        return MetricsRollupRecord(
            window_seconds=float(data.get("window_seconds", 0.0)),
            run_series={
                key: dict(fields)
                for key, fields in data.get("series", {}).items()
            },
            host_series={
                key: dict(fields)
                for key, fields in wall.get("series", {}).items()
            },
        )
    raise ValueError(f"unknown journal record type {kind!r}")
