"""JSONL run-journal writer, reader and wall-time stripper.

A journal is one JSON object per line, in this order: a ``meta`` header,
the tracer's records (spans, decisions, samples) in completion order,
and a ``perf`` footer.  Serialization is deterministic — fixed key order,
compact separators — so two same-seed runs produce byte-identical
journals once :func:`strip_wall` has removed the ``"wall"`` key (the only
place wall-clock values are allowed to appear).

There is one writing path.  :func:`open_journal` writes the meta line
and attaches a :class:`JournalWriter` to the tracer, which from then on
writes every record as its line the moment the record completes;
:func:`close_journal` appends the metric block and the perf footer and
closes the file.  Long-running services stream this way, so their
memory stays flat and their checkpoints hold a byte offset instead of a
copy of the history.  :func:`write_journal` is the same path run at
exit over the records an unstreamed tracer kept in memory:

    from repro import obs, perf
    from repro.obs.journal import write_journal, read_journal

    obs.enable()
    ...                                  # instrumented run
    write_journal("run.jsonl", meta={"preset": "tiny"})
    journal = read_journal("run.jsonl")
    print(len(journal.spans), len(journal.decisions))
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.obs import metrics as metrics_module

from repro import perf as perf_module
from repro.obs.records import (
    DecisionRecord,
    FaultRecord,
    JournalRecord,
    MetaRecord,
    MetricRecord,
    MetricsRollupRecord,
    PerfRecord,
    RecoveryRecord,
    SampleRecord,
    SpanRecord,
    record_from_payload,
)
from repro.obs.tracer import TRACER, Tracer

#: Compact, stable separators — part of the byte-format contract.
_SEPARATORS = (",", ":")
#: One encoder for every line (``json.dumps`` with non-default options
#: builds a new one per call).
_ENCODER = json.JSONEncoder(separators=_SEPARATORS)

#: Most floats a decision line writes were written before: one service
#: run prints ~30k candidate values but only ~5k distinct loads and a few
#: hundred distinct scores.  Their ``repr`` text is kept here, and the
#: memo is emptied rather than evicted from once it holds this many.  It
#: only saves work — a line is the same text with any content in it — so
#: one memo serves the whole process.  Times (a decision's flush time,
#: WAL and sample event times), rates and balances seldom repeat, so
#: they are rendered without it and cannot push the candidate values out.
_FLOAT_MEMO_SIZE = 4096
_FLOAT_TEXT: Dict[float, str] = {}
_INF = float("inf")


def _float_text(value: float) -> str:
    """``value`` as the encoder writes a float.

    NaN and the infinities keep the encoder's ``NaN``/``Infinity``.
    """
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def json_scalar(value: Any) -> str:
    """The JSON text the line encoder writes for one scalar ``value``.

    ``str``, ``float``, ``int`` and ``None`` are written here; any other
    type (``bool``, numpy scalars, containers) goes to the encoder.
    """
    kind = type(value)
    if kind is float:
        return _float_text(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return repr(value)
    if value is None:
        return "null"
    return _ENCODER.encode(value)


def memo_scalar(value: Any) -> str:
    """:func:`json_scalar`, with float texts kept in the memo.

    ``0.0`` and ``-0.0`` are equal keys, so zeros never enter the memo,
    and neither does NaN, which equals no key.
    """
    if type(value) is not float:
        return json_scalar(value)
    text = _FLOAT_TEXT.get(value)
    if text is None:
        text = _float_text(value)
        if value != 0.0 and value == value:
            if len(_FLOAT_TEXT) >= _FLOAT_MEMO_SIZE:
                _FLOAT_TEXT.clear()
            _FLOAT_TEXT[value] = text
    return text


def _decision_line(record: DecisionRecord) -> str:
    text = json_scalar
    number = memo_scalar
    candidates = ",".join([
        f'{{"ap":{text(ap_id)},"load":{number(load)},'
        f'"users":{text(users)},"score":{number(score)}}}'
        for ap_id, load, users, score in record.candidates
    ])
    note = "" if record.note is None else f',"note":{text(record.note)}'
    return (
        f'{{"type":"decision","data":{{"user":{text(record.user_id)},'
        f'"strategy":{text(record.strategy)},'
        f'"controller":{text(record.controller_id)},'
        f'"batch":{text(record.batch_id)},'
        f'"sim_time":{text(record.sim_time)},'
        f'"chosen":{text(record.chosen)},"mode":{text(record.mode)}{note},'
        f'"candidates":[{candidates}]}}}}'
    )


def _sample_line(record: SampleRecord) -> str:
    text = json_scalar
    return (
        f'{{"type":"sample","data":{{"sim_time":{text(record.sim_time)},'
        f'"controller":{text(record.controller_id)},'
        f'"balance":{text(record.balance)},'
        f'"total_load":{text(record.total_load)},'
        f'"users":{text(record.users)}}}}}'
    )


def dumps_record(record: JournalRecord) -> str:
    """One journal line (no newline) for ``record``.

    Decisions and samples — one per service event — are assembled
    straight from their fields; every other kind is its ``payload()``
    through the encoder.  The bytes are the encoder's either way.
    """
    if isinstance(record, DecisionRecord):
        return _decision_line(record)
    if isinstance(record, SampleRecord):
        return _sample_line(record)
    kind, data, wall = record.payload()
    obj: Dict[str, Any] = {"type": kind, "data": data}
    if wall:
        obj["wall"] = wall
    return _ENCODER.encode(obj)


def perf_snapshot(registry: Optional[perf_module.PerfRegistry] = None) -> PerfRecord:
    """A :class:`PerfRecord` footer from ``registry`` (global by default)."""
    registry = registry if registry is not None else perf_module.PERF
    timers: Dict[str, Dict[str, float]] = {}
    for name, stat in registry.timers().items():
        timers[name] = {
            "calls": float(stat.calls),
            "total": stat.total,
            "mean": stat.mean,
            "min": stat.minimum if stat.calls else 0.0,
            "max": stat.maximum,
        }
    return PerfRecord(counters=registry.counters(), timers=timers)


def render_journal(records: List[JournalRecord]) -> str:
    """The full journal text (trailing newline included) for ``records``."""
    return "".join(dumps_record(record) + "\n" for record in records)


class JournalWriter:
    """A journal file open for streaming: the tracer's :class:`JournalSink`.

    Lines go through one buffered binary handle; :meth:`tell` is the
    byte offset of the next line, so a checkpoint can record how far the
    journal had got and :meth:`truncate` can roll it back there.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle = self.path.open("wb")

    def write(self, record: JournalRecord) -> None:
        self._handle.write(dumps_record(record).encode("utf-8") + b"\n")

    def tell(self) -> int:
        return self._handle.tell()

    def flush(self) -> None:
        self._handle.flush()

    def truncate(self, offset: int) -> None:
        # truncate() leaves the position where it was; without the seek
        # the next write would land past the end and leave a NUL hole.
        self._handle.truncate(offset)
        self._handle.seek(offset)

    def close(self) -> None:
        self._handle.close()


def open_journal(
    path: Union[str, Path],
    meta: Optional[Dict[str, Any]] = None,
    tracer: Optional[Tracer] = None,
) -> JournalWriter:
    """Start streaming ``tracer`` (global by default) into ``path``.

    Writes the meta header, then attaches the writer: every record the
    tracer completes from here on is written as it completes.
    """
    tracer = tracer if tracer is not None else TRACER
    if tracer.sink is not None:
        raise RuntimeError("the tracer already streams to a journal")
    writer = JournalWriter(path)
    writer.write(MetaRecord(fields=dict(meta or {})))
    tracer.attach(writer)
    return writer


def close_journal(
    tracer: Optional[Tracer] = None,
    perf_registry: Optional[perf_module.PerfRegistry] = None,
    metrics_registry: Optional["metrics_module.MetricsRegistry"] = None,
) -> Path:
    """Finish the journal ``tracer`` streams to; returns its path.

    Appends the metric block (per-window records sorted by
    name/labels/window, then the ``metrics`` rollup — only when the
    registry holds series, so metrics-off journals keep their byte
    layout) and the perf footer, then detaches and closes the file.
    Registries default to the global ones.
    """
    from repro.obs import metrics as metrics_module

    tracer = tracer if tracer is not None else TRACER
    writer = tracer.sink
    if not isinstance(writer, JournalWriter):
        raise RuntimeError("the tracer is not streaming to a journal")
    registry = (
        metrics_registry
        if metrics_registry is not None
        else metrics_module.REGISTRY
    )
    try:
        if registry:
            for record in metrics_module.metric_records(registry):
                writer.write(record)
            writer.write(metrics_module.metrics_rollup(registry))
        writer.write(perf_snapshot(perf_registry))
    finally:
        tracer.detach()
        writer.close()
    return writer.path


@contextmanager
def streamed_journal(
    path: Union[str, Path],
    meta: Optional[Dict[str, Any]] = None,
    tracer: Optional[Tracer] = None,
    perf_registry: Optional[perf_module.PerfRegistry] = None,
    metrics_registry: Optional["metrics_module.MetricsRegistry"] = None,
) -> Iterator[JournalWriter]:
    """:func:`open_journal` on entry, :func:`close_journal` on exit.

    If the block raises, the writer is detached and closed without the
    footers — the journal ends where the failed run stopped, and no later
    run can write into it.
    """
    tracer = tracer if tracer is not None else TRACER
    writer = open_journal(path, meta, tracer)
    try:
        yield writer
    except BaseException:
        tracer.detach()
        writer.close()
        raise
    close_journal(tracer, perf_registry, metrics_registry)


def write_journal(
    path: Union[str, Path],
    tracer: Optional[Tracer] = None,
    perf_registry: Optional[perf_module.PerfRegistry] = None,
    meta: Optional[Dict[str, Any]] = None,
    metrics_registry: Optional["metrics_module.MetricsRegistry"] = None,
) -> Path:
    """Write header + tracer records + metric windows + footers to ``path``.

    The at-exit form of a streamed journal: opens ``path``, writes the
    records ``tracer`` kept in memory, and closes it — the same framing
    and the same bytes as if the run had streamed.  Defaults to the
    global tracer, metrics registry and perf registry; returns the path
    written.  The tracer's records are left in place.
    """
    tracer = tracer if tracer is not None else TRACER
    with streamed_journal(
        path, meta, tracer, perf_registry, metrics_registry
    ) as writer:
        for record in tracer.records:
            writer.write(record)
    return writer.path


@dataclass
class Journal:
    """A parsed journal, with records split by kind."""

    meta: Dict[str, Any] = field(default_factory=dict)
    records: List[JournalRecord] = field(default_factory=list)
    spans: List[SpanRecord] = field(default_factory=list)
    decisions: List[DecisionRecord] = field(default_factory=list)
    samples: List[SampleRecord] = field(default_factory=list)
    faults: List[FaultRecord] = field(default_factory=list)
    recoveries: List[RecoveryRecord] = field(default_factory=list)
    metrics: List[MetricRecord] = field(default_factory=list)
    metrics_rollup: Optional[MetricsRollupRecord] = None
    perf: Optional[PerfRecord] = None


def parse_journal(text: str) -> Journal:
    """Parse journal text into typed records."""
    journal = Journal()
    for line in text.splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        record = record_from_payload(
            obj["type"], obj.get("data", {}), obj.get("wall", {})
        )
        journal.records.append(record)
        if isinstance(record, MetaRecord):
            journal.meta.update(record.fields)
        elif isinstance(record, SpanRecord):
            journal.spans.append(record)
        elif isinstance(record, DecisionRecord):
            journal.decisions.append(record)
        elif isinstance(record, SampleRecord):
            journal.samples.append(record)
        elif isinstance(record, FaultRecord):
            journal.faults.append(record)
        elif isinstance(record, RecoveryRecord):
            journal.recoveries.append(record)
        elif isinstance(record, MetricRecord):
            journal.metrics.append(record)
        elif isinstance(record, MetricsRollupRecord):
            journal.metrics_rollup = record
        elif isinstance(record, PerfRecord):
            journal.perf = record
    return journal


def read_journal(path: Union[str, Path]) -> Journal:
    """Load and parse the journal at ``path``."""
    return parse_journal(Path(path).read_text(encoding="utf-8"))


def strip_wall(text: str) -> str:
    """Journal text with every record's ``"wall"`` key removed.

    The result of two same-seed runs is byte-identical; diff these, not
    the raw files.
    """
    lines: List[str] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        obj.pop("wall", None)
        if obj.get("type") in ("metric", "recovery") and not obj.get("data"):
            # Host-scoped metric windows and recovery records live
            # entirely under "wall"; nothing deterministic remains, so
            # the line itself goes.
            continue
        lines.append(_ENCODER.encode(obj))
    return "".join(line + "\n" for line in lines)
