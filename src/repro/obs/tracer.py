"""Span tracing with an explicit simulation clock.

The tracer is the collection point of :mod:`repro.obs`: spans, decision
records and balance samples reach one process-global :class:`Tracer` in
completion order, and the journal writer serializes them verbatim —
which is what makes seeded runs byte-reproducible.  By default the
tracer keeps them in :attr:`Tracer.records` until the journal is written
at exit; with a :class:`JournalSink` attached (a streamed journal, see
:func:`repro.obs.journal.open_journal`) each record is written as its
journal line the moment it completes and nothing accumulates in memory.

Two clocks, two rules:

* **sim time** is always *explicit*.  A span never reads a clock of its
  own; the caller either passes ``sim_time=`` (the start instant) and/or
  ``clock=`` (a zero-arg callable, typically ``lambda: sim.now``, polled
  once more when the span closes), or assigns ``span.sim_start`` /
  ``span.sim_end`` directly.  This keeps the kernel, the replay engine
  and the trace generator free of any wall-clock dependency.
* **wall time** is read exclusively through :mod:`repro.obs._clock`, the
  one module the ``no-wallclock`` lint rule allowlists, and is stored
  separately so journals can be diffed without it.

The tracer is *disabled* by default: ``span()`` then returns a shared
no-op span and ``decision()``/``sample()`` return immediately, so the
instrumentation in the hot paths costs one attribute check per call
site.  Enable it (``obs.enable()``) before a run you want journaled.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import TracebackType
from typing import Any, Callable, Dict, List, Optional, Protocol, Type, Union

from repro.obs._clock import wall_time
from repro.obs.records import (
    DecisionRecord,
    FaultRecord,
    PerfRecord,
    RecoveryRecord,
    SampleRecord,
    SpanRecord,
)

TracedRecord = Union[
    SpanRecord,
    DecisionRecord,
    SampleRecord,
    FaultRecord,
    RecoveryRecord,
    PerfRecord,
]


class Span:
    """One live span; close it by leaving its ``with`` block.

    ``sim_start`` / ``sim_end`` may be assigned at any point before the
    span closes; ``set()`` attaches attributes.  The span records itself
    with its tracer when it closes.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "depth",
        "sim_start",
        "sim_end",
        "attrs",
        "_tracer",
        "_clock",
        "_wall_start",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        depth: int,
        sim_time: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.sim_start: Optional[float] = sim_time
        self.sim_end: Optional[float] = None
        self.attrs: Dict[str, Any] = {}
        self._tracer = tracer
        self._clock = clock
        self._wall_start = 0.0
        if clock is not None and self.sim_start is None:
            self.sim_start = clock()

    def set(self, **attrs: Any) -> "Span":
        """Attach journal attributes to this span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._wall_start = wall_time()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if self.sim_end is None and self._clock is not None:
            self.sim_end = self._clock()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self, wall_time() - self._wall_start)


class _NullSpan:
    """The shared no-op span handed out by a disabled tracer."""

    __slots__ = ("sim_start", "sim_end")

    def __init__(self) -> None:
        self.sim_start: Optional[float] = None
        self.sim_end: Optional[float] = None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        return None


#: The singleton returned by every ``span()`` call on a disabled tracer.
NULL_SPAN = _NullSpan()

AnySpan = Union[Span, _NullSpan]


class JournalSink(Protocol):
    """Where a streaming tracer writes each record as it completes.

    Implemented by :class:`repro.obs.journal.JournalWriter`; the tracer
    only ever calls these four methods.
    """

    def write(self, record: TracedRecord) -> None:
        """Append ``record`` as one journal line."""

    def tell(self) -> int:
        """The byte offset the next line will be written at."""

    def flush(self) -> None:
        """Hand every written line to the operating system."""

    def truncate(self, offset: int) -> None:
        """Drop every byte past ``offset`` and continue writing there."""


@dataclass
class TracerState:
    """A point-in-time capture of a tracer (checkpointable).

    Holds no records: a checkpointed tracer streams its journal, so the
    byte ``offset`` the journal had reached stands for everything
    recorded up to the capture.
    """

    enabled: bool = False
    next_id: int = 0
    offset: int = 0


class Tracer:
    """Process-wide collector of spans, decisions and samples."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        #: Completed records in completion order — the journal body,
        #: kept in memory only while no sink is attached.
        self.records: List[TracedRecord] = []
        #: The streamed journal records are written to, if any.
        self.sink: Optional[JournalSink] = None
        self._stack: List[Span] = []
        self._next_id = 0

    # ------------------------------------------------------------- recording

    def span(
        self,
        name: str,
        sim_time: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
        **attrs: Any,
    ) -> AnySpan:
        """Open a span (use as a context manager).

        ``sim_time`` fixes the span's sim start; ``clock`` is polled for
        the missing bound(s) — once immediately for ``sim_start`` when
        ``sim_time`` is not given, once at close for ``sim_end`` unless
        the caller assigned it.  Keyword attributes are journaled as-is.
        """
        if not self.enabled:
            return NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        span = Span(
            tracer=self,
            name=name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            depth=len(self._stack),
            sim_time=sim_time,
            clock=clock,
        )
        self._next_id += 1
        if attrs:
            span.attrs.update(attrs)
        self._stack.append(span)
        return span

    def _finish(self, span: Span, wall_elapsed: float) -> None:
        """Close ``span`` (spans close strictly LIFO) and record it."""
        while self._stack and self._stack[-1] is not span:
            # A span leaked out of its nesting (caller never closed an
            # inner span); drop the strays rather than corrupt the stack.
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        self._emit(
            SpanRecord(
                span_id=span.span_id,
                parent_id=span.parent_id,
                name=span.name,
                depth=span.depth,
                sim_start=span.sim_start,
                sim_end=span.sim_end,
                attrs=dict(span.attrs),
                wall_start=span._wall_start,
                wall_elapsed=wall_elapsed,
            )
        )

    def inject(self, records: List[TracedRecord]) -> None:
        """Append pre-built records (a merged journal fragment) verbatim.

        Used by :mod:`repro.runtime` to splice canonically ordered,
        renumbered worker records into the parent's journal.  The id
        allocator is advanced past every injected span id so spans opened
        afterwards cannot collide.
        """
        if not self.enabled:
            return
        for record in records:
            self._emit(record)
            if isinstance(record, SpanRecord) and record.span_id >= self._next_id:
                self._next_id = record.span_id + 1

    def decision(self, record: DecisionRecord) -> None:
        """Journal one association decision (no-op when disabled)."""
        if self.enabled:
            self._emit(record)

    def sample(self, record: SampleRecord) -> None:
        """Journal one balance-index sample (no-op when disabled)."""
        if self.enabled:
            self._emit(record)

    def fault(self, record: FaultRecord) -> None:
        """Journal one fault firing (no-op when disabled)."""
        if self.enabled:
            self._emit(record)

    def recovery(self, record: RecoveryRecord) -> None:
        """Journal one crash/restore cycle (no-op when disabled)."""
        if self.enabled:
            self._emit(record)

    def _emit(self, record: TracedRecord) -> None:
        """Stream ``record`` to the sink, or keep it when there is none."""
        if self.sink is None:
            self.records.append(record)
        else:
            self.sink.write(record)

    # ------------------------------------------------------------- querying

    # The queries below read the in-memory records; a streaming tracer
    # has none — read its journal back instead.

    def spans(self) -> List[SpanRecord]:
        """All closed spans, in completion order."""
        return [r for r in self.records if isinstance(r, SpanRecord)]

    def decisions(self) -> List[DecisionRecord]:
        """All decision records, in emission order."""
        return [r for r in self.records if isinstance(r, DecisionRecord)]

    def samples(self) -> List[SampleRecord]:
        """All balance samples, in emission order."""
        return [r for r in self.records if isinstance(r, SampleRecord)]

    def faults(self) -> List[FaultRecord]:
        """All fault records, in emission order."""
        return [r for r in self.records if isinstance(r, FaultRecord)]

    # ------------------------------------------------------------ lifecycle

    def reset(self) -> None:
        """Drop every record and any half-open span state."""
        self.records.clear()
        self._stack.clear()
        self._next_id = 0

    def attach(self, sink: JournalSink) -> None:
        """Stream every record completed from now on to ``sink``."""
        if self.sink is not None:
            raise RuntimeError("the tracer already streams to a journal")
        self.sink = sink

    def detach(self) -> Optional[JournalSink]:
        """Stop streaming; returns the sink that was attached, if any."""
        sink, self.sink = self.sink, None
        return sink

    def tell(self) -> int:
        """The journal byte offset the next record lands at (0 unstreamed)."""
        return self.sink.tell() if self.sink is not None else 0

    def export_state(self) -> "TracerState":
        """A checkpointable capture: lifecycle, id allocator, journal offset.

        The sink is flushed first, so every line before the offset has
        left the process.  Half-open spans are deliberately not captured
        — a checkpoint boundary never falls inside one in the supervised
        service, and a restored tracer must start with a clean stack.  An
        enabled tracer without a sink raises: its history lives only in
        :attr:`records`, and a capture proportional to history is exactly
        what streaming exists to avoid.
        """
        if self.sink is not None:
            self.sink.flush()
        elif self.enabled:
            raise RuntimeError(
                "an enabled tracer without a journal sink cannot be "
                "checkpointed; stream its journal (open_journal) first"
            )
        return TracerState(
            enabled=self.enabled, next_id=self._next_id, offset=self.tell()
        )

    def restore_state(self, state: "TracerState") -> None:
        """Roll this tracer back to a previously exported state.

        The streamed journal is truncated to the captured offset, so the
        lines written after the capture are gone and the next record is
        written where the capture left off.
        """
        if self.sink is not None:
            self.sink.truncate(state.offset)
        elif state.enabled:
            raise RuntimeError(
                "restoring an enabled tracer needs its journal sink attached"
            )
        self.enabled = state.enabled
        self._stack.clear()
        self._next_id = state.next_id


#: The process-global tracer every instrumented layer records into.
TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer."""
    return TRACER


def span(
    name: str,
    sim_time: Optional[float] = None,
    clock: Optional[Callable[[], float]] = None,
    **attrs: Any,
) -> AnySpan:
    """Open a span on the global tracer."""
    return TRACER.span(name, sim_time=sim_time, clock=clock, **attrs)


def decision(record: DecisionRecord) -> None:
    """Record a decision on the global tracer."""
    TRACER.decision(record)


def sample(record: SampleRecord) -> None:
    """Record a balance sample on the global tracer."""
    TRACER.sample(record)


def fault(record: FaultRecord) -> None:
    """Record a fault firing on the global tracer."""
    TRACER.fault(record)


def recovery(record: RecoveryRecord) -> None:
    """Record a crash/restore cycle on the global tracer."""
    TRACER.recovery(record)


def enable(reset: bool = True) -> Tracer:
    """Turn the global tracer on (fresh by default); returns it."""
    if reset:
        TRACER.reset()
    TRACER.enabled = True
    return TRACER


def disable() -> Tracer:
    """Turn the global tracer off (records are kept); returns it."""
    TRACER.enabled = False
    return TRACER
