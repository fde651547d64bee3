"""Discrete-event simulation kernel.

The kernel implements the classic event-list algorithm: a priority queue of
timestamped events, a clock that only moves forward when an event is popped,
and a run loop that dispatches callbacks.  The design goals, in order:

1. **Determinism.**  Events scheduled for the same instant fire in a stable,
   reproducible order (``priority`` first, then insertion sequence).  This is
   what makes the trace generator and the WLAN simulator replayable.
2. **Simplicity.**  No coroutine magic; an event is a plain callback.  The
   higher layers (association manager, schedule engine) build their own
   abstractions on top.
3. **Safety.**  Scheduling into the past, running a stopped simulator, or
   re-cancelling an event raise :class:`SimulationError` instead of silently
   corrupting the timeline.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Set, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs.tracer import get_tracer


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation kernel."""


@dataclass(order=True)
class Event:
    """A scheduled callback with a handle, for callers that may cancel it.

    Events are ordered by ``(time, priority, seq)``.  ``priority`` lets a
    caller force ordering between events at the same instant (lower fires
    first); ``seq`` is a monotonically increasing insertion counter that
    guarantees a stable order among equal-priority simultaneous events.
    One-shot callbacks that are never cancelled go on the queue without
    an ``Event`` (:meth:`EventQueue.post`).
    """

    time: float
    priority: int
    seq: int
    action: Callable[[], None] = field(compare=False)
    name: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)
    #: The queue's cancelled-seq set while this event is queued, else None.
    _queued_in: Optional[Set[int]] = field(
        default=None, compare=False, repr=False
    )

    def __call__(self) -> None:
        """Fire: the event has left its queue."""
        self._queued_in = None
        self.action()

    def cancel(self) -> None:
        """Mark this event so the run loop skips it.

        Cancellation is lazy: the entry stays in the heap, but the run loop
        drops it unprocessed.  Cancelling twice raises, because double-cancel
        is almost always a bookkeeping bug in the caller.
        """
        if self.cancelled:
            raise SimulationError(f"event {self.name or self.seq} already cancelled")
        self.cancelled = True
        if self._queued_in is not None:
            self._queued_in.add(self.seq)


class EventQueue:
    """A stable min-heap of scheduled callbacks.

    Entries are ``(time, priority, seq, action)`` tuples, so every heap
    comparison is a C-level tuple comparison — ``seq`` is unique, so the
    ordering never falls through to the action.  ``action`` is the bare
    callable for a one-shot :meth:`post`, or the :class:`Event` handle
    (itself callable) for a :meth:`push`.  Cancelled entries are
    remembered by ``seq`` and dropped when they reach the top: at replay
    scale most entries are one-shots, and none of them pays for an
    ``Event`` or a per-entry cancelled check.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        #: Seqs of cancelled entries still in the heap.
        self._cancelled: Set[int] = set()

    def __len__(self) -> int:
        return len(self._heap) - len(self._cancelled)

    def push(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Insert an event and return the handle (usable for cancellation)."""
        seq = next(self._counter)
        event = Event(time, priority, seq, action, name, False, self._cancelled)
        heapq.heappush(self._heap, (time, priority, seq, event))
        return event

    def post(
        self, time: float, action: Callable[[], None], priority: int = 0
    ) -> int:
        """Insert a one-shot callback without a handle; returns its seq.

        Only :meth:`cancel` with that seq can withdraw it.
        """
        seq = next(self._counter)
        heapq.heappush(self._heap, (time, priority, seq, action))
        return seq

    def cancel(self, seq: int) -> None:
        """Withdraw the :meth:`post` entry ``seq``, which must still be
        queued (a popped seq would stay counted as cancelled)."""
        self._cancelled.add(seq)

    def _drop_cancelled_head(self) -> bool:
        """Pop the top entry if it is cancelled; True when one was popped."""
        seq = self._heap[0][2]
        if seq not in self._cancelled:
            return False
        heapq.heappop(self._heap)
        self._cancelled.discard(seq)
        return True

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        A one-shot entry comes back as a fresh :class:`Event` (unnamed).
        Raises :class:`SimulationError` when the queue holds no live events.
        """
        while self._heap:
            if self._drop_cancelled_head():
                continue
            time, priority, seq, action = heapq.heappop(self._heap)
            if isinstance(action, Event):
                action._queued_in = None
                return action
            return Event(time, priority, seq, action)
        raise SimulationError("pop from an empty event queue")

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the next live event, or ``None`` if empty."""
        while self._heap and self._drop_cancelled_head():
            pass
        if not self._heap:
            return None
        return self._heap[0][0]

    def clear(self) -> None:
        """Drop every queued event."""
        for entry in self._heap:
            if isinstance(entry[3], Event):
                entry[3]._queued_in = None
        self._heap.clear()
        self._cancelled.clear()

    def __iter__(self) -> Iterator[Event]:
        """Iterate over live events in heap (not chronological) order."""
        for time, priority, seq, action in self._heap:
            if seq in self._cancelled:
                continue
            yield action if isinstance(action, Event) else Event(
                time, priority, seq, action
            )


class _Periodic:
    """The ticks of one :meth:`Simulator.every`: each fires the action and
    posts the next, ``interval`` after its own time, straight onto the
    queue (``interval`` is validated positive, so the past-time check is
    redundant on this per-tick path).

    A queued tick and its queue refer to each other.  :meth:`stop` drops
    the action and, unless a tick is firing, the queue: a stopped
    periodic holds nothing, and a simulator freed after its run leaves
    no reference cycle behind.
    """

    __slots__ = ("_queue", "_action", "_interval", "_priority", "_time", "_queued")

    def __init__(
        self,
        queue: EventQueue,
        action: Callable[[], None],
        interval: float,
        priority: int,
        first: float,
    ) -> None:
        self._queue: Optional[EventQueue] = queue
        self._action: Optional[Callable[[], None]] = action
        self._interval = interval
        self._priority = priority
        self._time = first
        #: The seq of the queued tick: None while a tick fires or once
        #: stopped.
        self._queued: Optional[int] = queue.post(first, self, priority)

    def __call__(self) -> None:
        self._queued = None
        action = self._action
        if action is None:
            self._queue = None
            return
        action()
        queue = self._queue
        assert queue is not None
        self._time += self._interval
        self._queued = queue.post(self._time, self, self._priority)

    def stop(self) -> None:
        """Cancel the periodic firing."""
        self._action = None
        if self._queued is not None:
            assert self._queue is not None
            self._queue.cancel(self._queued)
            self._queued = None
            self._queue = None


class Simulator:
    """The discrete-event run loop.

    Typical use::

        sim = Simulator()
        sim.schedule(10.0, lambda: print("fires at t=10"))
        sim.every(60.0, sample_load, start=0.0)   # periodic sampler
        sim.run(until=3600.0)
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of live events still scheduled."""
        return len(self._queue)

    def schedule(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``action`` at absolute simulation time ``time``."""
        if time < self._now:
            raise self._past(time)
        return self._queue.push(time, action, priority=priority, name=name)

    def post(
        self, time: float, action: Callable[[], None], priority: int = 0
    ) -> None:
        """Schedule a one-shot ``action`` at ``time`` with no handle.

        It fires in the same ``(time, priority, seq)`` order as a
        :meth:`schedule`, but builds no :class:`Event` and cannot be
        cancelled: the form for the bulk of a replay's events.
        """
        if time < self._now:
            raise self._past(time)
        self._queue.post(time, action, priority)

    def _past(self, time: float) -> SimulationError:
        return SimulationError(
            f"cannot schedule at t={time:.3f}, clock already at t={self._now:.3f}"
        )

    def schedule_after(
        self,
        delay: float,
        action: Callable[[], None],
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``action`` after a relative ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self._queue.push(self._now + delay, action, priority=priority, name=name)

    def every(
        self,
        interval: float,
        action: Callable[[], None],
        start: Optional[float] = None,
        priority: int = 0,
    ) -> Callable[[], None]:
        """Schedule ``action`` periodically; returns a stopper callable.

        The first firing happens at ``start`` (defaulting to ``now +
        interval``); subsequent firings every ``interval`` seconds until the
        returned stopper is invoked or the run horizon is reached.  Each
        tick is a one-shot :meth:`post` entry; the stopper cancels the
        queued one.  A stopper called from inside ``action`` takes effect
        from the next tick, which still fires (as a no-op).
        """
        if interval <= 0:
            raise SimulationError(f"non-positive interval {interval!r}")
        first = self._now + interval if start is None else start
        if first < self._now:
            raise self._past(first)
        return _Periodic(self._queue, action, interval, priority, first).stop

    def stop(self) -> None:
        """Request the run loop to exit after the current event."""
        self._stopped = True

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains or ``until`` is reached.

        When ``until`` is given the clock is advanced exactly to ``until``
        even if the last event fires earlier, so periodic samplers and load
        series have a well-defined horizon.  Returns the final clock value.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        self._stopped = False
        first_event = self.events_processed
        # Explicit-clock span: the kernel hands the tracer its own sim
        # clock, keeping this module free of any wall-time dependency.
        with get_tracer().span(
            "sim.run", sim_time=self._now, clock=lambda: self._now
        ) as span:
            try:
                # The dispatch loop touches the queue's heap directly:
                # at replay scale the ``peek_time()``/``pop()`` method
                # pair costs a measurable slice of every run.  Semantics
                # are identical — drop cancelled entries unprocessed,
                # stop at the horizon, pop and dispatch.
                heap = self._queue._heap
                cancelled = self._queue._cancelled
                heappop = heapq.heappop
                horizon = math.inf if until is None else until
                # Metrics are host-scoped here (they count the kernel's
                # own work, which an engine refactor may move without
                # moving any replay output).
                # The series and the window boundary are bound before
                # the loop: the disabled path pays one local bool test
                # per event, nothing more.
                registry = obs_metrics.REGISTRY
                metrics_on = registry.enabled
                if metrics_on:
                    window = registry.window_seconds
                    events_series = registry.counter("sim.events")
                    depth_series = registry.gauge("sim.queue_depth")
                    next_boundary = (self._now // window + 1.0) * window
                while heap and not self._stopped:
                    entry = heappop(heap)
                    time, _, seq, action = entry
                    if time > horizon:
                        heapq.heappush(heap, entry)
                        break
                    if cancelled and seq in cancelled:
                        cancelled.discard(seq)
                        continue
                    self._now = time
                    self.events_processed += 1
                    if metrics_on:
                        events_series.inc(1.0, time)
                        if time >= next_boundary:
                            depth_series.set(float(len(heap)), time)
                            next_boundary = (time // window + 1.0) * window
                    action()
                if until is not None and until > self._now and not self._stopped:
                    self._now = until
            finally:
                self._running = False
                span.set(events=self.events_processed - first_event)
        return self._now

    def run_until_empty(self) -> float:
        """Drain every scheduled event; returns the final clock value."""
        return self.run(until=None)
