"""Lightweight wall-clock timers and counters for the hot paths.

Every figure script (and the replay engine underneath it) spends its time
in a handful of substrates: trace generation, LLF collection, churn
extraction, model training, and replay.  This module gives each of those a
named timer / counter so a run can report where its time went without
dragging in a profiler:

    from repro import perf

    with perf.timer("train.churn"):
        churn = extract_churn(sessions)
    perf.count("replay.events", sim.events_processed)
    print(perf.report())

Timers nest freely (each ``with`` block records one sample) and the
registry is process-global by default, matching the in-process caching of
:mod:`repro.experiments.workload`.  ``perf.reset()`` clears everything —
the experiment runner calls it between figures so each report is
self-contained.  The overhead per timed block is two ``perf_counter``
calls and a dict update, cheap enough to leave enabled everywhere.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import ContextManager, Dict, Iterator, List, Optional


@dataclass
class TimerStat:
    """Accumulated samples of one named timer."""

    calls: int = 0
    total: float = 0.0
    minimum: float = field(default=float("inf"))
    maximum: float = 0.0

    def add(self, elapsed: float) -> None:
        """Fold one sample (seconds) into the statistic."""
        self.calls += 1
        self.total += elapsed
        if elapsed < self.minimum:
            self.minimum = elapsed
        if elapsed > self.maximum:
            self.maximum = elapsed

    def combine(self, other: "TimerStat") -> None:
        """Fold another statistic (e.g. a worker's) into this one."""
        self.calls += other.calls
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum

    @property
    def mean(self) -> float:
        """Mean seconds per call (0 when never called)."""
        return self.total / self.calls if self.calls else 0.0


@dataclass
class PerfSnapshot:
    """A picklable, immutable-by-convention copy of a registry's state.

    This is the hand-off format of :mod:`repro.runtime` sweeps: a worker
    process resets its registry, runs its task, and ships a snapshot
    back; the parent folds every snapshot into its own registry with
    :meth:`PerfRegistry.merge`, so the final report covers work done in
    all processes instead of silently dropping child-process timings.
    """

    timers: Dict[str, TimerStat] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)


class PerfRegistry:
    """A named collection of timers and counters.

    One process-global instance (:data:`PERF`) serves the whole pipeline;
    tests that need isolation construct their own.
    """

    def __init__(self) -> None:
        self._timers: Dict[str, TimerStat] = {}
        self._counters: Dict[str, float] = {}

    # ------------------------------------------------------------- recording

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time the enclosed block under ``name`` (reentrant, nestable)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stat = self._timers.get(name)
            if stat is None:
                stat = self._timers[name] = TimerStat()
            stat.add(elapsed)

    def record(self, name: str, elapsed: float) -> None:
        """Fold an externally measured duration (seconds) into ``name``."""
        if elapsed < 0:
            raise ValueError(f"negative duration {elapsed!r}")
        stat = self._timers.get(name)
        if stat is None:
            stat = self._timers[name] = TimerStat()
        stat.add(elapsed)

    def count(self, name: str, amount: float = 1) -> None:
        """Increment the counter ``name`` by ``amount``."""
        self._counters[name] = self._counters.get(name, 0) + amount

    # -------------------------------------------------------------- querying

    def timers(self) -> Dict[str, TimerStat]:
        """Snapshot of all timer statistics."""
        return dict(self._timers)

    def counters(self) -> Dict[str, float]:
        """Snapshot of all counters."""
        return dict(self._counters)

    def total(self, name: str) -> float:
        """Total seconds recorded under ``name`` (0 when never timed)."""
        stat = self._timers.get(name)
        return stat.total if stat is not None else 0.0

    def snapshot(self) -> PerfSnapshot:
        """A deep, picklable copy of the current timers and counters."""
        return PerfSnapshot(
            timers={
                name: TimerStat(
                    calls=stat.calls,
                    total=stat.total,
                    minimum=stat.minimum,
                    maximum=stat.maximum,
                )
                for name, stat in self._timers.items()
            },
            counters=dict(self._counters),
        )

    def merge(self, snapshot: PerfSnapshot) -> None:
        """Fold a snapshot (typically from a worker process) into this
        registry: timer stats combine call counts / totals / extrema,
        counters add."""
        for name, stat in snapshot.timers.items():
            mine = self._timers.get(name)
            if mine is None:
                mine = self._timers[name] = TimerStat()
            mine.combine(stat)
        for name, value in snapshot.counters.items():
            self._counters[name] = self._counters.get(name, 0) + value

    def __bool__(self) -> bool:
        return bool(self._timers or self._counters)

    # ------------------------------------------------------------- reporting

    def report(
        self, title: Optional[str] = None, sim_seconds: Optional[float] = None
    ) -> str:
        """A fixed-width text table of timers (by total, descending) and
        counters (alphabetical).

        ``sim_seconds`` — the simulated span the samples cover — adds a
        ``calls/simh`` column (calls per simulated hour), turning raw
        call counts into a rate that is comparable across presets: the
        hot-path profile of a tiny 8-day campus and the paper campus
        line up once normalized by simulated time.
        """
        lines: List[str] = []
        if title:
            lines.append(title)
        with_rate = sim_seconds is not None and sim_seconds > 0
        if self._timers:
            rows = sorted(
                self._timers.items(), key=lambda item: -item[1].total
            )
            width = max(len(name) for name, _ in rows)
            header = (
                f"{'timer'.ljust(width)}  {'calls':>7}  {'total':>10}  "
                f"{'mean':>10}  {'min':>10}  {'max':>10}"
            )
            if with_rate:
                header += f"  {'calls/simh':>11}"
            lines.append(header)
            for name, stat in rows:
                # A zero-call stat still carries the inf sentinel in
                # ``minimum``; render 0 so the table stays finite.
                minimum = stat.minimum if stat.calls else 0.0
                row = (
                    f"{name.ljust(width)}  {stat.calls:>7d}  "
                    f"{stat.total:>9.3f}s  {stat.mean:>9.4f}s  "
                    f"{minimum:>9.4f}s  {stat.maximum:>9.4f}s"
                )
                if with_rate:
                    assert sim_seconds is not None
                    rate = stat.calls * 3600.0 / sim_seconds
                    row += f"  {rate:>11.2f}"
                lines.append(row)
        if self._counters:
            rows = sorted(self._counters.items())
            width = max(len(name) for name, _ in rows)
            lines.append(f"{'counter'.ljust(width)}  {'value':>12}")
            for name, value in rows:
                rendered = f"{int(value)}" if value == int(value) else f"{value:.3f}"
                lines.append(f"{name.ljust(width)}  {rendered:>12}")
        if not lines:
            lines.append("(no perf samples recorded)")
        return "\n".join(lines)

    def reset(self) -> None:
        """Drop every timer and counter."""
        self._timers.clear()
        self._counters.clear()


#: The process-global registry the pipeline records into.
PERF = PerfRegistry()


def timer(name: str) -> ContextManager[None]:
    """``with perf.timer(name):`` against the global registry."""
    return PERF.timer(name)


def record(name: str, elapsed: float) -> None:
    """Record a duration against the global registry."""
    PERF.record(name, elapsed)


def count(name: str, amount: float = 1) -> None:
    """Increment a counter on the global registry."""
    PERF.count(name, amount)


def snapshot() -> PerfSnapshot:
    """Snapshot the global registry (for shipping across processes)."""
    return PERF.snapshot()


def merge(snap: PerfSnapshot) -> None:
    """Fold a worker snapshot into the global registry."""
    PERF.merge(snap)


def report(
    title: Optional[str] = None, sim_seconds: Optional[float] = None
) -> str:
    """Render the global registry."""
    return PERF.report(title, sim_seconds=sim_seconds)


def reset() -> None:
    """Clear the global registry."""
    PERF.reset()


def wall_seconds() -> float:
    """A monotonic wall-clock reading (seconds, arbitrary epoch).

    The sanctioned funnel for code outside :mod:`repro.perf` /
    :mod:`repro.prototype` that must measure real elapsed time — the
    service admission layer times decision latency with it.  Keeping the
    ``perf_counter`` call here keeps the **no-wallclock** lint rule's
    allowlist honest: callers depend on wall time only through an
    interface whose results are already quarantined as host-scoped
    (never allowed into run-scoped journal data).
    """
    return time.perf_counter()


def peak_rss_bytes() -> int:
    """Peak resident set size of this process alone, in bytes.

    Read from ``VmHWM`` in ``/proc/self/status`` where it exists: on
    Linux ``ru_maxrss`` survives ``exec``, so a small child started from
    a large parent would report the parent's peak, while ``VmHWM``
    starts afresh with the new program.  Elsewhere ``RUSAGE_SELF``'s
    ``ru_maxrss`` (kilobytes on Linux, bytes on macOS; normalized here).
    Deliberately *not* part of :class:`PerfSnapshot`: it is a one-shot
    host measurement, not a mergeable per-task statistic.
    """
    import resource
    import sys

    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    scale = 1 if sys.platform == "darwin" else 1024
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * scale
