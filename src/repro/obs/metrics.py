"""Deterministic windowed metrics: counters, gauges, histograms.

The third leg of :mod:`repro.obs` (spans answer *where time went*,
decisions answer *why*, metrics answer *how much, when*): a
process-global :class:`MetricsRegistry` — disabled by default, mirroring
the :class:`~repro.obs.tracer.Tracer` lifecycle — that samples every
instrument into **sim-time windows** of the kernel clock.  Nothing here
reads wall time; a series is keyed by ``(name, labels)`` and each record
lands in window ``floor(sim_time / window_seconds)``, so two same-seed
runs produce byte-identical series.

Determinism scope is declared per metric in
:mod:`repro.obs.metric_registry`:

* ``run``-scoped series (replay decisions, candidate sets, fault
  injections, per-controller load) are part of the journal's
  ``strip_wall`` byte contract;
* ``host``-scoped series (kernel event throughput, pool queue depths,
  RSS) are serialized under the journal's strippable ``"wall"`` key,
  because they depend on how the run was executed or on the host.

The disabled fast path allocates nothing: module-level
:func:`inc` / :func:`set_gauge` / :func:`observe` take positional
arguments only (no ``**labels`` dict is ever built) and return after one
attribute check, so instrumentation can stay in the hot loops.

A :class:`MemoryProbe` piggybacks on window boundaries: the first record
that crosses into a new window samples the process tree's peak RSS into
a host-scoped gauge.

``python -m repro.obs.metrics run.jsonl --format prometheus`` exports a
journal's metric records as Prometheus text or CSV.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import perf as perf_module
from repro.obs.metric_registry import MetricSpec, spec_for
from repro.obs.records import MetricRecord, MetricsRollupRecord

#: Sorted ``(key, value)`` label pairs — the series key next to the name.
Labels = Tuple[Tuple[str, str], ...]

#: One sim-hour: the default aggregation window (seconds of sim time).
DEFAULT_WINDOW_SECONDS = 3600.0


def series_key(name: str, labels: Labels = ()) -> str:
    """The canonical display key: ``name`` or ``name{k=v,...}``."""
    if not labels:
        return name
    rendered = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{rendered}}}"


def _check_labels(name: str, labels: Labels) -> None:
    if list(labels) != sorted(labels):
        raise ValueError(
            f"metric {name!r}: labels must be sorted (key, value) pairs, "
            f"got {labels!r}"
        )


# --------------------------------------------------------------- series


class CounterSeries:
    """A monotonically accumulating count, summed per window."""

    kind = "counter"
    __slots__ = ("spec", "labels", "windows", "total", "_registry")

    def __init__(
        self, spec: MetricSpec, labels: Labels, registry: "MetricsRegistry"
    ) -> None:
        self.spec = spec
        self.labels = labels
        #: window index -> accumulated amount.
        self.windows: Dict[int, float] = {}
        self.total = 0.0
        self._registry = registry

    def inc(self, amount: float, sim_time: float) -> None:
        """Add ``amount`` into the window containing ``sim_time``."""
        registry = self._registry
        idx = int(sim_time // registry.window_seconds)
        windows = self.windows
        windows[idx] = windows.get(idx, 0.0) + amount
        self.total += amount
        registry._touch(idx, sim_time)


class GaugeSeries:
    """A point-in-time value; each window keeps its last-written point."""

    kind = "gauge"
    __slots__ = ("spec", "labels", "windows", "last", "_registry")

    def __init__(
        self, spec: MetricSpec, labels: Labels, registry: "MetricsRegistry"
    ) -> None:
        self.spec = spec
        self.labels = labels
        #: window index -> (sim_time, value) of the last set in it.
        self.windows: Dict[int, Tuple[float, float]] = {}
        self.last: Optional[Tuple[float, float]] = None
        self._registry = registry

    def set(self, value: float, sim_time: float) -> None:
        """Record ``value`` at ``sim_time`` (last write per window wins)."""
        registry = self._registry
        idx = int(sim_time // registry.window_seconds)
        current = self.windows.get(idx)
        if current is None or sim_time >= current[0]:
            self.windows[idx] = (sim_time, value)
        if self.last is None or sim_time >= self.last[0]:
            self.last = (sim_time, value)
        registry._touch(idx, sim_time)


@dataclass
class HistogramWindow:
    """One window's bucket counts (+Inf bucket last), sum and count."""

    counts: List[int]
    total: float = 0.0
    count: int = 0

    def combine(self, other: "HistogramWindow") -> None:
        """Fold another window (same bucket layout) into this one."""
        for i, value in enumerate(other.counts):
            self.counts[i] += value
        self.total += other.total
        self.count += other.count

    def clone(self) -> "HistogramWindow":
        return HistogramWindow(
            counts=list(self.counts), total=self.total, count=self.count
        )


class HistogramSeries:
    """Fixed-bucket distribution with Prometheus ``le`` semantics.

    A value lands in the first bucket whose upper bound is ``>=`` the
    value (boundary values inclusive); anything above the last bound
    lands in the implicit +Inf bucket, ``counts[-1]``.
    """

    kind = "histogram"
    __slots__ = ("spec", "labels", "buckets", "windows", "_registry")

    def __init__(
        self, spec: MetricSpec, labels: Labels, registry: "MetricsRegistry"
    ) -> None:
        self.spec = spec
        self.labels = labels
        self.buckets: Tuple[float, ...] = spec.effective_buckets
        self.windows: Dict[int, HistogramWindow] = {}
        self._registry = registry

    def observe(self, value: float, sim_time: float) -> None:
        """Record one observation into the window containing ``sim_time``."""
        registry = self._registry
        idx = int(sim_time // registry.window_seconds)
        window = self.windows.get(idx)
        if window is None:
            window = self.windows[idx] = HistogramWindow(
                counts=[0] * (len(self.buckets) + 1)
            )
        window.counts[bisect_left(self.buckets, value)] += 1
        window.total += value
        window.count += 1
        registry._touch(idx, sim_time)


AnySeries = Union[CounterSeries, GaugeSeries, HistogramSeries]


# --------------------------------------------------------- memory probe

#: Named zero-arg callables sampled at window boundaries (host gauges):
#: the process tree's peak RSS.
_MEMORY_SOURCES: Dict[str, Callable[[], float]] = {
    "mem.peak_rss_bytes": perf_module.peak_rss_bytes,
}


class MemoryProbe:
    """Samples memory sources into host gauges at window boundaries.

    The probe fires from :meth:`MetricsRegistry._touch` the first time a
    record crosses into a new window — i.e. on the sim-time grid, not a
    wall-time one — so the resulting series line up with every other
    metric's windows.  Values (RSS) are host facts and land under the
    journal's strippable ``"wall"`` key.  ``sources`` replaces the
    default source map (tests pass fakes).
    """

    def __init__(
        self, sources: Optional[Dict[str, Callable[[], float]]] = None
    ) -> None:
        self._sources = dict(_MEMORY_SOURCES if sources is None else sources)

    def sources(self) -> Dict[str, Callable[[], float]]:
        """The source map this probe samples."""
        return self._sources

    def sample(
        self, registry: "MetricsRegistry", window: int, sim_time: float
    ) -> None:
        """Set every source's gauge at ``sim_time`` (sorted name order)."""
        sources = self.sources()
        for name in sorted(sources):
            registry.gauge(name).set(float(sources[name]()), sim_time)


# ------------------------------------------------------------ snapshots


@dataclass
class SeriesSnapshot:
    """One series' picklable state (exactly one windows dict populated)."""

    name: str
    kind: str
    scope: str
    labels: Labels = ()
    buckets: Tuple[float, ...] = ()
    counter_windows: Dict[int, float] = field(default_factory=dict)
    gauge_windows: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    hist_windows: Dict[int, HistogramWindow] = field(default_factory=dict)


@dataclass
class MetricsSnapshot:
    """A registry's picklable state — the cross-process hand-off format.

    Like :class:`repro.perf.PerfSnapshot`: a checkpoint carries one, and
    :meth:`MetricsRegistry.restore_state` folds it back in with
    :meth:`MetricsRegistry.merge`.  Series are sorted by
    ``(name, labels)`` so the snapshot itself is deterministic.
    """

    window_seconds: float = DEFAULT_WINDOW_SECONDS
    series: List[SeriesSnapshot] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.series)


@dataclass
class RegistryState:
    """A registry's full checkpointable state (series plus lifecycle).

    Where :class:`MetricsSnapshot` is the cross-process *merge* format,
    this wraps it with the enabled flag, window size and frontier so a
    supervised service restore puts the process-global registry back
    exactly where a crash left the checkpointed one.
    """

    enabled: bool = False
    window_seconds: float = DEFAULT_WINDOW_SECONDS
    frontier: Optional[int] = None
    snapshot: MetricsSnapshot = field(default_factory=MetricsSnapshot)


# ------------------------------------------------------------- registry


class MetricsRegistry:
    """Process-wide collector of windowed metric series."""

    def __init__(
        self,
        enabled: bool = False,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        probe: Optional[MemoryProbe] = None,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError(f"non-positive window {window_seconds!r}")
        self.enabled = enabled
        self.window_seconds = float(window_seconds)
        self.probe = probe if probe is not None else MemoryProbe()
        self._series: Dict[Tuple[str, Labels], AnySeries] = {}
        self._frontier: Optional[int] = None
        self._probing = False

    # ----------------------------------------------------------- series

    def _make_series(self, name: str, labels: Labels, kind: str) -> AnySeries:
        spec = spec_for(name)
        if spec.kind != kind:
            raise TypeError(
                f"metric {name!r} is registered as a {spec.kind}, "
                f"not a {kind}"
            )
        _check_labels(name, labels)
        series: AnySeries
        if kind == "counter":
            series = CounterSeries(spec, labels, self)
        elif kind == "gauge":
            series = GaugeSeries(spec, labels, self)
        else:
            series = HistogramSeries(spec, labels, self)
        self._series[(name, labels)] = series
        return series

    def counter(self, name: str, labels: Labels = ()) -> CounterSeries:
        """The counter series for ``(name, labels)`` (created on demand)."""
        series = self._series.get((name, labels))
        if series is None:
            series = self._make_series(name, labels, "counter")
        if not isinstance(series, CounterSeries):
            raise TypeError(f"metric {name!r} already exists as {series.kind}")
        return series

    def gauge(self, name: str, labels: Labels = ()) -> GaugeSeries:
        """The gauge series for ``(name, labels)`` (created on demand)."""
        series = self._series.get((name, labels))
        if series is None:
            series = self._make_series(name, labels, "gauge")
        if not isinstance(series, GaugeSeries):
            raise TypeError(f"metric {name!r} already exists as {series.kind}")
        return series

    def histogram(self, name: str, labels: Labels = ()) -> HistogramSeries:
        """The histogram series for ``(name, labels)`` (created on demand)."""
        series = self._series.get((name, labels))
        if series is None:
            series = self._make_series(name, labels, "histogram")
        if not isinstance(series, HistogramSeries):
            raise TypeError(f"metric {name!r} already exists as {series.kind}")
        return series

    # -------------------------------------------------------- recording

    def inc(
        self,
        name: str,
        amount: float = 1.0,
        sim_time: float = 0.0,
        labels: Labels = (),
    ) -> None:
        """Add to a counter (no-op when disabled)."""
        if self.enabled:
            self.counter(name, labels).inc(amount, sim_time)

    def set_gauge(
        self,
        name: str,
        value: float,
        sim_time: float = 0.0,
        labels: Labels = (),
    ) -> None:
        """Set a gauge (no-op when disabled)."""
        if self.enabled:
            self.gauge(name, labels).set(value, sim_time)

    def observe(
        self,
        name: str,
        value: float,
        sim_time: float = 0.0,
        labels: Labels = (),
    ) -> None:
        """Record a histogram observation (no-op when disabled)."""
        if self.enabled:
            self.histogram(name, labels).observe(value, sim_time)

    def _touch(self, idx: int, sim_time: float) -> None:
        """Advance the window frontier; probe memory on a crossing."""
        frontier = self._frontier
        if frontier is not None and idx <= frontier:
            return
        self._frontier = idx
        if not self._probing:
            self._probing = True
            try:
                self.probe.sample(self, idx, sim_time)
            finally:
                self._probing = False

    # -------------------------------------------------------- querying

    def series(self) -> List[AnySeries]:
        """Every live series, sorted by ``(name, labels)``."""
        return [self._series[key] for key in sorted(self._series)]

    def __bool__(self) -> bool:
        return bool(self._series)

    # ----------------------------------------------- snapshot and merge

    def snapshot(self) -> MetricsSnapshot:
        """A deep, picklable copy of every series."""
        out: List[SeriesSnapshot] = []
        for series in self.series():
            snap = SeriesSnapshot(
                name=series.spec.name,
                kind=series.kind,
                scope=series.spec.scope,
                labels=series.labels,
            )
            if isinstance(series, CounterSeries):
                snap.counter_windows = dict(series.windows)
            elif isinstance(series, GaugeSeries):
                snap.gauge_windows = dict(series.windows)
            else:
                snap.buckets = series.buckets
                snap.hist_windows = {
                    idx: window.clone()
                    for idx, window in series.windows.items()
                }
            out.append(snap)
        return MetricsSnapshot(window_seconds=self.window_seconds, series=out)

    def merge(self, snapshot: MetricsSnapshot) -> None:
        """Fold a snapshot into this registry, deterministically.

        Counters add per window; gauges keep the lexicographically
        largest ``(sim_time, value)`` point per window; histograms add
        bucket counts.  The result is independent of the order snapshots
        arrive in.
        """
        if snapshot.window_seconds != self.window_seconds:
            raise ValueError(
                f"cannot merge window {snapshot.window_seconds}s into "
                f"window {self.window_seconds}s"
            )
        for snap in snapshot.series:
            if snap.kind == "counter":
                counter = self.counter(snap.name, snap.labels)
                for idx in sorted(snap.counter_windows):
                    amount = snap.counter_windows[idx]
                    counter.windows[idx] = (
                        counter.windows.get(idx, 0.0) + amount
                    )
                    counter.total += amount
            elif snap.kind == "gauge":
                gauge = self.gauge(snap.name, snap.labels)
                for idx in sorted(snap.gauge_windows):
                    point = snap.gauge_windows[idx]
                    current = gauge.windows.get(idx)
                    if current is None or point >= current:
                        gauge.windows[idx] = point
                    if gauge.last is None or point >= gauge.last:
                        gauge.last = point
            else:
                histogram = self.histogram(snap.name, snap.labels)
                if snap.buckets != histogram.buckets:
                    raise ValueError(
                        f"histogram {snap.name!r}: bucket layout "
                        f"{snap.buckets} != {histogram.buckets}"
                    )
                for idx in sorted(snap.hist_windows):
                    window = histogram.windows.get(idx)
                    if window is None:
                        histogram.windows[idx] = snap.hist_windows[idx].clone()
                    else:
                        window.combine(snap.hist_windows[idx])

    # -------------------------------------------------------- lifecycle

    def reset(self) -> None:
        """Drop every series and the window frontier."""
        self._series.clear()
        self._frontier = None

    def export_state(self) -> RegistryState:
        """A checkpointable copy of the whole registry (see
        :class:`RegistryState`)."""
        return RegistryState(
            enabled=self.enabled,
            window_seconds=self.window_seconds,
            frontier=self._frontier,
            snapshot=self.snapshot(),
        )

    def restore_state(self, state: RegistryState) -> None:
        """Reset this registry to a previously exported state."""
        self.reset()
        self.window_seconds = state.window_seconds
        if state.snapshot:
            self.merge(state.snapshot)
        self._frontier = state.frontier
        self.enabled = state.enabled


#: The process-global registry every instrumented layer records into.
REGISTRY = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return REGISTRY


def enable(
    reset: bool = True, window_seconds: Optional[float] = None
) -> MetricsRegistry:
    """Turn the global registry on (fresh by default); returns it."""
    if reset:
        REGISTRY.reset()
    if window_seconds is not None:
        if window_seconds <= 0:
            raise ValueError(f"non-positive window {window_seconds!r}")
        if REGISTRY and window_seconds != REGISTRY.window_seconds:
            raise ValueError(
                "cannot change the window of a registry holding series; "
                "pass reset=True"
            )
        REGISTRY.window_seconds = float(window_seconds)
    REGISTRY.enabled = True
    return REGISTRY


def disable() -> MetricsRegistry:
    """Turn the global registry off (series are kept); returns it."""
    REGISTRY.enabled = False
    return REGISTRY


def inc(
    name: str,
    amount: float = 1.0,
    sim_time: float = 0.0,
    labels: Labels = (),
) -> None:
    """Add to a counter on the global registry (allocation-free no-op
    when disabled — positional arguments only, nothing is built before
    the enabled check)."""
    registry = REGISTRY
    if not registry.enabled:
        return
    registry.counter(name, labels).inc(amount, sim_time)


def set_gauge(
    name: str,
    value: float,
    sim_time: float = 0.0,
    labels: Labels = (),
) -> None:
    """Set a gauge on the global registry (no-op when disabled)."""
    registry = REGISTRY
    if not registry.enabled:
        return
    registry.gauge(name, labels).set(value, sim_time)


def observe(
    name: str,
    value: float,
    sim_time: float = 0.0,
    labels: Labels = (),
) -> None:
    """Record a histogram observation on the global registry."""
    registry = REGISTRY
    if not registry.enabled:
        return
    registry.histogram(name, labels).observe(value, sim_time)


# ------------------------------------------------------ journal records


def metric_records(
    registry: Optional[MetricsRegistry] = None,
) -> List[MetricRecord]:
    """One :class:`MetricRecord` per (series, window), canonically sorted.

    Sorted by ``(name, labels, window)`` — the journal's metric block is
    therefore independent of recording and merge order, which is what
    extends the ``strip_wall`` byte contract to metrics.
    """
    registry = registry if registry is not None else REGISTRY
    window_seconds = registry.window_seconds
    records: List[MetricRecord] = []
    for series in registry.series():
        spec = series.spec
        if isinstance(series, CounterSeries):
            for idx in sorted(series.windows):
                records.append(
                    MetricRecord(
                        name=spec.name,
                        kind="counter",
                        scope=spec.scope,
                        window=idx,
                        window_start=idx * window_seconds,
                        labels=series.labels,
                        value=series.windows[idx],
                    )
                )
        elif isinstance(series, GaugeSeries):
            for idx in sorted(series.windows):
                at, value = series.windows[idx]
                records.append(
                    MetricRecord(
                        name=spec.name,
                        kind="gauge",
                        scope=spec.scope,
                        window=idx,
                        window_start=idx * window_seconds,
                        labels=series.labels,
                        value=value,
                        at=at,
                    )
                )
        else:
            for idx in sorted(series.windows):
                window = series.windows[idx]
                records.append(
                    MetricRecord(
                        name=spec.name,
                        kind="histogram",
                        scope=spec.scope,
                        window=idx,
                        window_start=idx * window_seconds,
                        labels=series.labels,
                        buckets=series.buckets,
                        counts=tuple(window.counts),
                        total=window.total,
                        count=window.count,
                    )
                )
    return records


def metrics_rollup(
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRollupRecord:
    """The journal footer rollup: whole-run totals per series."""
    registry = registry if registry is not None else REGISTRY
    run_series: Dict[str, Dict[str, float]] = {}
    host_series: Dict[str, Dict[str, float]] = {}
    for series in registry.series():
        key = series_key(series.spec.name, series.labels)
        bucket = run_series if series.spec.scope == "run" else host_series
        if isinstance(series, CounterSeries):
            bucket[key] = {"total": series.total}
        elif isinstance(series, GaugeSeries):
            if series.last is not None:
                bucket[key] = {"last": series.last[1], "at": series.last[0]}
        else:
            total = 0.0
            count = 0
            for window in series.windows.values():
                total += window.total
                count += window.count
            bucket[key] = {"count": float(count), "sum": total}
    return MetricsRollupRecord(
        window_seconds=registry.window_seconds,
        run_series=run_series,
        host_series=host_series,
    )


# -------------------------------------------------------- export (CLI)


def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_labels(labels: Labels, extra: Labels = ()) -> str:
    pairs = list(labels) + list(extra)
    if not pairs:
        return ""
    rendered = ",".join(f'{key}="{value}"' for key, value in pairs)
    return f"{{{rendered}}}"


def render_prometheus(
    records: Sequence[MetricRecord], per_window: bool = False
) -> str:
    """Prometheus text exposition for a journal's metric records.

    Whole-run aggregates by default; ``per_window`` emits one sample per
    window with a ``window`` label instead.
    """
    lines: List[str] = []
    by_name: Dict[str, List[MetricRecord]] = {}
    for record in records:
        by_name.setdefault(record.name, []).append(record)
    for name in sorted(by_name):
        group = by_name[name]
        kind = group[0].kind
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} {kind}")
        by_labels: Dict[Labels, List[MetricRecord]] = {}
        for record in group:
            by_labels.setdefault(record.labels, []).append(record)
        for labels in sorted(by_labels):
            windows = sorted(by_labels[labels], key=lambda r: r.window)
            if per_window:
                for record in windows:
                    extra: Labels = (("window", str(record.window)),)
                    lines.extend(_prom_window(prom, record, labels, extra))
            else:
                lines.extend(_prom_total(prom, kind, windows, labels))
    return "\n".join(lines) + "\n" if lines else ""


def _prom_window(
    prom: str, record: MetricRecord, labels: Labels, extra: Labels
) -> List[str]:
    if record.kind == "histogram":
        return _prom_histogram(
            prom, labels, extra, record.buckets, record.counts,
            record.total or 0.0, record.count or 0,
        )
    suffix = "_total" if record.kind == "counter" else ""
    return [f"{prom}{suffix}{_prom_labels(labels, extra)} {record.value}"]


def _prom_total(
    prom: str, kind: str, windows: List[MetricRecord], labels: Labels
) -> List[str]:
    if kind == "counter":
        total = sum(record.value or 0.0 for record in windows)
        return [f"{prom}_total{_prom_labels(labels)} {total}"]
    if kind == "gauge":
        last = windows[-1]
        return [f"{prom}{_prom_labels(labels)} {last.value}"]
    buckets = windows[0].buckets
    counts = [0] * (len(buckets) + 1)
    total = 0.0
    count = 0
    for record in windows:
        for i, value in enumerate(record.counts):
            counts[i] += value
        total += record.total or 0.0
        count += record.count or 0
    return _prom_histogram(prom, labels, (), buckets, tuple(counts), total, count)


def _prom_histogram(
    prom: str,
    labels: Labels,
    extra: Labels,
    buckets: Tuple[float, ...],
    counts: Tuple[int, ...],
    total: float,
    count: int,
) -> List[str]:
    lines: List[str] = []
    cumulative = 0
    for bound, bucket_count in zip(buckets, counts):
        cumulative += bucket_count
        le: Labels = (("le", repr(float(bound))),)
        lines.append(
            f"{prom}_bucket{_prom_labels(labels, extra + le)} {cumulative}"
        )
    inf: Labels = (("le", "+Inf"),)
    lines.append(f"{prom}_bucket{_prom_labels(labels, extra + inf)} {count}")
    lines.append(f"{prom}_sum{_prom_labels(labels, extra)} {total}")
    lines.append(f"{prom}_count{_prom_labels(labels, extra)} {count}")
    return lines


def render_csv(records: Sequence[MetricRecord]) -> str:
    """Flat CSV: one row per (series, window, field)."""
    lines = ["name,kind,scope,labels,window,start,field,value"]
    for record in records:
        labels = ";".join(f"{key}={value}" for key, value in record.labels)
        prefix = (
            f"{record.name},{record.kind},{record.scope},{labels},"
            f"{record.window},{record.window_start}"
        )
        if record.kind == "histogram":
            lines.append(f"{prefix},sum,{record.total}")
            lines.append(f"{prefix},count,{record.count}")
            for bound, bucket_count in zip(record.buckets, record.counts):
                lines.append(f"{prefix},le={bound},{bucket_count}")
            lines.append(f"{prefix},le=+Inf,{record.counts[-1]}")
        elif record.kind == "gauge":
            lines.append(f"{prefix},value,{record.value}")
            lines.append(f"{prefix},at,{record.at}")
        else:
            lines.append(f"{prefix},value,{record.value}")
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.obs.metrics journal.jsonl [--format ...]``."""
    import argparse

    # Imported here: journal imports this module for record emission.
    from repro.obs.journal import read_journal

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.metrics",
        description="export a run journal's metric records",
    )
    parser.add_argument("journal", help="path to a run journal (JSONL)")
    parser.add_argument(
        "--format",
        choices=("prometheus", "csv"),
        default="prometheus",
        help="output format (default: prometheus text exposition)",
    )
    parser.add_argument(
        "--out", default=None, help="write here instead of stdout"
    )
    parser.add_argument(
        "--windows",
        action="store_true",
        help="prometheus: one sample per window (adds a window label)",
    )
    parser.add_argument(
        "--run-only",
        action="store_true",
        help="drop host-scoped (wall) series from the export",
    )
    args = parser.parse_args(argv)
    try:
        journal = read_journal(args.journal)
    except FileNotFoundError:
        print(f"no journal at {args.journal}", file=sys.stderr)
        return 2
    records = journal.metrics
    if args.run_only:
        records = [record for record in records if record.scope == "run"]
    if not records:
        print(
            "journal holds no metric records (was the run started with "
            "metrics enabled?)",
            file=sys.stderr,
        )
        return 1
    if args.format == "csv":
        text = render_csv(records)
    else:
        text = render_prometheus(records, per_window=args.windows)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(
            f"wrote {len(records)} metric records to {args.out}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke
    raise SystemExit(main())
