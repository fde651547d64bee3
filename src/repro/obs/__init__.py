"""``repro.obs`` — structured run journal, span tracing and decision
provenance.

The observability layer over :mod:`repro.perf`: where perf answers "where
did the time go", obs answers "what happened, and why".  Three pieces:

* **span tracing** (:mod:`repro.obs.tracer`) — nestable spans carrying
  both sim-time and wall-time through an explicit-clock API, collected by
  a process-global :class:`Tracer` that is a no-op until enabled;
* **decision provenance** (:mod:`repro.obs.records`) — every association
  decision of the replay engine and the prototype controller emits a
  :class:`DecisionRecord` naming the user, the batch, every candidate AP
  with its load and per-strategy score, and the chosen AP;
* **windowed metrics** (:mod:`repro.obs.metrics`) — counters, gauges and
  fixed-bucket histograms aggregated into sim-time windows by a
  process-global :class:`MetricsRegistry` (also a no-op until enabled),
  with per-scope determinism declared in
  :mod:`repro.obs.metric_registry` and a Prometheus/CSV exporter under
  ``python -m repro.obs.metrics``;
* **JSONL journal** (:mod:`repro.obs.journal`) — deterministic
  serialization of the whole run (wall-clock values isolated under a
  strippable ``"wall"`` key), written at exit or streamed record by
  record as the run goes, plus a reader and the
  ``python -m repro.obs.report`` renderer (:mod:`repro.obs.report`).

Typical use::

    from repro import obs

    obs.enable()
    ...                 # any instrumented pipeline: replay, experiments
    obs.journal.write_journal("run.jsonl", meta={"preset": "tiny"})

or, end to end, ``python -m repro.experiments tiny fig2 --journal
run.jsonl`` followed by ``python -m repro.obs.report run.jsonl``.
"""

from typing import TYPE_CHECKING, Any

from repro.obs import journal
from repro.obs.journal import (
    Journal,
    JournalWriter,
    close_journal,
    open_journal,
    parse_journal,
    perf_snapshot,
    read_journal,
    render_journal,
    streamed_journal,
    strip_wall,
    write_journal,
)
from repro.obs.metric_registry import METRIC_REGISTRY, MetricSpec, spec_for
from repro.obs.records import (
    Candidate,
    DecisionRecord,
    FaultRecord,
    MetaRecord,
    MetricRecord,
    MetricsRollupRecord,
    PerfRecord,
    RecoveryRecord,
    SampleRecord,
    SpanRecord,
    candidates_from_states,
)
from repro.obs.tracer import (
    NULL_SPAN,
    JournalSink,
    Span,
    Tracer,
    TracerState,
    decision,
    disable,
    enable,
    fault,
    get_tracer,
    recovery,
    sample,
    span,
)

if TYPE_CHECKING:
    from repro.obs import metrics
    from repro.obs.metrics import MemoryProbe, MetricsRegistry

#: Names served lazily by :func:`__getattr__` from :mod:`repro.obs.metrics`.
_METRICS_ATTRS = frozenset({"metrics", "MemoryProbe", "MetricsRegistry"})


def __getattr__(name: str) -> Any:
    """Resolve metrics names lazily.

    ``repro.obs.metrics`` doubles as the exporter CLI (``python -m
    repro.obs.metrics``); an eager import here would load it into
    ``sys.modules`` before :mod:`runpy` executes it as ``__main__``,
    tripping the double-execution ``RuntimeWarning``.  Importing it on
    first attribute access keeps the CLI invocation clean while
    ``obs.metrics`` / ``obs.MetricsRegistry`` still work everywhere else.
    """
    if name in _METRICS_ATTRS:
        # import_module, not ``from repro.obs import metrics``: the
        # fromlist form re-enters this __getattr__ and recurses.
        import importlib

        _metrics = importlib.import_module("repro.obs.metrics")
        if name == "metrics":
            return _metrics
        return getattr(_metrics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Candidate",
    "DecisionRecord",
    "FaultRecord",
    "Journal",
    "JournalSink",
    "JournalWriter",
    "METRIC_REGISTRY",
    "MemoryProbe",
    "MetaRecord",
    "MetricRecord",
    "MetricSpec",
    "MetricsRegistry",
    "MetricsRollupRecord",
    "NULL_SPAN",
    "PerfRecord",
    "RecoveryRecord",
    "SampleRecord",
    "Span",
    "SpanRecord",
    "Tracer",
    "TracerState",
    "candidates_from_states",
    "close_journal",
    "decision",
    "disable",
    "enable",
    "fault",
    "get_tracer",
    "journal",
    "metrics",
    "open_journal",
    "parse_journal",
    "perf_snapshot",
    "read_journal",
    "recovery",
    "render_journal",
    "sample",
    "span",
    "spec_for",
    "streamed_journal",
    "strip_wall",
    "write_journal",
]
