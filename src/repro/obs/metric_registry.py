"""The central table of every metric name the codebase may emit.

Metric names are a namespace shared by every instrumented layer and by
every journal consumer: a typo'd name silently forks a series, and a
renamed metric silently breaks dashboards and the exporter.  This table
is the single source of truth — :mod:`repro.obs.metrics` refuses to
record under an unregistered name at runtime, and the
``metric-name-registry`` lint rule checks every instrumentation site
against it in **both** directions (an unregistered call-site name fails
lint; a registered name with no surviving call site fails lint), the
same contract :mod:`repro.devtools.stream_registry` enforces for RNG
stream names.

Scope is part of the declaration:

``run``
    Deterministic for a seed — byte-identical between two same-seed
    runs.  Serialized under a journal line's ``data`` key, so it
    participates in ``strip_wall`` diffs.
``host``
    A property of the host or of how the run was executed (wall
    durations, RSS, pool queue depths, the kernel's own work).
    Serialized under the ``"wall"`` key only, so ``strip_wall`` drops
    it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Histogram bucket bounds used when a spec declares none.
DEFAULT_BUCKETS: Tuple[float, ...] = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)


@dataclass(frozen=True)
class MetricSpec:
    """One registered metric: name, kind, determinism scope, owner."""

    name: str
    #: ``"counter"``, ``"gauge"`` or ``"histogram"``.
    kind: str
    #: ``"run"`` (deterministic, diffable) or ``"host"`` (wall-only).
    scope: str
    #: The module allowed to instrument this name (lint-enforced).
    owner: str
    description: str = ""
    unit: str = ""
    #: Histogram bucket upper bounds (``le`` semantics, +Inf implicit).
    buckets: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"metric {self.name!r}: bad kind {self.kind!r}")
        if self.scope not in ("run", "host"):
            raise ValueError(f"metric {self.name!r}: bad scope {self.scope!r}")
        if self.buckets and self.kind != "histogram":
            raise ValueError(f"metric {self.name!r}: buckets on a {self.kind}")
        if self.buckets and list(self.buckets) != sorted(set(self.buckets)):
            raise ValueError(
                f"metric {self.name!r}: buckets must be strictly increasing"
            )

    @property
    def effective_buckets(self) -> Tuple[float, ...]:
        """The bucket bounds a histogram series of this spec uses."""
        return self.buckets if self.buckets else DEFAULT_BUCKETS


METRIC_REGISTRY: Tuple[MetricSpec, ...] = (
    # ------------------------------------------------ replay (run-scoped)
    MetricSpec(
        name="replay.decisions",
        kind="counter",
        scope="run",
        owner="repro.wlan.replay",
        description="association decisions committed",
        unit="decisions",
    ),
    MetricSpec(
        name="replay.candidate_set_size",
        kind="histogram",
        scope="run",
        owner="repro.wlan.replay",
        description="candidate APs visible to each decision",
        unit="aps",
        buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
    ),
    MetricSpec(
        name="replay.fallback_depth",
        kind="histogram",
        scope="run",
        owner="repro.wlan.replay",
        description=(
            "position in the strategy's fallback chain that produced "
            "each decision (0 = primary strategy)"
        ),
        unit="links",
        buckets=(0.0, 1.0, 2.0, 4.0),
    ),
    MetricSpec(
        name="replay.batches",
        kind="counter",
        scope="run",
        owner="repro.wlan.replay",
        description="arrival batches flushed",
        unit="batches",
    ),
    MetricSpec(
        name="replay.controller_load",
        kind="gauge",
        scope="run",
        owner="repro.wlan.replay",
        description="total offered load per controller at sampler ticks",
        unit="Mbps",
    ),
    # ------------------------------------------------ faults (run-scoped)
    MetricSpec(
        name="faults.injected",
        kind="counter",
        scope="run",
        owner="repro.wlan.replay",
        description="fault-plan events fired by the replay engine",
        unit="faults",
    ),
    MetricSpec(
        name="faults.planned_events",
        kind="counter",
        scope="run",
        owner="repro.faults.schedule",
        description="fault events emitted by chaos-plan generation",
        unit="faults",
    ),
    # ------------------------------------- service (run-scoped backpressure)
    # The admission queue is driven by the sim clock and the event
    # sequence alone, so its depth/batch/shed series are pure functions
    # of the event stream — deterministic, diffable, run-scoped.
    MetricSpec(
        name="service.events",
        kind="counter",
        scope="run",
        owner="repro.service.loop",
        description="events dispatched by the controller service",
        unit="events",
    ),
    MetricSpec(
        name="service.decisions",
        kind="counter",
        scope="run",
        owner="repro.service.admission",
        description="association decisions committed by the service",
        unit="decisions",
    ),
    MetricSpec(
        name="service.queue_depth",
        kind="gauge",
        scope="run",
        owner="repro.service.admission",
        description="pending join queries after each enqueue",
        unit="queries",
    ),
    MetricSpec(
        name="service.batch_size",
        kind="histogram",
        scope="run",
        owner="repro.service.admission",
        description="join queries per admission flush",
        unit="queries",
        buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
    ),
    MetricSpec(
        name="service.shed",
        kind="counter",
        scope="run",
        owner="repro.service.admission",
        description=(
            "join queries shed to the fallback chain by a saturated "
            "admission queue"
        ),
        unit="queries",
    ),
    # ------------------------------------- service (run-scoped recovery)
    # Recovery bookkeeping is deterministic for a given seeded fault
    # plan: the same crashes/losses replay the same way every run, and
    # the counters merge order-independently.  (Byte-diffs of a crashed
    # run against an *uninterrupted* one are made with metrics off — a
    # run that recovered necessarily counted its recoveries.)
    MetricSpec(
        name="service.gap_skips",
        kind="counter",
        scope="run",
        owner="repro.service.loop",
        description=(
            "permanently missing event seqs the reorder buffer skipped "
            "at the gap horizon"
        ),
        unit="events",
    ),
    MetricSpec(
        name="service.implicit_leaves",
        kind="counter",
        scope="run",
        owner="repro.service.loop",
        description=(
            "joins from a user already associated, each taken as a lost "
            "leave followed by the join"
        ),
        unit="events",
    ),
    MetricSpec(
        name="service.recoveries",
        kind="counter",
        scope="run",
        owner="repro.service.supervisor",
        description="supervised controller crash/restore cycles completed",
        unit="recoveries",
    ),
    MetricSpec(
        name="service.replayed_events",
        kind="counter",
        scope="run",
        owner="repro.service.supervisor",
        description=(
            "write-ahead-log events resubmitted past a restored snapshot"
        ),
        unit="events",
    ),
    # ---------------------------------------------- service (host-scoped)
    MetricSpec(
        name="service.decision_latency",
        kind="histogram",
        scope="host",
        owner="repro.service.admission",
        description=(
            "wall seconds from join enqueue to committed decision "
            "(micro-batching delay included)"
        ),
        unit="s",
        buckets=(0.00001, 0.0001, 0.001, 0.01, 0.1, 1.0),
    ),
    # ----------------------------------------------- kernel (host-scoped)
    # The kernel's own work, not the campus's: an engine refactor may
    # change how many events it schedules without moving one decision
    # or sample, so these stay out of the strip_wall byte contract.
    MetricSpec(
        name="sim.events",
        kind="counter",
        scope="host",
        owner="repro.sim.kernel",
        description="kernel events dispatched per sim-time window",
        unit="events",
    ),
    MetricSpec(
        name="sim.queue_depth",
        kind="gauge",
        scope="host",
        owner="repro.sim.kernel",
        description="event-heap depth sampled at window boundaries",
        unit="events",
    ),
    # ---------------------------------------------- runtime (host-scoped)
    MetricSpec(
        name="runtime.task_retries",
        kind="counter",
        scope="host",
        owner="repro.runtime.resilience",
        description="pool task attempts that failed and were retried",
        unit="retries",
    ),
    MetricSpec(
        name="runtime.pool_pending",
        kind="gauge",
        scope="host",
        owner="repro.runtime.resilience",
        description="tasks queued at the start of each pool round",
        unit="tasks",
    ),
    # ----------------------------------------------- memory (host-scoped)
    MetricSpec(
        name="mem.peak_rss_bytes",
        kind="gauge",
        scope="host",
        owner="repro.obs.metrics",
        description="peak RSS of the process tree at window boundaries",
        unit="bytes",
    ),
)

#: The registry indexed by metric name.
SPECS_BY_NAME: Dict[str, MetricSpec] = {
    spec.name: spec for spec in METRIC_REGISTRY
}

if len(SPECS_BY_NAME) != len(METRIC_REGISTRY):  # pragma: no cover - table bug
    raise RuntimeError("duplicate metric name in METRIC_REGISTRY")


def spec_for(name: str) -> MetricSpec:
    """The registered spec for ``name``; raises with a pointer if absent."""
    spec = SPECS_BY_NAME.get(name)
    if spec is None:
        raise ValueError(
            f"metric name {name!r} is not registered; add a MetricSpec to "
            "repro/obs/metric_registry.py"
        )
    return spec
