"""Synthetic workloads and one-call journaled service sessions.

:func:`synthetic_events` turns a seed into a join/leave/stats stream —
a present-set state machine over the ``"service"`` RNG stream, so the
same seed yields the same events in every process.  :func:`make_service`
builds a cold-start controller (empty social model, deterministic type
table, default demand EWMA) around that population, and
:func:`run_journaled_service` runs the stream through it under the
observability stack, streaming the journal as it goes
(:func:`service_journal`, shared with the crash supervisor).

The journal meta deliberately excludes the producer count: a journal
must not reveal — and therefore must not depend on — how many asyncio
producers raced to submit the stream.  ``tests/test_service_journal.py``
byte-diffs serial against eight-producer runs on that basis.
"""

from __future__ import annotations

import asyncio
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

import numpy as np

from repro import obs, perf
from repro.core.demand import DemandEstimator
from repro.core.online import OnlineConfig, OnlineLearner
from repro.core.social import SocialModel
from repro.core.typing import TypeModel
from repro.obs.journal import streamed_journal
from repro.obs.tracer import TRACER
from repro.service.admission import AdmissionConfig
from repro.service.events import (
    ServiceEvent,
    StationJoin,
    StationLeave,
    StatsReport,
)
from repro.service.fastpath import FastAssociator
from repro.service.loop import BalanceMonitorApp, ControllerService, run_events
from repro.sim.rng import IndexDraws, RandomStreams
from repro.wlan.entities import APRuntime


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one synthetic service session."""

    users: int = 32
    aps: int = 8
    events: int = 600
    seed: int = 7
    #: Per-AP capacity (bytes/second).
    bandwidth: float = 2.0e6
    #: Mean simulated seconds between events (exponential gaps).
    mean_gap: float = 1.0
    #: Scale of reported mean rates (bytes/second, exponential).
    stats_scale: float = 80e3
    #: User types in the deterministic cold-start affinity table.
    type_count: int = 3
    #: Balance-sampling grid of the monitor app (sim seconds).
    monitor_interval: float = 5.0

    def __post_init__(self) -> None:
        if self.users < 1 or self.aps < 1 or self.events < 0:
            raise ValueError("users/aps must be >= 1, events >= 0")
        for name in ("bandwidth", "mean_gap", "stats_scale", "monitor_interval"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.type_count < 1:
            raise ValueError("type_count must be >= 1")


def synthetic_events(spec: WorkloadSpec) -> List[ServiceEvent]:
    """A deterministic join/leave/stats stream for ``spec``.

    Present/absent users are kept in lists mutated only by indexed pops
    and appends, so every draw's choice set has one deterministic order
    — no iteration over sets anywhere.

    Each index is ``rng.integers(len(choices))``, drawn by
    :class:`~repro.sim.rng.IndexDraws` (the same bits, without a numpy
    call per draw), and each event is built field by field with
    ``object.__setattr__``, as the frozen dataclass ``__init__`` builds
    it: the same events as the constructors make.  numpy's scalar
    ``exponential`` and ``random`` draws are already Python floats.
    """
    rng = RandomStreams(spec.seed).get("service")
    exponential, random, index = rng.exponential, rng.random, IndexDraws(rng)
    mean_gap, stats_scale = spec.mean_gap, spec.stats_scale
    new, put = object.__new__, object.__setattr__
    absent = [f"u{i:03d}" for i in range(spec.users)]
    present: List[str] = []
    events: List[ServiceEvent] = []
    append = events.append
    time = 0.0
    for seq in range(spec.events):
        time += exponential(mean_gap)
        roll = random()
        if absent and (not present or roll < 0.45):
            user = absent.pop(index(len(absent)))
            present.append(user)
            event: ServiceEvent = new(StationJoin)
        elif present and roll < 0.7:
            user = present.pop(index(len(present)))
            absent.append(user)
            event = new(StationLeave)
        else:
            user = present[index(len(present))]
            event = new(StatsReport)
            put(event, "mean_rate", exponential(stats_scale))
        put(event, "seq", seq)
        put(event, "time", time)
        put(event, "user_id", user)
        append(event)
    # The generator is this call's own, so the draws' held half-word
    # is never written back (``IndexDraws.sync``).
    return events


def _cold_start_model(spec: WorkloadSpec) -> SocialModel:
    """An empty social model over a deterministic type table.

    Three of every four users are typed round-robin; the fourth stays a
    stranger so the unknown bucket is exercised.  The affinity table is
    a fixed symmetric pattern (no RNG): the point of the service runs is
    what the *online* learner adds on top.
    """
    k = spec.type_count
    index = np.arange(k, dtype=np.float64)
    affinity = 0.1 + 0.05 * ((index[:, None] + index[None, :]) % 3.0)
    affinity = affinity + 0.5 * np.eye(k)
    assignments = {
        f"u{i:03d}": i % k for i in range(spec.users) if i % 4 != 3
    }
    type_model = TypeModel(
        centroids=np.zeros((k, 6)), assignments=assignments, affinity=affinity
    )
    return SocialModel({}, type_model)


def make_service(
    spec: WorkloadSpec,
    admission: Optional[AdmissionConfig] = None,
    monitor: bool = True,
    online: Optional[OnlineConfig] = None,
    gap_horizon: Optional[float] = None,
) -> ControllerService:
    """A cold-start controller service sized for ``spec``.

    ``gap_horizon`` turns on the reorder buffer's tolerant mode (gaps
    older than the horizon are skipped instead of wedging dispatch) —
    the supervised/chaos path needs it; clean workloads leave it off and
    keep the strict fail-fast contract.
    """
    social = _cold_start_model(spec)
    demand = DemandEstimator()
    aps = [APRuntime(f"ap{i:02d}", spec.bandwidth) for i in range(spec.aps)]
    associator = FastAssociator(social, demand, aps)
    apps = (
        [BalanceMonitorApp(interval=spec.monitor_interval)] if monitor else []
    )
    return ControllerService(
        associator,
        admission=admission,
        apps=apps,
        learner=OnlineLearner(social, online),
        gap_horizon=gap_horizon,
    )


def journal_meta(spec: WorkloadSpec) -> Dict[str, Any]:
    """The meta header of a service journal for ``spec``."""
    return {
        "component": "service",
        "seed": spec.seed,
        "events": spec.events,
        "users": spec.users,
        "aps": spec.aps,
    }


@contextmanager
def service_journal(
    journal: Optional[Union[str, Path]],
    meta: Dict[str, Any],
    metrics: bool = False,
) -> Iterator[None]:
    """The observability scope of one service run.

    With a ``journal`` the tracer and perf registry start fresh (and the
    metrics registry, when ``metrics``), every record is streamed to the
    journal as it completes, and the footers land when the block exits;
    the tracer is switched off again afterwards, so it is on exactly
    while its journal is open.  Without one the run is untraced: the
    tracer is off for the block and its flag restored after, so a tracer
    left on elsewhere never buffers a service run in memory.
    """
    if journal is None:
        enabled = TRACER.enabled
        TRACER.enabled = False
        try:
            yield
        finally:
            TRACER.enabled = enabled
        return
    obs.enable(reset=True)
    perf.reset()
    if metrics:
        obs.metrics.enable(reset=True)
    try:
        with streamed_journal(journal, meta):
            yield
    finally:
        obs.disable()


def run_journaled_service(
    spec: WorkloadSpec,
    journal: Optional[Union[str, Path]] = None,
    metrics: bool = False,
    producers: int = 1,
    admission: Optional[AdmissionConfig] = None,
) -> Dict[str, Any]:
    """Run one synthetic session; journal it; return a summary dict."""
    if metrics and journal is None:
        raise ValueError("metrics require a journal to land in")
    events = synthetic_events(spec)
    service = make_service(spec, admission)
    with service_journal(journal, journal_meta(spec), metrics):
        asyncio.run(run_events(service, events, producers=producers))
    queue = service.admission
    return {
        "events": service.events_processed,
        "decisions": queue.decisions,
        "batches": queue.batches,
        "sheds": queue.sheds,
        "users_online": service.associator.total_users(),
        "known_pairs": (
            service.learner.social.known_pairs()
            if service.learner is not None
            else 0
        ),
    }
