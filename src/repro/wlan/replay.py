"""Trace-driven replay: demands in, session log + metrics out.

This is the paper's evaluation vehicle (Section V.A): the *demand* side of
the trace — who arrives where, when they leave, how much traffic they
carry — is fixed; the strategy under test only decides which AP serves
each arrival.  Users are never migrated once associated (the paper's
user-friendliness requirement), so a strategy's entire influence is the
association decision.

Mechanics (driven by the :mod:`repro.sim` kernel):

* **arrivals** are buffered per controller for ``batch_window`` seconds,
  then flushed as one batch — simultaneous (co-)arrivals reach the
  strategy together, which is what Algorithm 1's "users to be distributed"
  graph operates on.  Strategies without batch logic are fed the batch
  sequentially with live state updates in between, which is exactly the
  behaviour of an arrival-based controller;
* **departures** are exact events at the demanded departure time;
* a **sampler** snapshots every controller's per-AP load and user counts
  on a fixed interval for the metrics series.

Event ordering at equal timestamps: fault events (priority -1) before
departures (priority 0) before arrivals (priority 1) before batch flushes
(priority 2) before samples (priority 3), so a flush sees every departure
up to its instant and a fault takes effect before anything else at its
instant.

Fault injection (``fault_plan=``): ``ApDown`` evicts the AP's active
users — each gets a truncated session record and its demand remainder is
re-buffered, producing one forced co-leaving/re-association batch — and
hides the AP from candidate sets until the matching ``ApUp``.
``ControllerOutage`` degrades steering to per-station strongest-signal
while it lasts; ``StaleLoadReport`` skips the controller's next load
poll.  All fault handling is keyed off the plan alone, so same-seed
chaos replays stay byte-identical (see ``docs/robustness.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from functools import partial
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro import perf
from repro.analysis.balance import normalized_balance_index
from repro.core.selection import Candidates
from repro.faults.model import (
    REPLAY_KINDS,
    ApDown,
    ApUp,
    ControllerOutage,
    FaultEvent,
    FaultPlan,
    StaleLoadReport,
)
from repro.obs import metrics as obs_metrics
from repro.obs.records import (
    DecisionRecord,
    FaultRecord,
    SampleRecord,
    candidates_from_states,
)
from repro.obs.tracer import NULL_SPAN, AnySpan, get_tracer
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.timeline import MINUTE
from repro.trace.records import (
    DemandSession,
    SessionRecord,
    TraceBundle,
    session_rows,
)
from repro.trace.social import CampusLayout
from repro.wlan.entities import CampusRuntime, ControllerRuntime
from repro.wlan.metrics import ControllerSeries, MetricsCollector
from repro.wlan.radio import ApPositions, sample_position
from repro.wlan.strategies import SelectionStrategy, StrongestSignal

_PRIORITY_FAULT = -1
_PRIORITY_DEPARTURE = 0
_PRIORITY_ARRIVAL = 1
_PRIORITY_FLUSH = 2
_PRIORITY_SAMPLE = 3

#: Session rows sort as their records do: by connect time, then user.
_CONNECT_USER = itemgetter(3, 0)


def demand_constants(demand: DemandSession) -> Tuple[float, float]:
    """``(bytes_total, mean_rate)`` of ``demand`` from one ``realm_bytes`` sum.

    Equal, bit for bit, to the :class:`DemandSession` properties of the
    same names, each of which re-sums ``realm_bytes`` on every read.
    """
    total = float(sum(demand.realm_bytes))
    duration = demand.departure - demand.arrival
    return total, (total / duration if duration > 0 else 0.0)


def shard_stream_name(controller_id: str) -> str:
    """The :meth:`~repro.sim.rng.RandomStreams.child` name of one domain.

    The engine derives the radio streams of controller ``c`` from the
    child factory ``RandomStreams(seed).child(shard_stream_name(c))``.
    The name seeds every station's draws, so it is part of the replay's
    output: changing it moves every pinned replay digest.
    """
    return f"shard:{controller_id}"


class StationRssi(Mapping[str, float]):
    """One arriving station's RSSI map, drawn the first time it is read.

    Only strategies that steer by signal (strongest signal, S³'s
    no-candidate fallback, the controller-outage fallback, tracer scores)
    read radio readings, so the engine hands each station this view,
    which draws the map the first time anything reads it and keeps it.
    A strategy that declares it never reads one
    (``SelectionStrategy.reads_rssi``) gets no view at all, outside a
    controller outage.  Each station draws from the start of its own
    named ``radio-<user>-<arrival>`` stream (:class:`StationRadios`), so
    deferring a draw, or never making it, changes no value anyone reads.
    The draws stay lazy and per station; only the streams' seeds are
    derived ahead, per controller, on its first radio read.
    """

    __slots__ = ("_draw", "_drawn")

    def __init__(self, draw: Callable[[], Dict[str, float]]) -> None:
        self._draw = draw
        self._drawn: Optional[Dict[str, float]] = None

    def _read(self) -> Dict[str, float]:
        drawn = self._drawn
        if drawn is None:
            drawn = self._drawn = self._draw()
        return drawn

    def __getitem__(self, ap_id: str) -> float:
        return self._read()[ap_id]

    def __iter__(self) -> Iterator[str]:
        return iter(self._read())

    def __len__(self) -> int:
        return len(self._read())


class StationRadios:
    """One run's station RSSI draws, the source of its radio views.

    Each station draws from the start of its own ``radio-<user>-<arrival>``
    stream of its controller's radio factory,
    ``child(shard_stream_name(c))``, so a station's draws depend on
    nothing else the run does.  A controller's factory is derived
    on its first radio read, with the seeds of every radio stream its
    demands name prepared in one pass; each station's generator is
    recycled once drawn and started on the next station's stream, and
    each building's AP positions are arrays built on first use.  Nothing
    outlives the run: a second run of one engine starts every stream
    over.
    """

    __slots__ = (
        "_streams", "_layout", "_sigma", "_demands", "_controller_of",
        "_radios", "_positions",
    )

    def __init__(
        self,
        streams: RandomStreams,
        layout: CampusLayout,
        shadowing_sigma_db: float,
        demands: Sequence[DemandSession],
        controller_of: Mapping[str, str],
    ) -> None:
        self._streams = streams
        self._layout = layout
        self._sigma = shadowing_sigma_db
        self._demands = demands
        self._controller_of = controller_of
        self._radios: Dict[str, RandomStreams] = {}
        self._positions: Dict[str, ApPositions] = {}

    def _radio_streams(self, controller_id: str) -> RandomStreams:
        radios = self._radios.get(controller_id)
        if radios is None:
            radios = self._streams.child(shard_stream_name(controller_id))
            radios.prepare(
                f"radio-{d.user_id}-{d.arrival:.3f}"
                for d in self._demands
                if self._controller_of.get(d.building_id) == controller_id
            )
            self._radios[controller_id] = radios
        return radios

    def draw(self, demand: DemandSession, controller_id: str) -> Dict[str, float]:
        """The station's RSSI map: a position in its building, then one
        shadowing draw per AP of the building."""
        radios = self._radio_streams(controller_id)
        rng = radios.get(f"radio-{demand.user_id}-{demand.arrival:.3f}")
        position = sample_position(self._layout.buildings[demand.building_id], rng)
        positions = self._positions.get(demand.building_id)
        if positions is None:
            positions = ApPositions(self._layout.aps_of_building(demand.building_id))
            self._positions[demand.building_id] = positions
        drawn = positions.rssi_map(position, rng, self._sigma)
        radios.recycle()
        return drawn


class ChangeTracker:
    """Which controllers moved since their last load poll and last sample.

    Only an association change or a recorded measurement moves what a
    poll or a sample reads, and the engine marks the controller on each
    (:meth:`mark`).  An unmarked controller's poll would re-record the
    loads it already measured, and its sample would repeat its previous
    rows, so :meth:`poll` skips it and :meth:`sample` has the collector
    repeat the rows.  A poll that is not made (a lost, stale report)
    leaves the mark for the next one.  Every controller starts marked:
    the first poll turns an idle AP's measured ``0.0`` into its load, the
    int ``0``.
    """

    __slots__ = ("_unpolled", "_unsampled")

    def __init__(self, controller_ids: Sequence[str]) -> None:
        self._unpolled: Set[str] = set(controller_ids)
        self._unsampled: Set[str] = set(controller_ids)

    def mark(self, controller_id: str) -> None:
        """The controller's associations or measured loads moved."""
        self._unpolled.add(controller_id)
        self._unsampled.add(controller_id)

    def poll(self, controller: ControllerRuntime) -> None:
        """One load poll of ``controller``: a no-op unless it moved."""
        if controller.controller_id in self._unpolled:
            self._unpolled.discard(controller.controller_id)
            controller.refresh_measurements()

    def sample(
        self, collector: MetricsCollector, now: float, campus: CampusRuntime
    ) -> None:
        """One metrics sample of every controller, fresh rows only for
        the controllers that moved."""
        collector.sample(now, campus, changed=self._unsampled)
        self._unsampled.clear()


@dataclass(frozen=True)
class ReplayWindow:
    """The event grid of one replay run: first arrival to horizon.

    ``start`` anchors the simulator clock and both periodic schedules,
    ``horizon`` is the run-until instant.  Fault plans are generated
    over a run's window (:func:`window_for`) before the run starts.
    """

    start: float
    horizon: float

    def __post_init__(self) -> None:
        if self.horizon < self.start:
            raise ValueError(
                f"window horizon {self.horizon} precedes start {self.start}"
            )


def window_for(
    demands: Sequence[DemandSession], config: ReplayConfig
) -> ReplayWindow:
    """The window a run of ``demands`` uses."""
    if not demands:
        raise ValueError("cannot derive a window from zero demands")
    return ReplayWindow(
        start=min(d.arrival for d in demands),
        horizon=max(d.departure for d in demands) + config.batch_window,
    )


@dataclass(frozen=True)
class ReplayConfig:
    """Replay engine knobs."""

    #: Arrival batching window per controller (seconds).  Zero still groups
    #: arrivals with identical timestamps into one batch.
    batch_window: float = 60.0
    #: Metrics sampling interval (seconds).
    sample_interval: float = 5 * MINUTE
    #: Controller load-polling interval (seconds).  Strategies only see AP
    #: loads as of the last poll — real controllers read AP traffic
    #: counters periodically, and the staleness between polls is precisely
    #: what makes arrival-based least-loaded selection herd co-arriving
    #: users onto the momentarily-emptiest AP.  Association *counts* are
    #: always fresh (the controller owns the association table).
    load_measurement_interval: float = 5 * MINUTE
    #: Log-normal shadowing sigma for the radio model (dB); zero disables.
    shadowing_sigma_db: float = 4.0
    #: Seed for station-position / shadowing draws.
    seed: int = 1

    def __post_init__(self) -> None:
        if self.batch_window < 0:
            raise ValueError("batch_window must be non-negative")
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        if self.load_measurement_interval <= 0:
            raise ValueError("load_measurement_interval must be positive")


@dataclass
class ReplayResult:
    """Everything a replay run produces."""

    strategy_name: str
    sessions: List[SessionRecord]
    series: Dict[str, ControllerSeries]
    events_processed: int

    def to_bundle(
        self, source: Optional[TraceBundle] = None
    ) -> TraceBundle:
        """A trace bundle of the replayed sessions.

        With ``source`` given, its flows and demands are carried over —
        this is how the *collected* training trace (sessions under LLF +
        router flows) is assembled.
        """
        return TraceBundle(
            sessions=self.sessions,
            flows=source.flow_columns() if source is not None else (),
            demands=source.demands if source is not None else [],
        )

    def mean_balance(self) -> float:
        """Mean normalized balance index over controllers' active samples."""
        values: List[float] = []
        for series in self.series.values():
            mask = series.active_mask()
            if mask.any():
                values.extend(series.balance_series()[mask])
        return float(np.mean(values)) if values else 1.0


class ReplayEngine:
    """Replays a demand stream under one strategy."""

    def __init__(
        self,
        layout: CampusLayout,
        strategy: SelectionStrategy,
        config: Optional[ReplayConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.layout = layout
        self.strategy = strategy
        self.config = config if config is not None else ReplayConfig()
        self.fault_plan = fault_plan
        # Engine-held strongest-signal selector: the declared last resort
        # when a controller is unreachable (ControllerOutage).  Stateless,
        # so sharing one instance across batches is safe.
        self._rssi_fallback = StrongestSignal()
        self._streams = RandomStreams(self.config.seed)

    # ------------------------------------------------------------- running

    def run(self, demands: Sequence[DemandSession]) -> ReplayResult:
        """Replay all demands; returns sessions and sampled metrics."""
        with perf.timer(f"replay.run.{self.strategy.name}"):
            with get_tracer().span(
                "replay.run",
                strategy=self.strategy.name,
                demands=len(demands),
            ) as span:
                result = self._run(demands, span)
                span.set(
                    sessions=len(result.sessions),
                    events=result.events_processed,
                )
        perf.count("replay.events", result.events_processed)
        perf.count("replay.sessions", len(result.sessions))
        return result

    def _run(
        self, demands: Sequence[DemandSession], span: AnySpan
    ) -> ReplayResult:
        demands = sorted(demands, key=lambda d: (d.arrival, d.user_id))
        if not demands:
            return ReplayResult(self.strategy.name, [], {}, 0)
        window = window_for(demands, self.config)

        campus = CampusRuntime(self.layout, self.strategy.social)
        controller_of = {
            building_id: building.controller_id
            for building_id, building in self.layout.buildings.items()
            if building.controller_id in campus.controllers
        }
        sampled = sorted(campus.controllers)
        collector = MetricsCollector()
        changes = ChangeTracker(sampled)
        # id(demand) -> (bytes_total, mean_rate), computed once per demand
        # the engine schedules (the engine holds every such demand, so
        # its id is never reused while it is live).
        constants: Dict[int, Tuple[float, float]] = {}
        sim = Simulator(start_time=window.start)
        tracer = get_tracer()
        span.sim_start = window.start
        # Per-controller flush sequence numbers for decision provenance.
        batch_seq: Dict[str, int] = {}
        # The session log as (user, AP, controller, connect, disconnect,
        # bytes) rows; records are built once, after the run.
        sessions: List[Tuple[str, str, str, float, float, float]] = []
        # Per-controller arrival buffers and their pending flush flags.
        buffers: Dict[str, List[DemandSession]] = {}
        flush_scheduled: Dict[str, bool] = {}
        # user -> (ap_id, controller_id, owning demand) while associated.
        active: Dict[str, Tuple[str, str, DemandSession]] = {}

        # ---- fault state (all empty when no plan is injected) ----------
        # APs currently down (hidden from candidate sets).
        down: Set[str] = set()
        # controller -> sim time its outage ends (strongest-signal
        # fallback until then).
        outage_until: Dict[str, float] = {}
        # Controllers whose next load poll must be skipped (stale report).
        stale_pending: Set[str] = set()
        # controller -> sorted ApUp times, for deferring a flush whose
        # controller has every AP down.
        up_times: Dict[str, List[float]] = {}
        fault_events = self._plan_events(window, up_times)
        radios = StationRadios(
            self._streams, self.layout, self.config.shadowing_sigma_db,
            demands, controller_of,
        )

        def handle_departure(demand: DemandSession) -> None:
            entry = active.get(demand.user_id)
            if entry is None or entry[2] is not demand:
                # This demand's arrival was skipped (user already online
                # under another demand); nothing to tear down.
                return
            del active[demand.user_id]
            ap_id, controller_id, _ = entry
            campus.controllers[controller_id].aps[ap_id].disassociate(demand.user_id)
            changes.mark(controller_id)
            total, rate = constants[id(demand)]
            sessions.append(
                (demand.user_id, ap_id, controller_id, demand.arrival,
                 demand.departure, total)
            )
            self.strategy.observe_departure(
                demand.user_id, ap_id, demand.departure, mean_rate=rate
            )

        # user -> demands currently waiting in some controller's buffer.
        buffered: Dict[str, List[DemandSession]] = {}

        def place(demand: DemandSession, ap_id: str, controller_id: str) -> None:
            """Commit one placement decision.

            A demand whose departure already passed (it lived and died
            within the batching latency) is recorded directly — its load
            never materializes, but the session existed and the log must
            say so.  Everything else associates normally.
            """
            controller = campus.controllers[controller_id]
            if ap_id not in controller.aps:
                raise RuntimeError(
                    f"strategy {self.strategy.name} returned invalid AP "
                    f"{ap_id!r} for user {demand.user_id}"
                )
            self.strategy.observe_arrival(demand.user_id, ap_id, sim.now)
            total, rate = constants[id(demand)]
            if demand.departure <= sim.now:
                sessions.append(
                    (demand.user_id, ap_id, controller_id, demand.arrival,
                     demand.departure, total)
                )
                self.strategy.observe_departure(
                    demand.user_id, ap_id, demand.departure, mean_rate=rate
                )
                return
            controller.aps[ap_id].associate(demand.user_id, rate)
            changes.mark(controller_id)
            active[demand.user_id] = (ap_id, controller_id, demand)

        def flush(controller_id: str) -> None:
            batch = buffers.get(controller_id, [])
            if batch and down:
                controller = campus.controllers[controller_id]
                if all(ap_id in down for ap_id in controller.ap_ids):
                    # Nothing can serve this batch: defer the flush to the
                    # controller's next ApUp instant.  The up event runs at
                    # priority -1, so the AP is back before the re-flush.
                    next_up = next(
                        (
                            t
                            for t in up_times.get(controller_id, [])
                            if t > sim.now
                        ),
                        None,
                    )
                    if next_up is None:
                        raise RuntimeError(
                            f"controller {controller_id}: every AP is down "
                            f"at t={sim.now} and the fault plan schedules "
                            "no ApUp — the batch can never be served"
                        )
                    perf.count("faults.deferred_flushes")
                    sim.post(
                        next_up, partial(flush, controller_id), _PRIORITY_FLUSH
                    )
                    return
            flush_scheduled[controller_id] = False
            if not batch:
                return
            buffers[controller_id] = []
            for demand in batch:
                waiting = buffered.get(demand.user_id, [])
                if demand in waiting:
                    waiting.remove(demand)
                if not waiting:
                    buffered.pop(demand.user_id, None)
            seq = batch_seq.get(controller_id, 0)
            batch_seq[controller_id] = seq + 1
            self._assign_batch(
                campus, controller_id, batch, place, sim, radios,
                batch_id=f"{controller_id}#{seq}",
                down=down,
                outage_until=outage_until,
            )

        def handle_arrival(demand: DemandSession) -> None:
            # One radio per station: a demand that temporally overlaps the
            # user's active or already-buffered demand cannot hold a second
            # link and is dropped.  Non-overlapping demands that merely
            # *look* concurrent because of batching latency proceed.
            entry = active.get(demand.user_id)
            if entry is not None and entry[2].departure > demand.arrival:
                return
            for waiting in buffered.get(demand.user_id, ()):
                if waiting.departure > demand.arrival:
                    return
            controller_id = controller_of.get(demand.building_id)
            if controller_id is None:  # an unknown building: this raises
                controller_id = campus.controller_for_building(
                    demand.building_id
                ).controller_id
            buffers.setdefault(controller_id, []).append(demand)
            buffered.setdefault(demand.user_id, []).append(demand)
            if not flush_scheduled.get(controller_id, False):
                flush_scheduled[controller_id] = True
                sim.post(
                    sim.now + self.config.batch_window,
                    partial(flush, controller_id),
                    _PRIORITY_FLUSH,
                )

        for demand in demands:
            constants[id(demand)] = demand_constants(demand)
            sim.post(demand.arrival, partial(handle_arrival, demand), _PRIORITY_ARRIVAL)
            # A session shorter than the batch window departs only after its
            # arrival batch has been flushed; the epsilon puts the departure
            # strictly after the flush event at the window boundary.
            departure_time = demand.departure
            flush_time = demand.arrival + self.config.batch_window
            if departure_time <= flush_time:
                departure_time = flush_time + 1e-6
            sim.post(
                departure_time,
                partial(handle_departure, demand),
                _PRIORITY_DEPARTURE,
            )

        def fault_ap_down(event: ApDown) -> None:
            controller_id = self.layout.controller_of_ap(event.ap_id)
            controller = campus.controllers[controller_id]
            ap = controller.aps[event.ap_id]
            down.add(event.ap_id)
            evicted = list(ap.users)
            if tracer.enabled:
                tracer.fault(
                    FaultRecord(
                        sim_time=sim.now,
                        kind=event.kind,
                        target=event.ap_id,
                        controller_id=controller_id,
                        detail={"evicted": len(evicted)},
                    )
                )
            perf.count("faults.evicted_users", len(evicted))
            if evicted:
                changes.mark(controller_id)
            for user_id in evicted:
                ap_id, _, demand = active.pop(user_id)
                ap.disassociate(user_id)
                total, rate = constants[id(demand)]
                # Truncated first leg: bytes prorated to the served
                # fraction of the demanded dwell.
                duration = demand.departure - demand.arrival
                served = (sim.now - demand.arrival) / duration
                sessions.append(
                    (user_id, ap_id, controller_id, demand.arrival, sim.now,
                     total * served)
                )
                self.strategy.observe_departure(
                    user_id, ap_id, sim.now, mean_rate=rate
                )
                if demand.departure <= sim.now:
                    continue
                # The remainder re-arrives *now* — the forced co-leaving
                # burst: every evicted user hits the same flush batch.
                remaining = 1.0 - served
                remainder = dc_replace(
                    demand,
                    arrival=sim.now,
                    realm_bytes=tuple(
                        b * remaining for b in demand.realm_bytes
                    ),
                )
                constants[id(remainder)] = demand_constants(remainder)
                handle_arrival(remainder)
                departure_time = remainder.departure
                flush_time = sim.now + self.config.batch_window
                if departure_time <= flush_time:
                    departure_time = flush_time + 1e-6
                sim.post(
                    departure_time,
                    partial(handle_departure, remainder),
                    _PRIORITY_DEPARTURE,
                )

        def fault_ap_up(event: ApUp) -> None:
            down.discard(event.ap_id)
            if tracer.enabled:
                tracer.fault(
                    FaultRecord(
                        sim_time=sim.now,
                        kind=event.kind,
                        target=event.ap_id,
                        controller_id=self.layout.controller_of_ap(
                            event.ap_id
                        ),
                        detail={},
                    )
                )

        def fault_outage(event: ControllerOutage) -> None:
            current = outage_until.get(event.controller_id, window.start)
            outage_until[event.controller_id] = max(
                current, sim.now + event.duration
            )
            if tracer.enabled:
                tracer.fault(
                    FaultRecord(
                        sim_time=sim.now,
                        kind=event.kind,
                        target=event.controller_id,
                        controller_id=event.controller_id,
                        detail={"duration": event.duration},
                    )
                )

        def fault_stale(event: StaleLoadReport) -> None:
            stale_pending.add(event.controller_id)
            if tracer.enabled:
                tracer.fault(
                    FaultRecord(
                        sim_time=sim.now,
                        kind=event.kind,
                        target=event.controller_id,
                        controller_id=event.controller_id,
                        detail={},
                    )
                )

        def fire_fault(event: FaultEvent) -> None:
            perf.count(f"faults.{event.kind}")
            obs_metrics.inc("faults.injected", 1.0, sim.now)
            if isinstance(event, ApDown):
                fault_ap_down(event)
            elif isinstance(event, ApUp):
                fault_ap_up(event)
            elif isinstance(event, ControllerOutage):
                fault_outage(event)
            elif isinstance(event, StaleLoadReport):
                fault_stale(event)
            else:  # pragma: no cover - _plan_events filters to REPLAY_KINDS
                raise TypeError(f"unexpected fault event {event!r}")

        # Plan order is sorted (time, kind, target); scheduling in plan
        # order makes same-instant faults fire in one fixed order.
        for event in fault_events:
            sim.post(event.time, partial(fire_fault, event), _PRIORITY_FAULT)

        def take_sample() -> None:
            changes.sample(collector, sim.now, campus)
            metrics_on = obs_metrics.REGISTRY.enabled
            if tracer.enabled or metrics_on:
                for controller_id in sampled:
                    controller = campus.controllers[controller_id]
                    loads = controller.loads()
                    total_load = float(sum(loads))
                    if metrics_on:
                        obs_metrics.set_gauge(
                            "replay.controller_load",
                            total_load,
                            sim.now,
                            (("controller", controller_id),),
                        )
                    if tracer.enabled:
                        tracer.sample(
                            SampleRecord(
                                sim_time=sim.now,
                                controller_id=controller_id,
                                balance=normalized_balance_index(loads),
                                total_load=total_load,
                                users=int(sum(controller.user_counts())),
                            )
                        )

        stop_sampler = sim.every(
            self.config.sample_interval,
            take_sample,
            start=window.start,
            priority=_PRIORITY_SAMPLE,
        )

        def poll_loads() -> None:
            for controller_id in sampled:
                if controller_id in stale_pending:
                    # StaleLoadReport: this poll is lost; strategies keep
                    # steering on the previous measurement for one more
                    # interval, and the controller's change stays pending.
                    stale_pending.discard(controller_id)
                    perf.count("faults.stale_polls")
                    continue
                changes.poll(campus.controllers[controller_id])

        stop_poller = sim.every(
            self.config.load_measurement_interval,
            poll_loads,
            start=window.start,
            priority=_PRIORITY_DEPARTURE,  # polls see departures of the instant
        )
        try:
            sim.run(until=window.horizon)
        finally:
            stop_sampler()
            stop_poller()
            # ``flush`` posts itself (a deferred flush): a reference cycle
            # through its own cell, which would keep the run's state (the
            # session log, sampler rows, campus) alive until a full
            # collection.  Emptying the cell lets reference counting free
            # it with the run.
            del flush
        span.sim_end = sim.now
        return ReplayResult(
            strategy_name=self.strategy.name,
            sessions=session_rows(sorted(sessions, key=_CONNECT_USER)),
            series=collector.series(),
            events_processed=sim.events_processed,
        )

    # ----------------------------------------------------------- internals

    def _plan_events(
        self, window: ReplayWindow, up_times: Dict[str, List[float]]
    ) -> List[FaultEvent]:
        """Validate and filter the fault plan for one run.

        Returns the plan's replay-relevant events.  Events naming an
        unknown AP or controller, or firing before the window start, are
        an error; events past the horizon never fire and are dropped
        silently (a plan may outlive a short replay).  ``up_times`` is
        filled with each controller's sorted ApUp instants (for flush
        deferral).
        """
        if self.fault_plan is None:
            return []
        events: List[FaultEvent] = []
        for event in self.fault_plan.of_kinds(REPLAY_KINDS):
            if isinstance(event, (ApDown, ApUp)):
                if event.ap_id not in self.layout.aps:
                    raise KeyError(
                        f"fault plan names unknown AP {event.ap_id!r}"
                    )
                controller_id = self.layout.controller_of_ap(event.ap_id)
            else:
                controller_id = event.controller_id
                if controller_id not in self.layout.controller_ids:
                    raise KeyError(
                        f"fault plan names unknown controller "
                        f"{controller_id!r}"
                    )
            if event.time < window.start:
                raise ValueError(
                    f"fault event {event.kind!r} at t={event.time} "
                    f"precedes the window start {window.start}"
                )
            if event.time > window.horizon:
                continue
            events.append(event)
            if isinstance(event, ApUp):
                up_times.setdefault(controller_id, []).append(event.time)
        for times in up_times.values():
            times.sort()
        return events

    def _assign_batch(
        self,
        campus: CampusRuntime,
        controller_id: str,
        batch: List[DemandSession],
        place: Callable[[DemandSession, str, str], None],
        sim: Simulator,
        radios: StationRadios,
        batch_id: str = "",
        down: Optional[Set[str]] = None,
        outage_until: Optional[Dict[str, float]] = None,
    ) -> None:
        controller = campus.controllers[controller_id]
        tracer = get_tracer()
        metrics_on = obs_metrics.REGISTRY.enabled
        outage_end = (
            None if outage_until is None else outage_until.get(controller_id)
        )
        outage = outage_end is not None and sim.now < outage_end
        # Radio views only where something may read one: the strategy,
        # unless it declares it never does, or the outage fallback.
        # Without views every station's reading is None.
        rssi_by_user: Dict[str, StationRssi] = (
            {
                d.user_id: StationRssi(partial(radios.draw, d, controller_id))
                for d in batch
            }
            if outage or self.strategy.reads_rssi
            else {}
        )
        user_ids = [d.user_id for d in batch]
        snapshots = controller.snapshots(down=down or ())
        perf.count("replay.batches")
        obs_metrics.inc("replay.batches", 1.0, sim.now)
        # Build the span args only when tracing: this runs once per flush,
        # and the disabled path must stay near-free.
        span = (
            tracer.span(
                "replay.flush",
                sim_time=sim.now,
                clock=lambda: sim.now,
                controller=controller_id,
                users=len(batch),
            )
            if tracer.enabled
            else NULL_SPAN
        )
        with span:
            placement = None
            if outage:
                # Controller unreachable: the engine steers each station
                # to its strongest signal, the declared last resort of
                # every fallback chain.
                perf.count("faults.outage_fallback", len(batch))
            elif (
                type(self.strategy).assign_batch
                is not SelectionStrategy.assign_batch
            ):
                # The base hook always declines: only an override is
                # called (and timed).
                with perf.timer("replay.assign_batch"):
                    placement = self.strategy.assign_batch(
                        user_ids, snapshots, rssi_by_user=rssi_by_user or None
                    )
            if placement is None:
                # Sequential fallback: live snapshots between picks, which
                # is what an arrival-at-a-time controller does.
                strategy = self._rssi_fallback if outage else self.strategy
                # The first pick sees the pre-batch state: nothing has
                # moved since it was snapshotted.
                states = snapshots
                for i, demand in enumerate(batch):
                    rssi = rssi_by_user.get(demand.user_id)
                    if i:
                        states = controller.snapshots(down=down or ())
                    choice = strategy.select(demand.user_id, states, rssi=rssi)
                    note = (
                        "fallback:rssi:controller-outage"
                        if outage
                        else strategy.consume_degradation()
                    )
                    if metrics_on:
                        self._observe_decision(sim.now, len(states), note)
                    if tracer.enabled:
                        tracer.decision(
                            self._decision(
                                strategy, demand, states, choice, controller_id,
                                batch_id, sim.now, "single", rssi, note,
                            )
                        )
                    place(demand, choice, controller_id)
                return

            note = self.strategy.consume_degradation()
            missing = [d.user_id for d in batch if d.user_id not in placement]
            if missing:
                raise RuntimeError(
                    f"strategy {self.strategy.name} returned no AP "
                    f"for user {missing[0]}"
                )
            # Candidates are the pre-batch snapshots: the state the batch
            # strategy actually scored against.  Placing moves the live
            # index, so every record is built before the first placement.
            records = (
                [
                    self._decision(
                        self.strategy, demand, snapshots,
                        placement[demand.user_id], controller_id, batch_id,
                        sim.now, "batch", rssi_by_user.get(demand.user_id),
                        note,
                    )
                    for demand in batch
                ]
                if tracer.enabled
                else []
            )
            for i, demand in enumerate(batch):
                if metrics_on:
                    self._observe_decision(sim.now, len(snapshots), note)
                if records:
                    tracer.decision(records[i])
                place(demand, placement[demand.user_id], controller_id)

    def _observe_decision(
        self, sim_time: float, candidates: int, note: Optional[str]
    ) -> None:
        """Record one decision's run-scoped metrics (metrics enabled).

        ``fallback_depth`` is the position in the strategy's declared
        ``fallback_chain`` that produced the decision: 0 for the primary
        path (``note`` absent), the chain index of the noted fallback
        strategy, or one past the chain for last resorts the chain does
        not name.
        """
        registry = obs_metrics.REGISTRY
        registry.counter("replay.decisions").inc(1.0, sim_time)
        registry.histogram("replay.candidate_set_size").observe(
            float(candidates), sim_time
        )
        chain: Tuple[str, ...] = getattr(self.strategy, "fallback_chain", ())
        if note is None:
            depth = 0.0
        else:
            parts = note.split(":")
            name = parts[1] if len(parts) > 1 else ""
            depth = (
                float(chain.index(name))
                if name in chain
                else float(len(chain) or 1)
            )
        registry.histogram("replay.fallback_depth").observe(depth, sim_time)

    def _decision(
        self,
        strategy: SelectionStrategy,
        demand: DemandSession,
        states: Candidates,
        chosen: str,
        controller_id: str,
        batch_id: str,
        sim_time: float,
        mode: str,
        rssi: Optional[Mapping[str, float]] = None,
        note: Optional[str] = None,
    ) -> DecisionRecord:
        """Provenance for one placement by ``strategy`` (only built when
        tracing is on)."""
        scores = strategy.score_candidates(demand.user_id, states, rssi=rssi)
        return DecisionRecord(
            user_id=demand.user_id,
            strategy=strategy.name,
            controller_id=controller_id,
            batch_id=batch_id,
            sim_time=sim_time,
            chosen=chosen,
            candidates=candidates_from_states(states, scores),
            mode=mode,
            note=note,
        )


def collect_trace(
    layout: CampusLayout,
    source: TraceBundle,
    strategy: SelectionStrategy,
    config: Optional[ReplayConfig] = None,
) -> TraceBundle:
    """Replay ``source.demands`` under ``strategy`` and return the collected
    trace (replayed sessions + the source's flows and demands).

    With the LLF strategy this reconstructs the paper's production trace:
    the session log an enterprise WLAN running least-loaded-first would
    have recorded for this demand."""
    engine = ReplayEngine(layout, strategy, config=config)
    result = engine.run(source.demands)
    return result.to_bundle(source)
