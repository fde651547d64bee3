"""Synthetic campus-trace generation.

Turns a :class:`~repro.trace.social.SocialWorld` into the demand side of a
trace: who is on the WLAN, where, when, and with what per-realm traffic.
The generator reproduces the statistical phenomena the paper measures:

* **co-arrival / co-leaving** — members of a group attend the same slot;
  arrivals are loosely jittered, departures tightly jittered, so the bulk
  of a group disconnects within the paper's co-leaving windows;
* **diurnal load** — slot templates and the solo-session diurnal mixture
  put throughput peaks at mid-morning / mid-afternoon and departure peaks
  at 12-13, 16-17:50 and 21-22, matching Section III / V;
* **type-conditioned profiles** — a user's per-realm volumes follow their
  personal interest vector (a perturbation of their planted type), with
  day-to-day "mood" noise so that profile NMI *increases* with history
  (Fig. 6) instead of being trivially 1;
* **independent churn** — solo sessions arrive by a Poisson process and
  end independently, providing the non-social background.

The generator emits :class:`DemandSession` records and the flow log as
:class:`~repro.trace.columnar.FlowArrays` columns only.  The *collected*
:class:`SessionRecord` log additionally depends on
the AP-selection strategy in force; it is produced by replaying demands
through :mod:`repro.wlan.replay` (under LLF, to mirror the production
trace the paper collects).

Demands draw from the per-day ``mood-<d>`` and ``day-<d>`` streams.
``mood-<d>`` draws every user's Dirichlet mood, users in id order, with
:func:`dirichlet_rows`: one ``standard_gamma`` call over the
``(users, 6)`` alpha matrix, each row then normalised as
``Generator.dirichlet`` does (a left-to-right sum from 0.0, then a
multiply by its reciprocal), so the moods equal one ``dirichlet`` call
per user.  ``day-<d>`` is drawn in this order:

1. the absence coin of every user, in world order: ``random(users)``;
2. for each group in id order, each of its slots on this weekday and
   each member in member order: the attendance coin ``random()`` (none
   for an absent member); for an attending member the arrival and
   departure jitter, ``normal`` twice; then, unless the interval overlaps
   one the member already holds, the demand's volume normals;
3. for each present user in id order: the solo-session count
   ``poisson``; per session the start (the mixture component by one
   ``random()`` searched in the diurnal weights' CDF, as
   ``choice(p=...)`` does, then ``normal``), the duration ``lognormal``
   and, for a session that is kept, the building (``random()``, plus
   ``integers`` away from home) and the volume normals.

Each scalar ``normal`` and ``lognormal`` is drawn as numpy computes it:
``loc + scale * z`` and ``exp(mean + sigma * z)`` over ``z`` from
``standard_normal``, which is the same stream use and the same bits for
less per-call overhead.  A demand's volume normals are one
``standard_normal(k)`` call, ``k`` its positive-weight realms in realm
order: the draws one ``lognormal`` call over those realms makes.  Nothing
in the day's loop reads a volume, so the volumes are computed after the
day's draws, for all its demands at once, by
:meth:`~repro.trace.apps.TrafficModel.session_volumes`: per drawn realm
``exp(log(median * max(hours, 1e-6)) + sigma * z) * weight``, with
``math.exp``, the C ``exp`` numpy's ``lognormal`` calls.  The mood rows
the volumes use and the demand records are checked once per day, as
columns (:func:`~repro.trace.records.demand_rows`), rejecting what the
per-demand checks reject.

Flows follow **flow layout v2**: each day's flows come from their own
``flows.v2-<d>`` stream, so a day's flows do not depend on the days
before it.  The day's demands (in :meth:`TraceGenerator.generate_day`
order) are split into groups, one per (demand, realm) with positive
volume, in demand then realm order; a group's flows are consecutive.
With ``G`` groups and ``F`` flows, whole columns are drawn in this order:

1. flows per group: ``integers(1, max_flows_per_realm + 1, G)``;
2. Dirichlet(1, ..., 1) byte shares: ``standard_exponential(F)``,
   normalised per group;
3. the application index within the realm, then the port index within
   the application (``integers`` with per-flow upper bounds);
4. the long-lived (85%) / bursty coin: ``random(F)``;
5. the start and end fractions: ``random((2, F))``;
6. the four server-IP octets: ``integers`` in ``[11, 223)``,
   ``[0, 255)``, ``[0, 255)``, ``[1, 254)``, shape ``(F, 4)``;
7. the source port: ``integers(32768, 61000, F)``.

Any change to this order, or to what a column means, is a new layout and
takes a new version in the stream name.  The days' columns are then
concatenated and put in ``(start, user_id, dst_port)`` order by one stable
``np.lexsort`` (:meth:`~repro.trace.columnar.FlowArrays.sorted_by_start`);
no per-flow object is built.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.obs.tracer import get_tracer
from repro.sim.rng import RandomStreams
from repro.sim.timeline import DAY, HOUR, MINUTE
from repro.trace.apps import N_REALMS, REALMS, TrafficModel, applications_for_realm
from repro.trace.columnar import FLOW_PROTOCOLS, FlowArrays
from repro.trace.records import DemandSession, TraceBundle, demand_rows
from repro.trace.social import SocialGroup, SocialWorld, WorldConfig, build_world


@dataclass
class GeneratorConfig:
    """All knobs of the synthetic trace generator."""

    world: WorldConfig = field(default_factory=WorldConfig)
    n_days: int = 28
    seed: int = 20120704  # the paper's trace starts 2012-07-04
    #: Multiplier on solo-session rate during weekends.
    weekend_factor: float = 0.45
    #: Mean solo-session duration (seconds) and lognormal sigma.
    solo_duration_mean: float = 75 * MINUTE
    solo_duration_sigma: float = 0.6
    #: Diurnal mixture for solo-session start times: (hour, weight, std-hours).
    solo_diurnal: Tuple[Tuple[float, float, float], ...] = (
        (9.5, 0.25, 1.2),
        (14.5, 0.30, 1.5),
        (20.0, 0.45, 1.8),
    )
    #: Dirichlet concentration of the per-day mood perturbation of a user's
    #: interest vector (lower = noisier daily profiles, lower single-day NMI).
    mood_concentration: float = 14.0
    #: Maximum flows emitted per (session, realm).
    max_flows_per_realm: int = 2
    #: Probability that a user skips campus entirely on a given day.
    absent_probability: float = 0.08

    def __post_init__(self) -> None:
        if self.n_days <= 0:
            raise ValueError("n_days must be positive")
        if not 0 <= self.absent_probability < 1:
            raise ValueError("absent_probability must be in [0, 1)")
        if self.max_flows_per_realm < 1:
            raise ValueError("max_flows_per_realm must be at least 1")
        if not self.mood_concentration >= 0:
            raise ValueError("mood_concentration must be non-negative")
        if not self.weekend_factor >= 0:
            raise ValueError("weekend_factor must be non-negative")
        if not self.solo_duration_mean > 0:
            raise ValueError("solo_duration_mean must be positive")
        if not self.solo_duration_sigma >= 0:
            raise ValueError("solo_duration_sigma must be non-negative")
        if not self.solo_diurnal:
            raise ValueError("solo_diurnal needs at least one component")
        if not all(weight >= 0 for _, weight, _ in self.solo_diurnal):
            raise ValueError("solo_diurnal weights must be non-negative")
        if not sum(weight for _, weight, _ in self.solo_diurnal) > 0:
            raise ValueError("solo_diurnal weights must not all be zero")
        if not all(std > 0 for _, _, std in self.solo_diurnal):
            raise ValueError("solo_diurnal stds must be positive")


class _DayColumns(NamedTuple):
    """The columns of one day's demands the flow layout reads, rows in
    the demands' (sorted) order: realm volumes ``(n, N_REALMS)``,
    arrivals, departures and user ids."""

    volumes: np.ndarray
    arrival: np.ndarray
    departure: np.ndarray
    user_ids: List[str]


class TraceGenerator:
    """Generates demand sessions + flow records for a social world."""

    def __init__(
        self,
        world: SocialWorld,
        config: GeneratorConfig,
        streams: Optional[RandomStreams] = None,
        traffic_model: Optional[TrafficModel] = None,
    ) -> None:
        self.world = world
        self.config = config
        self.streams = streams if streams is not None else RandomStreams(config.seed)
        self.traffic = traffic_model if traffic_model is not None else TrafficModel()
        self._user_order = sorted(world.users)
        interests = np.array(
            [world.users[uid].interest_vector() for uid in self._user_order]
        ).reshape(len(self._user_order), N_REALMS)
        self._mood_alpha = config.mood_concentration * interests + 0.05
        self._solo_hours, weights, self._solo_stds = zip(*config.solo_diurnal)
        cdf = (np.asarray(weights) / sum(weights)).cumsum()
        cdf /= cdf[-1]
        self._solo_cdf: List[float] = cdf.tolist()
        self._solo_log_mean = float(np.log(config.solo_duration_mean))
        self._row_of = {uid: row for row, uid in enumerate(self._user_order)}
        self._buildings = sorted(world.layout.buildings)

    # ----------------------------------------------------------- public API

    def generate(self) -> TraceBundle:
        """Generate the full trace for ``config.n_days`` days."""
        demands: List[DemandSession] = []
        days: List[FlowArrays] = []
        with get_tracer().span(
            "trace.generate",
            sim_time=0.0,
            days=self.config.n_days,
            users=self.config.world.n_users,
        ) as span:
            for day in range(self.config.n_days):
                day_demands, columns = self._day(day)
                demands.extend(day_demands)
                days.append(self._day_flows(day, columns))
            flows = FlowArrays.concat(days)
            span.sim_end = self.config.n_days * DAY
            span.set(demands=len(demands), flows=flows.n_rows)
        return TraceBundle(demands=demands, flows=flows)

    def generate_day(self, day: int) -> List[DemandSession]:
        """Generate all demand sessions for calendar day ``day``."""
        return self._day(day)[0]

    # ------------------------------------------------------------ internals

    def _day(self, day: int) -> Tuple[List[DemandSession], _DayColumns]:
        """Day ``day``'s demands, sorted by ``(arrival, user id)``, and
        their columns in that order."""
        rng = self.streams.get(f"day-{day}")
        normal = rng.standard_normal
        dow = day % 7
        moods = self._daily_moods(day)
        realm_counts: List[int] = np.count_nonzero(moods > 0, axis=1).tolist()
        absent = {
            uid
            for uid, coin in zip(self.world.users, rng.random(len(self.world.users)))
            if coin < self.config.absent_probability
        }
        busy: Dict[str, List[Tuple[float, float]]] = {uid: [] for uid in self.world.users}
        # The day's demands as columns; volumes are computed after the draws.
        rows: List[int] = []
        user_ids: List[str] = []
        building_ids: List[str] = []
        arrivals: List[float] = []
        departures: List[float] = []
        group_ids: List[Optional[str]] = []
        normals: List[np.ndarray] = []

        def add(
            user_id: str,
            building_id: str,
            arrival: float,
            departure: float,
            group_id: Optional[str],
        ) -> None:
            row = self._row_of[user_id]
            normals.append(normal(realm_counts[row]))
            rows.append(row)
            user_ids.append(user_id)
            building_ids.append(building_id)
            arrivals.append(arrival)
            departures.append(departure)
            group_ids.append(group_id)

        # Group activities (workday slots) — the social demand.
        for group_id in sorted(self.world.groups):
            group = self.world.groups[group_id]
            for slot in group.slots:
                if slot.weekday != dow:
                    continue
                start = day * DAY + slot.start
                end = start + slot.duration
                for user_id in group.member_ids:
                    user = self.world.users[user_id]
                    if user_id in absent or rng.random() > user.attendance:
                        continue
                    arrival, departure = self._member_times(rng, group, start, end)
                    if self._overlaps(busy[user_id], arrival, departure):
                        continue
                    busy[user_id].append((arrival, departure))
                    add(user_id, group.building_id, arrival, departure, group_id)

        # Solo sessions — the asocial background churn.
        rate_factor = 1.0 if dow < 5 else self.config.weekend_factor
        for user_id in self._user_order:
            if user_id in absent:
                continue
            user = self.world.users[user_id]
            count = rng.poisson(user.solo_rate * rate_factor)
            for _ in range(count):
                arrival = day * DAY + self._solo_start(rng)
                duration = self._solo_duration(rng)
                departure = min(arrival + duration, (day + 1) * DAY - 1.0)
                if departure <= arrival:
                    continue
                if self._overlaps(busy[user_id], arrival, departure):
                    continue
                busy[user_id].append((arrival, departure))
                building = self._solo_building(rng, user.home_building)
                add(user_id, building, arrival, departure, None)

        arrival_column = np.array(arrivals, dtype=float)
        departure_column = np.array(departures, dtype=float)
        volumes = self.traffic.session_volumes(
            moods[rows].reshape(len(rows), N_REALMS),
            departure_column - arrival_column,
            np.concatenate(normals) if normals else np.zeros(0),
        )
        demands = demand_rows(
            user_ids, building_ids, arrival_column, departure_column, volumes, group_ids
        )
        # The stable sort of the records by (arrival, user id), made on the
        # columns they were built from, so the columns follow it too.
        order = sorted(range(len(demands)), key=lambda i: (arrivals[i], user_ids[i]))
        index = np.array(order, dtype=np.intp)
        columns = _DayColumns(
            volumes[index],
            arrival_column[index],
            departure_column[index],
            [user_ids[i] for i in order],
        )
        return [demands[i] for i in order], columns

    def _daily_moods(self, day: int) -> np.ndarray:
        """Per-user interest vectors for the day (type interest x mood
        noise), one row per user in id order."""
        return dirichlet_rows(self.streams.get(f"mood-{day}"), self._mood_alpha)

    @staticmethod
    def _overlaps(intervals: List[Tuple[float, float]], lo: float, hi: float) -> bool:
        return any(lo < b and hi > a for a, b in intervals)

    @staticmethod
    def _member_times(
        rng: np.random.Generator, group: SocialGroup, start: float, end: float
    ) -> Tuple[float, float]:
        """An attending member's jittered arrival and departure.

        ``rng.normal(0.0, s)`` is ``0.0 + s * standard_normal()``; the two
        normals come from one ``standard_normal(2)``, arrival first.  The
        0.0 is left out: it only turns a -0.0 into 0.0, and neither sum
        below can tell the two apart.
        """
        z_arrival, z_departure = rng.standard_normal(2).tolist()
        arrival = start + abs(group.arrival_jitter * z_arrival)
        departure = end + group.departure_jitter * z_departure
        return arrival, max(departure, arrival + MINUTE)

    def _solo_start(self, rng: np.random.Generator) -> float:
        """Draw a seconds-since-midnight start from the diurnal mixture.

        The component is the search ``rng.choice(p=weights)`` makes in
        the weights' CDF, over the same single ``random()`` draw; the
        start is ``rng.normal(hour, std)``, that is ``hour + std *
        standard_normal()``.
        """
        component = bisect_right(self._solo_cdf, rng.random())
        start = (
            self._solo_hours[component]
            + self._solo_stds[component] * rng.standard_normal()
        )
        return min(max(start * HOUR, 6 * HOUR), 23.5 * HOUR)

    def _solo_duration(self, rng: np.random.Generator) -> float:
        """A solo session's length: ``rng.lognormal(log_mean, sigma)``,
        which is ``exp(log_mean + sigma * standard_normal())`` in C."""
        return math.exp(
            self._solo_log_mean
            + self.config.solo_duration_sigma * rng.standard_normal()
        )

    def _solo_building(self, rng: np.random.Generator, home: str) -> str:
        """Solo sessions happen mostly in the user's home building."""
        if rng.random() < 0.8:
            return home
        return self._buildings[int(rng.integers(len(self._buildings)))]

    def _day_flows(self, day: int, columns: _DayColumns) -> FlowArrays:
        """Split one day's demand volumes into port-bearing flows (layout v2).

        Draws whole columns from the day's ``flows.v2-<day>`` stream in the
        order the module docstring documents and returns them as columns,
        rows in draw order.  Most flows (85%) are long-lived, spanning
        essentially the whole session (streaming, P2P, persistent HTTP):
        they are why a fixed user population shows a near-constant balance
        index (the paper's Fig. 3).  The rest are bursty short flows
        somewhere inside the session.
        """
        volumes = columns.volumes
        if not len(volumes):
            return FlowArrays.concat([])
        group_demand, group_realm = np.nonzero(volumes > 0)
        if not len(group_demand):
            return FlowArrays.concat([])
        rng = self.streams.get(f"flows.v2-{day}")
        max_flows = self.config.max_flows_per_realm
        counts = rng.integers(1, max_flows + 1, size=len(group_demand))
        group = np.repeat(np.arange(len(counts)), counts)
        n_flows = len(group)
        weights = rng.standard_exponential(n_flows)
        share = weights / np.add.reduceat(weights, np.cumsum(counts) - counts)[group]
        realm = group_realm[group]
        app = _APP_OFFSET[realm] + rng.integers(0, _APP_COUNT[realm])
        port = _PORT_OFFSET[app] + rng.integers(0, _PORT_COUNT[app])
        long_lived = rng.random(n_flows) < 0.85
        start_fraction, end_fraction = rng.random((2, n_flows))
        octets = rng.integers(_SERVER_IP_LOW, _SERVER_IP_HIGH, size=(n_flows, 4))
        src_ports = rng.integers(32768, 61000, size=n_flows)

        demand = group_demand[group]
        arrival = columns.arrival[demand]
        departure = columns.departure[demand]
        span = departure - arrival
        bursty_start = arrival + start_fraction * 0.5 * span
        start = np.where(
            long_lived, arrival + start_fraction * 0.02 * span, bursty_start
        )
        end = np.where(
            long_lived,
            departure - end_fraction * 0.02 * span,
            bursty_start + np.maximum(1.0, end_fraction * (departure - bursty_start)),
        )
        end = np.minimum(end, departure)
        flow_bytes = volumes[demand, realm] * share

        user_ids = sorted(set(columns.user_ids))
        user_code = {user_id: code for code, user_id in enumerate(user_ids)}
        user = np.array([user_code[user_id] for user_id in columns.user_ids])[demand]
        user_ips = [_user_ip(user_id) for user_id in user_ids]
        src_ips = sorted(set(user_ips))
        src_code = {ip: code for code, ip in enumerate(src_ips)}
        user_src = np.array([src_code[ip] for ip in user_ips])
        return FlowArrays(
            user_ids,
            src_ips,
            user,
            user_src[user],
            octets @ _IPV4_WEIGHTS,
            _PORT_PROTOCOL[port],
            src_ports,
            _PORTS[port],
            start,
            end,
            flow_bytes,
        )


def dirichlet_rows(rng: np.random.Generator, alpha: np.ndarray) -> np.ndarray:
    """``rng.dirichlet(row)`` for each row of ``alpha``, bit for bit.

    ``Generator.dirichlet`` draws a row as ``standard_gamma`` per entry,
    sums the row left to right from 0.0 and multiplies by the sum's
    reciprocal; this does the same with one ``standard_gamma`` call over
    the whole matrix.  ``dirichlet`` draws a row whose largest alpha is
    below 0.1 by stick-breaking instead, so a matrix with such a row
    (only a ``mood_concentration`` below 0.3 makes one) is drawn row by
    row.  Every alpha must be positive (NaN is not).
    """
    if not np.all(alpha > 0):
        raise ValueError("alpha must be positive and not NaN")
    if np.any(alpha.max(axis=1) < 0.1):
        return np.array([rng.dirichlet(row) for row in alpha])
    gamma = rng.standard_gamma(alpha)
    total = np.zeros(len(gamma))
    for column in gamma.T:
        total += column
    rows: np.ndarray = gamma * (1 / total)[:, np.newaxis]
    return rows


def _user_ip(user_id: str) -> str:
    """A stable campus-subnet IP derived from the user id."""
    number = int(user_id.lstrip("u") or "0")
    return f"10.{(number >> 16) & 255}.{(number >> 8) & 255}.{number & 255}"


def _app_columns() -> Tuple[Any, ...]:
    """The application table as flat columns for batched flow layout."""
    app_offset: List[int] = []
    app_count: List[int] = []
    port_offset: List[int] = []
    port_count: List[int] = []
    protocols: List[int] = []
    ports: List[int] = []
    for realm in REALMS:
        apps = applications_for_realm(realm)
        app_offset.append(len(port_offset))
        app_count.append(len(apps))
        for app in apps:
            port_offset.append(len(ports))
            port_count.append(len(app.ports))
            ports.extend(app.ports)
            protocols.extend([FLOW_PROTOCOLS.index(app.protocol)] * len(app.ports))
    columns = (app_offset, app_count, port_offset, port_count, ports)
    return tuple(np.array(column, dtype=np.int64) for column in columns) + (
        np.array(protocols, dtype=np.uint8),
    )


#: Realm -> first index and number of its applications; application ->
#: first index and number of its ports; port index -> port number and
#: protocol code (:data:`FLOW_PROTOCOLS`).
_APP_OFFSET, _APP_COUNT, _PORT_OFFSET, _PORT_COUNT, _PORTS, _PORT_PROTOCOL = (
    _app_columns()
)
#: Server IPs are ``[11, 223) . [0, 255) . [0, 255) . [1, 254)``.
_SERVER_IP_LOW = np.array([11, 0, 0, 1])
_SERVER_IP_HIGH = np.array([223, 255, 255, 254])
#: Octet weights that pack four octets into one 32-bit address.
_IPV4_WEIGHTS = np.array([1 << 24, 1 << 16, 1 << 8, 1], dtype=np.int64)


def generate_trace(
    config: Optional[GeneratorConfig] = None,
) -> Tuple[SocialWorld, TraceBundle]:
    """One-call convenience: build a world and generate its demand trace.

    The returned bundle carries demands and flows; to obtain the *collected*
    session log, replay the demands under a strategy with
    :func:`repro.wlan.replay.collect_trace`.
    """
    config = config if config is not None else GeneratorConfig()
    streams = RandomStreams(config.seed)
    world = build_world(config.world, streams)
    generator = TraceGenerator(world, config, streams=streams)
    return world, generator.generate()
