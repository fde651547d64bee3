"""Tests of the synthetic trace generator's statistical guarantees."""

import dataclasses
from collections import defaultdict

import numpy as np
import pytest

from repro.sim.rng import RandomStreams
from repro.sim.timeline import DAY, MINUTE, day_index, weekday
from repro.trace.apps import REALMS, applications_for_realm
from repro.trace.classifier import PortClassifier
from repro.trace.generator import GeneratorConfig, TraceGenerator, generate_trace
from repro.trace.social import WorldConfig, build_world

TINY_WORLD = WorldConfig(n_buildings=1, aps_per_building=2, n_users=20, n_groups=4)


def day_generator(config):
    """A generator over a freshly built world, for per-day calls."""
    streams = RandomStreams(config.seed)
    world = build_world(config.world, streams)
    return TraceGenerator(world, config, streams=streams)


def flows_by_demand(bundle):
    """demand index -> its flows, matching each flow to the one demand of
    its user whose ``[arrival, departure)`` holds the flow's start."""
    spans = defaultdict(list)
    for index, demand in enumerate(bundle.demands):
        spans[demand.user_id].append((demand.arrival, demand.departure, index))
    owned = defaultdict(list)
    for flow in bundle.flows:
        (index,) = [
            i for lo, hi, i in spans[flow.user_id] if lo <= flow.start < hi
        ]
        owned[index].append(flow)
    return owned


@pytest.fixture(scope="module")
def gen_output():
    config = GeneratorConfig(
        world=WorldConfig(
            n_buildings=2, aps_per_building=3, n_users=60, n_groups=10
        ),
        n_days=10,
        seed=99,
    )
    world, bundle = generate_trace(config)
    return config, world, bundle


class TestGeneratorBasics:
    def test_emits_demands_and_flows_only(self, gen_output):
        _, _, bundle = gen_output
        assert len(bundle.demands) > 0
        assert len(bundle.flows) > 0
        assert len(bundle.sessions) == 0  # sessions require a strategy replay

    def test_demands_within_calendar(self, gen_output):
        config, _, bundle = gen_output
        horizon = config.n_days * DAY
        for demand in bundle.demands:
            assert 0 <= demand.arrival < horizon
            assert demand.departure <= horizon

    def test_no_overlapping_demands_per_user(self, gen_output):
        _, _, bundle = gen_output
        by_user = {}
        for demand in bundle.demands:
            by_user.setdefault(demand.user_id, []).append(demand)
        for demands in by_user.values():
            demands.sort(key=lambda d: d.arrival)
            for a, b in zip(demands, demands[1:]):
                assert a.departure <= b.arrival + 1e-9

    def test_buildings_are_valid(self, gen_output):
        _, world, bundle = gen_output
        for demand in bundle.demands:
            assert demand.building_id in world.layout.buildings

    def test_determinism(self):
        config = GeneratorConfig(world=TINY_WORLD, n_days=3, seed=5)
        _, bundle_a = generate_trace(config)
        _, bundle_b = generate_trace(config)
        assert bundle_a.demands == bundle_b.demands
        assert [repr(f) for f in bundle_a.flows] == [repr(f) for f in bundle_b.flows]

    def test_flows_lie_within_their_demand(self, gen_output):
        _, _, bundle = gen_output
        demand_spans = {}
        for demand in bundle.demands:
            demand_spans.setdefault(demand.user_id, []).append(
                (demand.arrival, demand.departure)
            )
        for flow in bundle.flows[:500]:
            spans = demand_spans[flow.user_id]
            assert any(
                lo - 1e-6 <= flow.start and flow.end <= hi + 1e-6 for lo, hi in spans
            )

    def test_flow_bytes_match_demand_bytes(self, gen_output):
        _, _, bundle = gen_output
        demand_total = sum(d.bytes_total for d in bundle.demands)
        flow_total = sum(f.bytes_total for f in bundle.flows)
        assert flow_total == pytest.approx(demand_total, rel=1e-6)


class TestFlowLayout:
    def test_flows_split_each_realm_volume(self, gen_output):
        config, _, bundle = gen_output
        classifier = PortClassifier()
        owned = flows_by_demand(bundle)
        for index, demand in enumerate(bundle.demands):
            per_realm = defaultdict(list)
            for flow in owned[index]:
                per_realm[classifier.classify(flow)].append(flow.bytes_total)
            positive = {r for r in REALMS if demand.realm_bytes[r] > 0}
            assert set(per_realm) == positive
            for realm, sizes in per_realm.items():
                assert 1 <= len(sizes) <= config.max_flows_per_realm
                assert sum(sizes) == pytest.approx(
                    demand.realm_bytes[realm], rel=1e-12
                )

    def test_flows_classify_and_stay_in_range(self, gen_output):
        _, _, bundle = gen_output
        classifier = PortClassifier()
        owned = flows_by_demand(bundle)
        for index, demand in enumerate(bundle.demands):
            number = int(demand.user_id.lstrip("u"))
            for flow in owned[index]:
                realm = classifier.classify(flow)
                assert realm is not None and demand.realm_bytes[realm] > 0
                assert any(
                    flow.protocol == app.protocol and flow.dst_port in app.ports
                    for app in applications_for_realm(realm)
                )
                assert 32768 <= flow.src_port < 61000
                assert flow.src_ip == f"10.0.{number >> 8}.{number & 255}"
                octets = [int(part) for part in flow.dst_ip.split(".")]
                assert 11 <= octets[0] < 223 and 1 <= octets[3] < 254
                assert all(0 <= octet < 255 for octet in octets[1:3])
                assert demand.arrival <= flow.start <= flow.end <= demand.departure

    def test_days_are_independent_streams(self):
        short = GeneratorConfig(world=TINY_WORLD, n_days=3, seed=8)
        long = dataclasses.replace(short, n_days=5)
        _, bundle_short = generate_trace(short)
        _, bundle_long = generate_trace(long)
        first = [repr(f) for f in bundle_long.flows if day_index(f.start) < 3]
        assert [repr(f) for f in bundle_short.flows] == first
        # A day generated on its own draws what it draws inside a run.
        generator = day_generator(long)
        alone = generator._day_flows(4, generator._day(4)[1]).to_flows()
        assert sorted(map(repr, alone)) == sorted(
            repr(f) for f in bundle_long.flows if day_index(f.start) == 4
        )

    def test_layout_v2_draw_order(self):
        """The columns come from ``flows.v2-<day>`` in the documented order."""
        config = GeneratorConfig(world=TINY_WORLD, n_days=1, seed=13)
        generator = day_generator(config)
        demands, columns = generator._day(0)
        flows = generator._day_flows(0, columns).to_flows()

        rng = RandomStreams(config.seed).get("flows.v2-0")
        groups = [
            (demand, realm)
            for demand in demands
            for realm in REALMS
            if demand.realm_bytes[realm] > 0
        ]
        counts = rng.integers(1, config.max_flows_per_realm + 1, size=len(groups))
        n_flows = int(counts.sum())
        weights = rng.standard_exponential(n_flows).tolist()
        owners = [group for group, count in zip(groups, counts) for _ in range(count)]
        apps = [applications_for_realm(realm) for _, realm in owners]
        app_index = rng.integers(0, [len(choices) for choices in apps])
        chosen = [choices[i] for choices, i in zip(apps, app_index)]
        port_index = rng.integers(0, [len(app.ports) for app in chosen])
        coins = rng.random(n_flows).tolist()
        fractions = rng.random((2, n_flows)).T.tolist()
        octets = rng.integers([11, 0, 0, 1], [223, 255, 255, 254], size=(n_flows, 4))
        src_ports = rng.integers(32768, 61000, size=n_flows).tolist()

        assert len(flows) == n_flows
        first = 0
        for (demand, realm), count in zip(groups, counts):
            group_weights = weights[first : first + count]
            for offset, weight in enumerate(group_weights):
                i = first + offset
                flow = flows[i]
                assert flow.user_id == demand.user_id
                assert flow.bytes_total == demand.realm_bytes[realm] * (
                    weight / sum(group_weights)
                )
                assert flow.protocol == chosen[i].protocol
                assert flow.dst_port == chosen[i].ports[port_index[i]]
                lo, hi = fractions[i]
                span = demand.departure - demand.arrival
                if coins[i] < 0.85:
                    start = demand.arrival + lo * 0.02 * span
                    end = demand.departure - hi * 0.02 * span
                else:
                    start = demand.arrival + lo * 0.5 * span
                    end = start + max(1.0, hi * (demand.departure - start))
                assert (flow.start, flow.end) == (start, min(end, demand.departure))
                assert flow.dst_ip == ".".join(map(str, octets[i].tolist()))
                assert flow.src_port == src_ports[i]
            first += count

    def test_days_without_demands_have_no_flows(self):
        # Group slots fall on weekdays only, so with no weekend activity
        # days 5 and 6 carry no demands at all.
        config = GeneratorConfig(world=TINY_WORLD, n_days=7, weekend_factor=0.0)
        _, bundle = generate_trace(config)
        assert not [d for d in bundle.demands if weekday(d.arrival) >= 5]
        assert bundle.flows
        assert not [f for f in bundle.flows if day_index(f.start) >= 5]


def slot_instances(bundle, min_size):
    """Group demands into (group, slot-instance) clusters by splitting each
    group's departure sequence at gaps larger than 30 minutes."""
    by_group = {}
    for demand in bundle.demands:
        if demand.group_id is not None:
            by_group.setdefault(demand.group_id, []).append(demand)
    instances = []
    for demands in by_group.values():
        demands.sort(key=lambda d: d.departure)
        cluster = [demands[0]]
        for demand in demands[1:]:
            if demand.departure - cluster[-1].departure > 30 * MINUTE:
                if len(cluster) >= min_size:
                    instances.append(cluster)
                cluster = []
            cluster.append(demand)
        if len(cluster) >= min_size:
            instances.append(cluster)
    return instances


class TestSocialStructure:
    def test_group_attendances_share_building_and_times(self, gen_output):
        _, world, bundle = gen_output
        multi = slot_instances(bundle, min_size=3)
        assert multi, "expected group attendances with several members"
        for attendances in multi:
            buildings = {d.building_id for d in attendances}
            assert len(buildings) == 1
            departures = np.array([d.departure for d in attendances])
            # co-leaving: departures cluster within minutes
            assert departures.std() < 5 * MINUTE

    def test_group_departures_tighter_than_arrivals(self, gen_output):
        _, world, bundle = gen_output
        arrival_spreads, departure_spreads = [], []
        for attendances in slot_instances(bundle, min_size=4):
            arrival_spreads.append(np.std([d.arrival for d in attendances]))
            departure_spreads.append(np.std([d.departure for d in attendances]))
        assert np.mean(departure_spreads) < np.mean(arrival_spreads)

    def test_weekends_quieter_than_workdays(self, gen_output):
        config, _, bundle = gen_output
        workday_counts, weekend_counts = [], []
        for day in range(config.n_days):
            count = sum(1 for d in bundle.demands if int(d.arrival // DAY) == day)
            (workday_counts if weekday(day * DAY) < 5 else weekend_counts).append(count)
        assert np.mean(weekend_counts) < np.mean(workday_counts)

    def test_solo_sessions_exist(self, gen_output):
        _, _, bundle = gen_output
        solo = [d for d in bundle.demands if d.group_id is None]
        assert len(solo) > 0

    def test_type_interest_shows_in_traffic(self, gen_output):
        _, world, bundle = gen_output
        # Per planted type, aggregate realm volumes; dominant realms differ.
        totals = np.zeros((len(world.type_profiles), 6))
        for demand in bundle.demands:
            type_index = world.users[demand.user_id].type_index
            totals[type_index] += demand.realm_vector()
        dominants = {int(np.argmax(row)) for row in totals}
        assert len(dominants) >= 3


class TestGeneratorConfig:
    def test_rejects_bad_days(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n_days=0)

    def test_rejects_bad_absent_probability(self):
        with pytest.raises(ValueError):
            GeneratorConfig(absent_probability=1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_flows_per_realm", 0),
            ("mood_concentration", -50.0),
            ("weekend_factor", -1.0),
            ("solo_duration_mean", -1.0),
            ("solo_duration_mean", 0.0),
            ("solo_duration_sigma", -0.1),
            ("solo_diurnal", ()),
            ("solo_diurnal", ((9.0, -0.1, 1.0), (14.0, 1.1, 1.0))),
            ("solo_diurnal", ((9.0, float("nan"), 1.0),)),
            ("solo_diurnal", ((9.0, 0.0, 1.0), (14.0, 0.0, 1.0))),
            ("solo_diurnal", ((9.0, 1.0, 0.0),)),
            ("solo_diurnal", ((9.0, 1.0, -1.0),)),
        ],
    )
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            GeneratorConfig(**{field: value})

    def test_generate_day_is_sorted(self):
        config = GeneratorConfig(
            world=WorldConfig(n_buildings=1, aps_per_building=2, n_users=20, n_groups=4),
            n_days=2,
        )
        streams = RandomStreams(config.seed)
        world = build_world(config.world, streams)
        generator = TraceGenerator(world, config, streams=streams)
        day = generator.generate_day(0)
        arrivals = [d.arrival for d in day]
        assert arrivals == sorted(arrivals)
