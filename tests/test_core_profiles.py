"""Tests for daily application profiles and the NMI history curve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profiles import (
    DailyProfileStore,
    build_daily_profiles,
    history_profile,
    nmi_history_curve,
)
from repro.sim.timeline import DAY, day_index
from repro.trace.apps import N_REALMS, AppRealm, port_table
from repro.trace.classifier import PortClassifier
from repro.trace.records import FlowRecord


def volumes(**kwargs):
    v = np.zeros(6)
    for realm_name, value in kwargs.items():
        v[AppRealm[realm_name]] = value
    return v


def make_flow(user, day, dport, size, proto="tcp"):
    start = day * DAY + 3600.0
    return FlowRecord(user, start, start + 60, "10.0.0.1", "8.8.8.8", proto, 40000, dport, size)


class TestDailyProfileStore:
    def test_add_accumulates_same_day(self):
        store = DailyProfileStore()
        store.add("u", 0, volumes(WEB=10))
        store.add("u", 0, volumes(WEB=5, IM=5))
        raw = store.raw("u", 0)
        assert raw[AppRealm.WEB] == 15
        assert raw[AppRealm.IM] == 5

    def test_daily_is_normalized(self):
        store = DailyProfileStore()
        store.add("u", 0, volumes(WEB=30, VIDEO=10))
        daily = store.daily("u", 0)
        assert daily.sum() == pytest.approx(1.0)
        assert daily[AppRealm.WEB] == pytest.approx(0.75)

    def test_absent_day_returns_none(self):
        store = DailyProfileStore()
        store.add("u", 0, volumes(WEB=1))
        assert store.daily("u", 5) is None
        assert store.daily("stranger", 0) is None

    def test_zero_day_returns_none(self):
        store = DailyProfileStore()
        store.add("u", 0, np.zeros(6))
        assert store.daily("u", 0) is None

    def test_cumulative_window(self):
        store = DailyProfileStore()
        store.add("u", 0, volumes(WEB=10))
        store.add("u", 1, volumes(VIDEO=10))
        store.add("u", 5, volumes(IM=100))  # outside the window below
        cumulative = store.cumulative("u", end_day=2, lookback=2)
        assert cumulative[AppRealm.WEB] == pytest.approx(0.5)
        assert cumulative[AppRealm.VIDEO] == pytest.approx(0.5)
        assert cumulative[AppRealm.IM] == 0.0

    def test_cumulative_rejects_bad_lookback(self):
        with pytest.raises(ValueError):
            DailyProfileStore().cumulative("u", 3, 0)

    def test_overall(self):
        store = DailyProfileStore()
        store.add("u", 0, volumes(WEB=1))
        store.add("u", 9, volumes(WEB=3))
        overall = store.overall("u")
        assert overall[AppRealm.WEB] == pytest.approx(1.0)

    def test_profile_matrix_skips_empty_users(self):
        store = DailyProfileStore()
        store.add("a", 0, volumes(WEB=1))
        store.add("b", 20, volumes(IM=1))
        users, matrix = store.profile_matrix(end_day=5, lookback=5)
        assert users == ["a"]
        assert matrix.shape == (1, 6)

    def test_validation(self):
        store = DailyProfileStore()
        with pytest.raises(ValueError):
            store.add("u", 0, [1.0, 2.0])
        with pytest.raises(ValueError):
            store.add("u", 0, [-1.0, 0, 0, 0, 0, 0])


class TestBuildDailyProfiles:
    def test_flows_classified_and_attributed_to_days(self):
        flows = [
            make_flow("u", 0, 443, 100.0),  # web
            make_flow("u", 1, 1935, 50.0),  # video
        ]
        store = build_daily_profiles(flows)
        assert store.daily("u", 0)[AppRealm.WEB] == pytest.approx(1.0)
        assert store.daily("u", 1)[AppRealm.VIDEO] == pytest.approx(1.0)

    def test_unclassified_flows_dropped(self):
        flows = [make_flow("u", 0, 5000, 100.0, proto="udp")]
        store = build_daily_profiles(flows)
        assert store.daily("u", 0) is None

    def test_history_profile_alias(self):
        flows = [make_flow("u", 0, 443, 100.0)]
        store = build_daily_profiles(flows)
        assert np.allclose(
            history_profile(store, "u", 1, 1), store.cumulative("u", 1, 1)
        )


def loop_daily_profiles(flows, classifier=None):
    """The per-flow ``DailyProfileStore.add`` loop: the test oracle of
    :func:`build_daily_profiles`."""
    classifier = classifier if classifier is not None else PortClassifier()
    store = DailyProfileStore()
    for flow in flows:
        realm = classifier.classify(flow)
        if realm is None:
            continue
        volumes = np.zeros(N_REALMS)
        volumes[realm] = flow.bytes_total
        store.add(flow.user_id, day_index(flow.start), volumes)
    return store


def assert_same_store(actual, expected):
    """Same users and days in the same insertion order, same bytes."""
    assert list(actual._volumes) == list(expected._volumes)
    for user in expected.user_ids:
        assert list(actual._volumes[user]) == list(expected._volumes[user])
        for day in expected.days_of(user):
            assert actual.raw(user, day).tobytes() == expected.raw(user, day).tobytes()


#: Known (protocol, port) pairs plus unknown ones that exercise the P2P and
#: web fallbacks and the unclassifiable case.
_PORTS = sorted(port_table()) + [
    ("tcp", 5000), ("udp", 5000), ("tcp", 25000), ("udp", 25000),
    ("tcp", 700), ("udp", 700), ("tcp", 10000),
]


@st.composite
def flow_logs(draw):
    users = draw(st.lists(st.sampled_from(["u1", "u2", "u10"]), min_size=1, max_size=3))
    flows = []
    for _ in range(draw(st.integers(0, 60))):
        protocol, dst_port = draw(st.sampled_from(_PORTS))
        day = draw(st.integers(0, 3))
        # Offset 0 puts the flow exactly on a day boundary.
        start = day * DAY + draw(st.sampled_from([0.0, 1.0, 3600.0, DAY - 1.0]))
        size = draw(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
            )
        )
        flows.append(
            FlowRecord(
                draw(st.sampled_from(users)), start, start + 60.0,
                "10.0.0.1", "8.8.8.8", protocol,
                draw(st.sampled_from([1024, 9999, 10000, 40000])), dst_port, size,
            )
        )
    return flows


class TestBuildMatchesLoop:
    @settings(max_examples=200, deadline=None)
    @given(flow_logs())
    def test_identical_to_per_flow_loop(self, flows):
        assert_same_store(build_daily_profiles(flows), loop_daily_profiles(flows))

    def test_many_flows_per_user_day(self):
        rng = np.random.default_rng(3)
        flows = [
            make_flow("u", 0, 443, float(size)) for size in rng.lognormal(15, 3, 500)
        ]
        assert_same_store(build_daily_profiles(flows), loop_daily_profiles(flows))

    def test_rejects_negative_volume(self):
        # FlowRecord refuses negative bytes, so bypass its validation.
        flow = make_flow("u", 0, 443, 1.0)
        object.__setattr__(flow, "bytes_total", -1.0)
        with pytest.raises(ValueError, match="negative"):
            build_daily_profiles([flow])

    def test_identical_on_collected_workload(self, small_workload):
        flows = small_workload.collected.flows
        assert_same_store(build_daily_profiles(flows), loop_daily_profiles(flows))


class TestNMICurve:
    def _noisy_store(self, n_users=10, n_days=25, noise=6.0, seed=0):
        rng = np.random.default_rng(seed)
        store = DailyProfileStore()
        for i in range(n_users):
            base = rng.dirichlet(np.ones(6) * 3)
            for day in range(n_days):
                daily = rng.dirichlet(base * noise + 0.05)
                store.add(f"u{i}", day, daily * 1e6)
        return store

    def test_curve_rises_with_history(self):
        store = self._noisy_store()
        lookbacks, nmi = nmi_history_curve(store, target_day=24, max_lookback=20)
        assert len(lookbacks) == 20
        # More history -> closer to the stable interest -> higher NMI.
        assert nmi[9] > nmi[0]
        assert nmi[-1] >= nmi[0]

    def test_plateau_beyond_two_weeks(self):
        store = self._noisy_store(n_days=30)
        _, nmi = nmi_history_curve(store, target_day=29, max_lookback=25)
        # Changes past day 15 are small compared to the initial rise.
        late_change = abs(nmi[-1] - nmi[14])
        early_rise = nmi[14] - nmi[0]
        assert late_change < max(early_rise, 1e-9)

    def test_min_users_enforced(self):
        store = self._noisy_store(n_users=2)
        with pytest.raises(ValueError):
            nmi_history_curve(store, target_day=24, max_lookback=5, min_users=5)

    def test_bad_lookback_rejected(self):
        with pytest.raises(ValueError):
            nmi_history_curve(DailyProfileStore(), 5, 0)

    def test_on_generated_trace(self, small_workload):
        store = build_daily_profiles(small_workload.collected.flows)
        last_day = small_workload.config.train_days - 1
        lookbacks, nmi = nmi_history_curve(
            store, target_day=last_day, max_lookback=last_day
        )
        assert np.all(nmi >= 0) and np.all(nmi <= 1)
        # deeper history never hurts much: final >= first
        assert nmi[-1] >= nmi[0] - 0.05
