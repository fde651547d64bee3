"""Tests for WLAN runtime entities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.churn import make_pair
from repro.core.selection import APState, CostIndex
from repro.core.social import PairStats, SocialModel
from repro.core.typing import TypeModel
from repro.trace.social import CampusLayout
from repro.wlan.entities import APRuntime, CampusRuntime, ControllerRuntime


def _social() -> SocialModel:
    """Two types over u0..u5 (u5 untyped) and a few co-leaving pairs."""
    pairs = {
        make_pair("u0", "u1"): PairStats(4, 2),
        make_pair("u0", "u3"): PairStats(3, 1),
        make_pair("u2", "u5"): PairStats(5, 4),
    }
    types = TypeModel(
        np.zeros((2, 6)),
        {f"u{i}": i % 2 for i in range(5)},
        np.array([[0.3, 0.1], [0.1, 0.2]]),
    )
    return SocialModel(pairs, types, min_encounters=1)


@pytest.fixture
def layout():
    return CampusLayout.grid(2, 3)


@pytest.fixture
def campus(layout):
    return CampusRuntime(layout)


class TestAPRuntime:
    def test_associate_tracks_load_and_count(self, campus):
        ap = next(iter(campus.controllers.values())).aps[
            sorted(next(iter(campus.controllers.values())).aps)[0]
        ]
        ap.associate("u1", 100.0)
        ap.associate("u2", 50.0)
        assert ap.load == 150.0
        assert ap.user_count == 2
        assert ap.users == ("u1", "u2")

    def test_double_association_rejected(self, campus):
        controller = next(iter(campus.controllers.values()))
        ap = controller.aps[controller.ap_ids[0]]
        ap.associate("u1", 1.0)
        with pytest.raises(ValueError):
            ap.associate("u1", 2.0)

    def test_disassociate_returns_rate(self, campus):
        controller = next(iter(campus.controllers.values()))
        ap = controller.aps[controller.ap_ids[0]]
        ap.associate("u1", 42.0)
        assert ap.disassociate("u1") == 42.0
        assert ap.user_count == 0

    def test_disassociate_unknown_rejected(self, campus):
        controller = next(iter(campus.controllers.values()))
        ap = controller.aps[controller.ap_ids[0]]
        with pytest.raises(KeyError):
            ap.disassociate("ghost")

    def test_negative_rate_rejected(self, campus):
        controller = next(iter(campus.controllers.values()))
        ap = controller.aps[controller.ap_ids[0]]
        with pytest.raises(ValueError):
            ap.associate("u1", -1.0)

    def test_measured_load_lags_until_refresh(self, campus):
        controller = next(iter(campus.controllers.values()))
        ap = controller.aps[controller.ap_ids[0]]
        ap.associate("u1", 100.0)
        assert ap.measured_load == 0.0
        assert ap.snapshot().load == 0.0  # strategies see the stale view
        ap.refresh_measurement()
        assert ap.measured_load == 100.0
        assert ap.snapshot().load == 100.0

    def test_snapshot_oracle_mode(self, campus):
        controller = next(iter(campus.controllers.values()))
        ap = controller.aps[controller.ap_ids[0]]
        ap.associate("u1", 100.0)
        assert ap.snapshot(measured=False).load == 100.0

    def test_snapshot_users_always_fresh(self, campus):
        controller = next(iter(campus.controllers.values()))
        ap = controller.aps[controller.ap_ids[0]]
        ap.associate("u1", 100.0)
        assert ap.snapshot().users == ("u1",)


class TestControllerRuntime:
    def test_snapshots_sorted_by_ap_id(self, campus):
        controller = next(iter(campus.controllers.values()))
        snaps = controller.snapshots()
        assert [s.ap_id for s in snaps] == controller.ap_ids

    def test_loads_and_counts(self, campus):
        controller = next(iter(campus.controllers.values()))
        controller.aps[controller.ap_ids[0]].associate("u1", 10.0)
        assert sum(controller.loads()) == 10.0
        assert sum(controller.user_counts()) == 1

    def test_find_user(self, campus):
        controller = next(iter(campus.controllers.values()))
        target = controller.ap_ids[1]
        controller.aps[target].associate("u1", 1.0)
        assert controller.find_user("u1") == target
        assert controller.find_user("ghost") is None
        controller.aps[target].disassociate("u1")
        assert controller.find_user("u1") is None
        assert controller.total_users() == 0

    def test_one_seat_per_domain(self, campus):
        controller = next(iter(campus.controllers.values()))
        first, second = controller.ap_ids[:2]
        controller.aps[first].associate("u1", 1.0)
        with pytest.raises(ValueError, match="already associated"):
            controller.aps[second].associate("u1", 1.0)
        assert not controller.aps[second].is_associated("u1")
        assert controller.find_user("u1") == first

    def test_an_ap_belongs_to_one_domain(self):
        ap = APRuntime("a", 1e6)
        ControllerRuntime("c1", [ap])
        with pytest.raises(ValueError, match="already has a controller"):
            ControllerRuntime("c2", [ap])
        with pytest.raises(ValueError, match="duplicate AP"):
            ControllerRuntime("c3", [APRuntime("b", 1e6), APRuntime("b", 1e6)])
        with pytest.raises(ValueError, match="bandwidth"):
            APRuntime("x", 0.0)

    def test_index_only_with_a_social_model(self, layout):
        plain = CampusRuntime(layout)
        assert all(c.index is None for c in plain.controllers.values())
        social = CampusRuntime(layout, _social())
        assert all(c.index is not None for c in social.controllers.values())
        controller = next(iter(plain.controllers.values()))
        with pytest.raises(ValueError, match="no cost index"):
            controller.snapshots().costs("u0")

    def test_snapshots_without_down_aps_keep_index_positions(self, layout):
        controller = next(iter(CampusRuntime(layout, _social()).controllers.values()))
        ap_ids = controller.ap_ids
        controller.aps[ap_ids[0]].associate("u1", 5.0)
        full = controller.snapshots()
        assert full.index is controller.index
        assert full.positions == tuple(range(len(ap_ids)))
        up = controller.snapshots(down={ap_ids[1]})
        assert [s.ap_id for s in up] == [a for a in ap_ids if a != ap_ids[1]]
        assert up.positions == tuple(i for i in range(len(ap_ids)) if i != 1)
        row = full.costs("u0")
        assert up.costs("u0") == [row[i] for i in up.positions]

    def test_refresh_measurements_bulk(self, campus):
        controller = next(iter(campus.controllers.values()))
        controller.aps[controller.ap_ids[0]].associate("u1", 7.0)
        controller.refresh_measurements()
        assert controller.snapshots()[0].load == 7.0

    def test_empty_controller_rejected(self):
        with pytest.raises(ValueError):
            ControllerRuntime("c", [])


class TestCampusRuntime:
    def test_one_controller_per_building(self, campus, layout):
        assert len(campus.controllers) == len(layout.buildings)

    def test_controller_for_building(self, campus, layout):
        building_id = sorted(layout.buildings)[0]
        controller = campus.controller_for_building(building_id)
        assert controller.controller_id == layout.buildings[building_id].controller_id

    def test_unknown_building_rejected(self, campus):
        with pytest.raises(KeyError):
            campus.controller_for_building("nowhere")

    def test_ap_lookup(self, campus, layout):
        ap_id = sorted(layout.aps)[0]
        assert campus.ap(ap_id).ap_id == ap_id

    def test_totals(self, campus):
        campus.ap(sorted(campus.layout.aps)[0]).associate("u1", 25.0)
        assert campus.total_users() == 1
        assert campus.total_load() == 25.0


def _same(a, b):
    """Equal with ``==`` and of the same type (an idle AP sums to int 0)."""
    return a == b and type(a) is type(b)


_rates = st.one_of(
    st.just(0.0),
    st.integers(0, 50),
    st.floats(0.0, 1e7, allow_nan=False),
)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("associate"), st.integers(0, 2), st.integers(0, 5), _rates),
        st.tuples(st.just("disassociate"), st.integers(0, 2), st.integers(0, 5)),
        st.tuples(st.just("refresh"), st.integers(0, 2)),
        st.tuples(st.just("refresh_all"),),
    ),
    max_size=40,
)


class TestCachedState:
    """The cached load and snapshots always equal the uncached expressions."""

    @settings(max_examples=200, deadline=None)
    @given(_steps)
    def test_caches_track_every_mutation(self, steps):
        social = _social()
        controller = CampusRuntime(CampusLayout.grid(1, 3), social).controllers[
            "ctrl-B00"
        ]
        ap_ids = sorted(controller.aps)
        table = {ap_id: {} for ap_id in ap_ids}  # the association oracle
        measured = {ap_id: 0.0 for ap_id in ap_ids}
        for step in steps:
            kind = step[0]
            if kind == "associate":
                ap_id, user, rate = ap_ids[step[1]], f"u{step[2]}", step[3]
                if any(user in users for users in table.values()):
                    continue
                controller.aps[ap_id].associate(user, rate)
                table[ap_id][user] = rate
            elif kind == "disassociate":
                ap_id, user = ap_ids[step[1]], f"u{step[2]}"
                if user not in table[ap_id]:
                    continue
                assert _same(
                    controller.aps[ap_id].disassociate(user), table[ap_id].pop(user)
                )
            elif kind == "refresh":
                ap_id = ap_ids[step[1]]
                controller.aps[ap_id].refresh_measurement()
                measured[ap_id] = sum(table[ap_id].values())
            else:
                controller.refresh_measurements()
                measured = {a: sum(table[a].values()) for a in ap_ids}
            self._check(controller, ap_ids, table, measured)
            self._check_index(controller, ap_ids, table, social)

    def _check_index(self, controller, ap_ids, table, social):
        """The live index equals one rebuilt from the tables, row for row."""
        rebuilt = CostIndex(social, [table[ap_id] for ap_id in ap_ids])
        for position in range(len(ap_ids)):
            assert controller.index.type_counts(position) == rebuilt.type_counts(
                position
            )
        for user in (f"u{i}" for i in range(7)):
            assert controller.index.row(user) == rebuilt.row(user)
            expected = next((a for a in ap_ids if user in table[a]), None)
            assert controller.find_user(user) == expected
        assert controller.total_users() == sum(len(t) for t in table.values())

    def _check(self, controller, ap_ids, table, measured):
        expected_states = []
        for ap_id in ap_ids:
            ap = controller.aps[ap_id]
            load = sum(table[ap_id].values())
            assert _same(ap.load, load)
            assert _same(ap.measured_load, measured[ap_id])
            users = tuple(sorted(table[ap_id]))
            fresh = APState(ap_id, ap.bandwidth, measured[ap_id], users)
            snapshot = ap.snapshot()
            assert snapshot == fresh and _same(snapshot.load, fresh.load)
            oracle = ap.snapshot(measured=False)
            assert oracle == APState(ap_id, ap.bandwidth, load, users)
            assert _same(oracle.load, load)
            expected_states.append(fresh)
        loads = controller.loads()
        assert loads == [sum(table[a].values()) for a in ap_ids]
        assert all(_same(x, sum(table[a].values())) for x, a in zip(loads, ap_ids))
        assert controller.user_counts() == [len(table[a]) for a in ap_ids]
        assert list(controller.snapshots()) == expected_states
        assert controller.ap_ids == ap_ids

    def test_unchanged_poll_keeps_the_cached_snapshot(self, campus):
        controller = next(iter(campus.controllers.values()))
        ap = controller.aps[controller.ap_ids[0]]
        ap.associate("u1", 5.0)
        ap.refresh_measurement()
        snapshot = ap.snapshot()
        ap.refresh_measurement()
        assert ap.snapshot() is snapshot
        ap.associate("u2", 1.0)
        assert ap.snapshot() is not snapshot

    def test_idle_poll_measures_the_int_zero(self, campus):
        controller = next(iter(campus.controllers.values()))
        ap = controller.aps[controller.ap_ids[0]]
        assert _same(ap.measured_load, 0.0)
        ap.refresh_measurement()
        assert _same(ap.measured_load, 0)
        assert _same(ap.snapshot().load, 0)

    def test_ap_ids_list_is_the_callers_own(self, campus):
        controller = next(iter(campus.controllers.values()))
        ids = controller.ap_ids
        ids.append("ghost")
        assert "ghost" not in controller.ap_ids
