"""Unit tests for the social world: layout, types, groups, construction."""

import numpy as np
import pytest

from repro.sim.rng import RandomStreams
from repro.sim.timeline import HOUR
from repro.trace.social import (
    CampusLayout,
    DEFAULT_TYPE_PROFILES,
    ScheduleSlot,
    SocialGroup,
    UserTypeProfile,
    WorldConfig,
    build_world,
)


class TestCampusLayout:
    def test_grid_shape(self):
        layout = CampusLayout.grid(3, 4)
        assert len(layout.buildings) == 3
        assert len(layout.aps) == 12
        assert len(layout.controller_ids) == 3

    def test_aps_of_building(self):
        layout = CampusLayout.grid(2, 5)
        building_id = sorted(layout.buildings)[0]
        aps = layout.aps_of_building(building_id)
        assert len(aps) == 5
        assert all(ap.building_id == building_id for ap in aps)

    def test_controller_of_ap_consistent(self):
        layout = CampusLayout.grid(2, 3)
        for ap_id, ap in layout.aps.items():
            assert layout.controller_of_ap(ap_id) == ap.controller_id

    def test_aps_of_controller_sorted(self):
        layout = CampusLayout.grid(1, 4)
        controller_id = layout.controller_ids[0]
        aps = layout.aps_of_controller(controller_id)
        assert [a.ap_id for a in aps] == sorted(a.ap_id for a in aps)

    def test_grid_rejects_empty(self):
        with pytest.raises(ValueError):
            CampusLayout.grid(0, 4)


class TestUserTypeProfile:
    def test_interests_must_sum_to_one(self):
        with pytest.raises(ValueError):
            UserTypeProfile("bad", (0.5, 0.5, 0.5, 0, 0, 0))

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            UserTypeProfile("bad", (1.0,))

    def test_sample_interest_is_distribution(self):
        profile = DEFAULT_TYPE_PROFILES[0]
        rng = np.random.default_rng(0)
        sample = profile.sample_interest(rng)
        assert sample.shape == (6,)
        assert sample.sum() == pytest.approx(1.0)
        assert np.all(sample > 0)

    def test_samples_concentrate_near_type_interests(self):
        profile = DEFAULT_TYPE_PROFILES[1]  # p2p-downloader
        rng = np.random.default_rng(0)
        samples = np.array([profile.sample_interest(rng) for _ in range(200)])
        assert np.argmax(samples.mean(axis=0)) == 1  # P2P realm

    def test_four_default_types_have_distinct_dominant_mixes(self):
        dominants = [np.argmax(p.interests) for p in DEFAULT_TYPE_PROFILES]
        assert len(set(dominants)) == len(DEFAULT_TYPE_PROFILES)


class TestScheduleSlot:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScheduleSlot(weekday=7, start=0.0, duration=1.0)
        with pytest.raises(ValueError):
            ScheduleSlot(weekday=0, start=25 * HOUR, duration=1.0)
        with pytest.raises(ValueError):
            ScheduleSlot(weekday=0, start=0.0, duration=0.0)


class TestSocialGroup:
    def test_needs_members_and_slots(self):
        slot = ScheduleSlot(0, 9 * HOUR, HOUR)
        with pytest.raises(ValueError):
            SocialGroup("g", (), "B00", (slot,))
        with pytest.raises(ValueError):
            SocialGroup("g", ("u1", "u2"), "B00", ())

    @pytest.mark.parametrize(
        "jitters", [(-1.0, 75.0), (240.0, -1.0), (float("nan"), 75.0)]
    )
    def test_negative_or_nan_jitter_rejected(self, jitters):
        slot = ScheduleSlot(0, 9 * HOUR, HOUR)
        with pytest.raises(ValueError, match="jitter"):
            SocialGroup("g", ("u1",), "B00", (slot,), *jitters)

    def test_departure_jitter_much_tighter_than_arrival(self):
        slot = ScheduleSlot(0, 9 * HOUR, HOUR)
        group = SocialGroup("g", ("u1", "u2"), "B00", (slot,))
        assert group.departure_jitter < group.arrival_jitter


class TestBuildWorld:
    @pytest.fixture(scope="class")
    def world(self):
        config = WorldConfig(
            n_buildings=2, aps_per_building=3, n_users=60, n_groups=10
        )
        return build_world(config, RandomStreams(seed=11))

    def test_population_sizes(self, world):
        assert len(world.users) == 60
        assert len(world.groups) == 10
        assert len(world.layout.buildings) == 2

    def test_every_group_member_exists(self, world):
        for group in world.groups.values():
            for member in group.member_ids:
                assert member in world.users

    def test_groups_have_at_least_two_members(self, world):
        assert all(len(g.member_ids) >= 2 for g in world.groups.values())

    def test_groups_hold_valid_buildings_and_slots(self, world):
        for group in world.groups.values():
            assert group.building_id in world.layout.buildings
            assert group.slots
            assert all(slot.weekday < 5 for slot in group.slots)

    def test_type_homogeneity_dominates(self, world):
        # Within a group, the modal type should usually hold a clear majority.
        majorities = []
        for group in world.groups.values():
            types = [world.users[m].type_index for m in group.member_ids]
            counts = np.bincount(types, minlength=4)
            majorities.append(counts.max() / counts.sum())
        assert np.mean(majorities) > 0.5

    def test_ground_truth_types_match_users(self, world):
        truth = world.ground_truth_types()
        assert truth == {uid: u.type_index for uid, u in world.users.items()}

    def test_deterministic_under_seed(self):
        config = WorldConfig(n_buildings=1, aps_per_building=2, n_users=20, n_groups=4)
        w1 = build_world(config, RandomStreams(seed=3))
        w2 = build_world(config, RandomStreams(seed=3))
        assert w1.ground_truth_types() == w2.ground_truth_types()
        assert set(w1.groups) == set(w2.groups)
        for gid in w1.groups:
            assert w1.groups[gid].member_ids == w2.groups[gid].member_ids

    def test_groups_of_user(self, world):
        some_group = next(iter(world.groups.values()))
        member = some_group.member_ids[0]
        assert some_group in world.groups_of_user(member)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorldConfig(n_users=0)
        with pytest.raises(ValueError):
            WorldConfig(type_homogeneity=1.5)
        with pytest.raises(ValueError):
            WorldConfig(group_size_min=1)

    def test_summary_mentions_scale(self, world):
        text = world.summary()
        assert "users=60" in text
        assert "groups=10" in text
