"""Tests for the social relation index delta(u, v) and the social graph."""

import numpy as np
import pytest

from repro.analysis.churn import ChurnEvents, CoEvent, Encounter
from repro.core.social import PairStats, SocialModel, build_social_model
from repro.core.typing import TypeModel


def type_model(affinity=None, assignments=None):
    k = 2
    affinity = affinity if affinity is not None else np.array([[0.6, 0.2], [0.2, 0.5]])
    return TypeModel(
        centroids=np.zeros((k, 6)),
        assignments=assignments if assignments is not None else {},
        affinity=affinity,
    )


class TestPairStats:
    def test_conditional_probability(self):
        assert PairStats(10, 5).conditional_probability == pytest.approx(0.5)

    def test_capped_at_one(self):
        assert PairStats(2, 5).conditional_probability == 1.0

    def test_no_encounters_is_zero(self):
        assert PairStats(0, 3).conditional_probability == 0.0


class TestSocialModel:
    def test_index_combines_conditional_and_type_terms(self):
        pairs = {("a", "b"): PairStats(encounters=9, co_leavings=9)}
        model = SocialModel(
            pairs, type_model(assignments={"a": 0, "b": 0}), alpha=0.3, shrinkage=1.0
        )
        expected = 9 / 10 + 0.3 * 0.6
        assert model.social_index("a", "b") == pytest.approx(expected)
        # symmetric
        assert model.social_index("b", "a") == pytest.approx(expected)

    def test_never_encountered_pair_uses_type_prior_only(self):
        model = SocialModel({}, type_model(assignments={"a": 0, "b": 1}), alpha=0.3)
        assert model.social_index("a", "b") == pytest.approx(0.3 * 0.2)

    def test_min_encounters_floor(self):
        pairs = {("a", "b"): PairStats(encounters=1, co_leavings=1)}
        model = SocialModel(
            pairs, type_model(assignments={"a": 0, "b": 0}),
            alpha=0.0, min_encounters=2,
        )
        assert model.social_index("a", "b") == 0.0

    def test_self_index_rejected(self):
        model = SocialModel({}, type_model())
        with pytest.raises(ValueError):
            model.social_index("a", "a")

    def test_self_pair_in_a_departure_rejected(self):
        model = SocialModel({}, type_model())
        with pytest.raises(ValueError, match="distinct"):
            model.record_departure("a", ["b"], ["a"])
        assert model.known_pairs() == 0 and model.generation == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SocialModel({}, type_model(), alpha=-0.1)
        with pytest.raises(ValueError):
            SocialModel({}, type_model(), min_encounters=0)
        with pytest.raises(ValueError):
            SocialModel({}, type_model(), shrinkage=-1.0)


class TestBuildGraph:
    def test_edges_only_above_threshold(self):
        pairs = {
            ("a", "b"): PairStats(9, 9),   # strong
            ("a", "c"): PairStats(9, 0),   # weak
        }
        model = SocialModel(
            pairs, type_model(affinity=np.zeros((2, 2))), alpha=0.3
        )
        graph = model.build_graph(["a", "b", "c"], threshold=0.3)
        assert graph.has_edge("a", "b")
        assert not graph.has_edge("a", "c")
        assert len(graph) == 3  # all users present as nodes

    def test_edge_weight_is_delta(self):
        pairs = {("a", "b"): PairStats(9, 9)}
        model = SocialModel(
            pairs, type_model(affinity=np.zeros((2, 2))), alpha=0.0
        )
        graph = model.build_graph(["a", "b"])
        assert graph.weight("a", "b") == pytest.approx(0.9)

    def test_negative_threshold_rejected(self):
        model = SocialModel({}, type_model())
        with pytest.raises(ValueError):
            model.build_graph(["a"], threshold=-1.0)


class TestBuildSocialModel:
    def test_counts_folded_from_churn(self):
        events = ChurnEvents()
        events.encounters = [
            Encounter(("a", "b"), "ap1", 0.0, 2000.0),
            Encounter(("a", "b"), "ap1", 5000.0, 8000.0),
        ]
        events.co_leavings = [
            CoEvent("co-leave", ("a", "b"), "ap1", (1.0, 2.0)),
        ]
        model = build_social_model(events, type_model(), alpha=0.3)
        stats = model.pair_stats("a", "b")
        assert stats.encounters == 2
        assert stats.co_leavings == 1
        assert model.known_pairs() == 1

    def test_groupmates_score_higher_than_strangers(self, small_workload, small_model):
        """End-to-end: the trained delta separates real groups from noise."""
        world = small_workload.world
        social = small_model.social
        same, cross = [], []
        groups = list(world.groups.values())
        for group in groups[:6]:
            members = sorted(group.member_ids)[:5]
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    same.append(social.social_index(u, v))
        users = sorted(world.users)[:30]
        member_sets = [set(g.member_ids) for g in groups]
        for i, u in enumerate(users):
            for v in users[i + 1:]:
                if not any(u in s and v in s for s in member_sets):
                    cross.append(social.social_index(u, v))
        assert np.mean(same) > np.mean(cross)
