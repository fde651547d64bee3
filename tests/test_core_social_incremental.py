"""Incremental-vs-batch equivalence of the online social model.

``SocialModel.record_events`` / ``assign_user_type`` patch the fast-path
caches (dense delta matrices, partner index, adjacency) in place instead
of rebuilding them.  These tests are the proof the parity registry points
at: after N streamed events the patched state is **byte-identical** to a
from-scratch batch rebuild — same delta matrices (compared as raw
bytes), same type assignments, same ``build_graph`` output.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import perf
from repro.analysis.churn import ChurnEvents, CoEvent, Encounter, make_pair
from repro.core.social import PairStats, SocialModel, build_social_model
from repro.core.typing import TypeModel

from tests.social_oracle import build_graph_pairwise


def _type_model(users, k=3, seed=11):
    rng = np.random.default_rng(seed)
    affinity = rng.uniform(0.05, 0.9, size=(k, k))
    affinity = (affinity + affinity.T) / 2.0
    assignments = {
        user: int(rng.integers(k)) for user in users if rng.random() < 0.7
    }
    return TypeModel(
        centroids=np.zeros((k, 6)), assignments=assignments, affinity=affinity
    )


def _fresh_clone(model: SocialModel) -> SocialModel:
    """A from-scratch batch rebuild with the same statistics and types."""
    pairs = {
        pair: PairStats(stats.encounters, stats.co_leavings)
        for pair, stats in model._pairs.items()
    }
    type_model = TypeModel(
        centroids=model.type_model.centroids,
        assignments=dict(model.type_model.assignments),
        affinity=model.type_model.affinity,
    )
    return SocialModel(
        pair_stats=pairs,
        type_model=type_model,
        alpha=model.alpha,
        min_encounters=model.min_encounters,
        shrinkage=model.shrinkage,
    )


def _graph_signature(graph):
    return {
        node: {(o, w) for o, w in sorted(graph.neighbors(node).items())}
        for node in sorted(graph.nodes)
    }


def _random_events(users, n, seed):
    rng = np.random.default_rng(seed)
    events = []
    for _ in range(n):
        a, b = rng.choice(len(users), size=2, replace=False)
        events.append(
            (
                users[int(a)],
                users[int(b)],
                int(rng.integers(0, 4)),
                int(rng.integers(0, 3)),
            )
        )
    return events


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_streamed_events_byte_identical_to_batch_rebuild(seed):
    users = [f"u{i:02d}" for i in range(24)]
    members = tuple(sorted(users))
    model = SocialModel({}, _type_model(users, seed=seed))
    # Populate the dense-matrix cache so every streamed event exercises
    # the in-place patch path, never a silent rebuild.
    model.build_graph(users)

    builds_before = perf.PERF.counters().get("social.delta.build", 0)
    for chunk_start in range(0, 60, 12):
        for a, b, enc, col in _random_events(
            users, 12, seed * 1000 + chunk_start
        ):
            model.record_events(a, b, encounters=enc, co_leavings=col)
        fresh = _fresh_clone(model)
        patched = model._delta_matrix(members)
        rebuilt = fresh._delta_matrix(members)
        assert patched.tobytes() == rebuilt.tobytes()
        incremental_graph = model.build_graph(users)
        batch_graph = fresh.build_graph(users)
        reference_graph = build_graph_pairwise(fresh, users)
        assert _graph_signature(incremental_graph) == _graph_signature(
            batch_graph
        )
        assert _graph_signature(incremental_graph) == _graph_signature(
            reference_graph
        )
    builds_after = perf.PERF.counters().get("social.delta.build", 0)
    # One build for the incremental model's initial matrix, then one per
    # fresh clone; the incremental model itself never rebuilt.
    assert builds_after - builds_before <= 1 + 2 * 5


def test_streamed_events_never_rebuild_the_cached_matrix():
    users = [f"u{i}" for i in range(10)]
    model = SocialModel({}, _type_model(users))
    model.build_graph(users)
    builds = perf.PERF.counters().get("social.delta.build", 0)
    for a, b, enc, col in _random_events(users, 40, seed=3):
        model.record_events(a, b, encounters=enc, co_leavings=col)
        model.build_graph(users)
    assert perf.PERF.counters().get("social.delta.build", 0) == builds


def test_partner_and_adjacency_indexes_match_batch_rebuild():
    users = [f"u{i}" for i in range(16)]
    model = SocialModel({}, _type_model(users, seed=5))
    # Force both indexes to exist before streaming so they are patched.
    model._partner_index()
    model.conditional_partners(users[0])
    for a, b, enc, col in _random_events(users, 80, seed=6):
        model.record_events(a, b, encounters=enc, co_leavings=col)
    fresh = _fresh_clone(model)
    patched_partners = {
        user: sorted(entries) for user, entries in model._partner_index().items()
    }
    rebuilt_partners = {
        user: sorted(entries) for user, entries in fresh._partner_index().items()
    }
    assert patched_partners == rebuilt_partners
    for user in users:
        assert dict(model.conditional_partners(user)) == dict(
            fresh.conditional_partners(user)
        )


def test_assign_user_type_patches_rows_byte_identically():
    users = [f"u{i:02d}" for i in range(12)]
    members = tuple(sorted(users))
    model = SocialModel({}, _type_model(users, seed=7))
    for a, b, enc, col in _random_events(users, 30, seed=8):
        model.record_events(a, b, encounters=enc, co_leavings=col)
    model.build_graph(users)
    k = model.type_model.k
    stranger = next(u for u in users if u not in model.type_model.assignments)
    rng = np.random.default_rng(9)
    typed = [u for u in users if u != stranger]
    for index in rng.integers(0, len(typed), size=8):
        model.assign_user_type(typed[int(index)], int(rng.integers(k)))
        fresh = _fresh_clone(model)
        assert (
            model._delta_matrix(members).tobytes()
            == fresh._delta_matrix(members).tobytes()
        )
    # A stranger gaining a type for the first time is also just a patch.
    model.assign_user_type(stranger, 0)
    fresh = _fresh_clone(model)
    assert (
        model._delta_matrix(members).tobytes()
        == fresh._delta_matrix(members).tobytes()
    )


def test_assign_user_type_validates_and_noops_on_same_type():
    users = ["a", "b"]
    model = SocialModel({}, _type_model(users, seed=1))
    with pytest.raises(ValueError):
        model.assign_user_type("a", 99)
    model.assign_user_type("a", 1)
    generation = model.generation
    model.assign_user_type("a", 1)  # unchanged: no generation churn
    assert model.generation == generation


def test_floor_crossing_is_patched_exactly():
    users = ["a", "b", "c", "d"]
    members = tuple(sorted(users))
    model = SocialModel({}, _type_model(users, seed=2), min_encounters=3)
    model.build_graph(users)
    # Below the floor: the conditional term must stay zero.
    model.record_events("a", "b", encounters=2, co_leavings=2)
    assert model.conditional_term("a", "b") == 0.0
    fresh = _fresh_clone(model)
    assert (
        model._delta_matrix(members).tobytes()
        == fresh._delta_matrix(members).tobytes()
    )
    # Crossing the floor: the patched entry now carries the conditional.
    model.record_events("a", "b", encounters=1, co_leavings=1)
    assert model.conditional_term("a", "b") > 0.0
    fresh = _fresh_clone(model)
    assert (
        model._delta_matrix(members).tobytes()
        == fresh._delta_matrix(members).tobytes()
    )
    # The probability cap (more co-leavings than encounters) too.
    model.record_events("a", "b", co_leavings=50)
    assert model.conditional_term("a", "b") == 1.0
    fresh = _fresh_clone(model)
    assert (
        model._delta_matrix(members).tobytes()
        == fresh._delta_matrix(members).tobytes()
    )


def test_streamed_model_matches_build_social_model():
    """The streamed endpoint equals the offline training constructor."""
    users = [f"u{i}" for i in range(8)]
    type_model = _type_model(users, seed=4)
    events = _random_events(users, 50, seed=5)
    churn = ChurnEvents()
    streamed = SocialModel(
        {},
        TypeModel(
            centroids=type_model.centroids,
            assignments=dict(type_model.assignments),
            affinity=type_model.affinity,
        ),
    )
    streamed.build_graph(users)
    for a, b, enc, col in events:
        pair = make_pair(a, b)
        for _ in range(enc):
            churn.encounters.append(
                Encounter(pair=pair, ap_id="ap", start=0.0, end=1.0)
            )
        for _ in range(col):
            churn.co_leavings.append(
                CoEvent(
                    kind="co-leave", pair=pair, ap_id="ap", times=(0.0, 1.0)
                )
            )
        streamed.record_events(a, b, encounters=enc, co_leavings=col)
    batch = build_social_model(churn, type_model)
    members = tuple(sorted(users))
    assert (
        streamed._delta_matrix(members).tobytes()
        == batch._delta_matrix(members).tobytes()
    )
    for i, a in enumerate(users):
        for b in users[i + 1 :]:
            assert streamed.social_index(a, b) == batch.social_index(a, b)
