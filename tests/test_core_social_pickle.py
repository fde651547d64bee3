"""Pickle round trip of the social model's columnar state.

``SocialModel`` pickles its pair statistics as three columns and each
partner-index bucket as partner names, re-linking the buckets to the
rebuilt ``PairStats`` on load.  A service snapshot is that pickle, and
recovery must resume exactly where the live model stood: these tests
drive random ``record_events`` / ``assign_user_type`` streams with every
cache warm, round-trip the model, and require the copy to be the same
model — same pair order, same bucket order (the summation order of the
cost rows), equal cost rows, and delta matrices that stay byte-identical
under further identical updates.
"""

from __future__ import annotations

import pickle
from typing import List, Tuple

import numpy as np
import pytest

from repro.core.selection import CostIndex
from repro.core.social import SocialModel
from repro.core.typing import TypeModel

_USERS = [f"u{i:02d}" for i in range(14)]


def _model(seed: int) -> SocialModel:
    rng = np.random.default_rng(seed)
    k = 3
    affinity = rng.uniform(0.05, 0.9, size=(k, k))
    type_model = TypeModel(
        centroids=np.zeros((k, 6)),
        assignments={u: int(rng.integers(k)) for u in _USERS if rng.random() < 0.6},
        affinity=(affinity + affinity.T) / 2.0,
    )
    return SocialModel({}, type_model, alpha=0.3, min_encounters=2)


def _updates(rng: np.random.Generator, n: int) -> List[Tuple[str, ...]]:
    """A random stream of pair events and retypes, as replayable tuples."""
    steps: List[Tuple[str, ...]] = []
    for _ in range(n):
        if rng.random() < 0.8:
            a, b = rng.choice(len(_USERS), size=2, replace=False)
            steps.append(
                (
                    "events",
                    _USERS[a],
                    _USERS[b],
                    str(int(rng.integers(0, 3))),
                    str(int(rng.integers(0, 2))),
                )
            )
        else:
            user = _USERS[int(rng.integers(len(_USERS)))]
            steps.append(("type", user, str(int(rng.integers(3)))))
    return steps


def _apply(model: SocialModel, step: Tuple[str, ...]) -> None:
    if step[0] == "events":
        model.record_events(
            step[1], step[2], encounters=int(step[3]), co_leavings=int(step[4])
        )
    else:
        model.assign_user_type(step[1], int(step[2]))


def _warm(model: SocialModel, rng: np.random.Generator) -> List[Tuple[str, ...]]:
    """Warm the partner, adjacency and delta caches; returns member sets."""
    members = [
        tuple(sorted(rng.choice(_USERS, size=size, replace=False).tolist()))
        for size in (4, 7, len(_USERS))
    ]
    for group in members:
        model.build_graph(group)
    for user in _USERS:
        model.conditional_partners(user)
    model._partner_index()
    return members


def _residents(rng: np.random.Generator) -> List[List[str]]:
    seats: List[List[str]] = [[], [], []]
    for user in _USERS[:10]:
        seats[int(rng.integers(len(seats)))].append(user)
    return seats


@pytest.mark.parametrize("seed", range(8))
def test_round_trip_keeps_every_structure_and_order(seed: int) -> None:
    rng = np.random.default_rng(seed)
    model = _model(seed)
    for step in _updates(rng, 60):
        _apply(model, step)
    members = _warm(model, rng)
    # Interleave more updates with warm caches, so the indexes are the
    # patched ones (append order), not a fresh rebuild.
    for step in _updates(rng, 40):
        _apply(model, step)
    copy = pickle.loads(pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL))

    assert list(copy._pairs.items()) == list(model._pairs.items())
    assert copy._partners_generation == model._partners_generation
    assert copy._partners == model._partners
    for user, bucket in copy._partners.items():
        for partner, stats in bucket:
            assert stats is copy._pairs[(user, partner)]
    for user in _USERS:
        assert list(copy.conditional_partners(user).items()) == list(
            model.conditional_partners(user).items()
        )
    assert list(copy._delta_cache) == list(model._delta_cache)
    for key, (stamp, matrix) in model._delta_cache.items():
        assert copy._delta_cache[key][0] == stamp
        assert copy._delta_cache[key][1].tobytes() == matrix.tobytes()

    residents = _residents(rng)
    live, restored = CostIndex(model, residents), CostIndex(copy, residents)
    for user in _USERS:
        assert restored.row(user) == live.row(user)

    # Identical further updates keep both copies byte-identical.
    for step in _updates(rng, 40):
        _apply(model, step)
        _apply(copy, step)
    assert list(copy._pairs.items()) == list(model._pairs.items())
    for group in members:
        assert copy._delta_matrix(group).tobytes() == (
            model._delta_matrix(group).tobytes()
        )
    for user in _USERS:
        assert restored.row(user) == live.row(user)
        assert list(copy.conditional_partners(user).items()) == list(
            model.conditional_partners(user).items()
        )


def test_pairs_pickle_as_columns_not_objects() -> None:
    model = _model(0)
    for step in _updates(np.random.default_rng(0), 50):
        _apply(model, step)
    state = model.__getstate__()
    assert "_pairs" not in state
    assert state["_pair_keys"] == list(model._pairs)
    assert b"PairStats" not in pickle.dumps(model)
