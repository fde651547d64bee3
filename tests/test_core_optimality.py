"""Optimality checks for Algorithm 1 on exhaustively-solvable instances.

The AP selection problem is NP-complete (Theorem 1 of the paper), so
Algorithm 1 is a heuristic.  On small instances we can brute-force the
true optimum of the paper's objective — minimize the total intra-AP
social weight, breaking ties by the post-placement balance index — and
measure how close the heuristic lands.
"""

import itertools

import numpy as np
import pytest

from repro.analysis.balance import normalized_balance_index
from repro.core.demand import DemandEstimator
from repro.core.selection import APState, S3Selector, SelectionConfig
from repro.core.social import PairStats, SocialModel
from repro.core.typing import TypeModel
from tests.selection_oracle import rebuilt


def social_from_matrix(users, delta):
    """A SocialModel whose delta(u,v) equals the given matrix exactly."""
    pairs = {}
    index = {u: i for i, u in enumerate(users)}
    for a, b in itertools.combinations(users, 2):
        value = delta[index[a], index[b]]
        # encode value through the conditional term: co_leavings/(enc+1)
        # with enc large makes the ratio ~ value.
        encounters = 1000
        co_leavings = int(round(value * (encounters + 1)))
        key = (a, b) if a < b else (b, a)
        pairs[key] = PairStats(encounters=encounters, co_leavings=co_leavings)
    types = TypeModel(
        centroids=np.zeros((2, 6)), assignments={}, affinity=np.zeros((2, 2))
    )
    return SocialModel(pairs, types, alpha=0.3)


def brute_force(users, aps, delta, rate):
    """The exact optimum: (min total intra-AP delta, then max balance)."""
    index = {u: i for i, u in enumerate(users)}
    best = None
    for combo in itertools.product(range(len(aps)), repeat=len(users)):
        cost = 0.0
        feasible = True
        added = [0.0] * len(aps)
        for i, ap_i in enumerate(combo):
            added[ap_i] += rate
        for k, ap in enumerate(aps):
            if added[k] > 0 and ap.load + added[k] > ap.bandwidth:
                feasible = False
                break
        if not feasible:
            continue
        for (i, a), (j, b) in itertools.combinations(enumerate(users), 2):
            if combo[i] == combo[j]:
                cost += delta[index[a], index[b]]
        loads = [ap.load + added[k] for k, ap in enumerate(aps)]
        beta = normalized_balance_index(loads)
        key = (round(cost, 9), -round(beta, 9))
        if best is None or key < best[0]:
            best = (key, combo)
    assert best is not None
    return best[0][0], best[1]


def placement_cost(placement, users, delta):
    index = {u: i for i, u in enumerate(users)}
    cost = 0.0
    for a, b in itertools.combinations(users, 2):
        if placement[a] == placement[b]:
            cost += delta[index[a], index[b]]
    return cost


def test_batch_assignment_near_optimal_on_small_instances():
    """Aggregate optimality audit over random small instances.

    Algorithm 1 deliberately trades social cost for balance inside the
    top-30% band (pseudocode line 6), so individual instances can pay a
    pair or two above the optimum; what must hold is that the *typical*
    gap is small and no instance is pathological.
    """
    gaps = []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n_users = int(rng.integers(3, 7))
        n_aps = int(rng.integers(2, 4))
        users = [f"u{i}" for i in range(n_users)]
        # Random symmetric social weights; some pairs strongly social.
        delta = np.zeros((n_users, n_users))
        for i, j in itertools.combinations(range(n_users), 2):
            value = float(
                rng.choice([0.0, 0.0, 0.5, 0.9], p=[0.4, 0.2, 0.2, 0.2])
            )
            delta[i, j] = delta[j, i] = value
        aps = [
            APState(f"ap{k}", bandwidth=1e9, load=float(rng.random() * 10))
            for k in range(n_aps)
        ]
        rate = 1.0
        social = social_from_matrix(users, delta)
        estimator = DemandEstimator(default_rate=rate)
        selector = S3Selector(social, estimator, SelectionConfig(top_fraction=0.3))

        placement = selector.assign_batch(users, rebuilt(social, aps))
        heuristic_cost = placement_cost(placement, users, delta)
        optimal_cost, _ = brute_force(users, aps, delta, rate)
        assert heuristic_cost >= optimal_cost - 1e-9  # optimum is a bound
        gaps.append(heuristic_cost - optimal_cost)

    assert np.mean(gaps) < 0.4
    assert max(gaps) < 2.0


def test_single_strong_clique_is_placed_optimally():
    users = ["a", "b", "c"]
    delta = np.array(
        [
            [0.0, 0.9, 0.9],
            [0.9, 0.0, 0.9],
            [0.9, 0.9, 0.0],
        ]
    )
    aps = [APState(f"ap{k}", bandwidth=1e9, load=0.0) for k in range(3)]
    selector = S3Selector(
        social_from_matrix(users, delta), DemandEstimator(default_rate=1.0)
    )
    placement = selector.assign_batch(users, rebuilt(selector.social, aps))
    # Three APs available: the fully-social triple must be fully spread.
    assert placement_cost(placement, users, delta) == pytest.approx(0.0)


def test_forced_collocation_picks_weakest_pair():
    """Two APs, three users with asymmetric pair weights: the pair sharing
    an AP must be the cheapest pair."""
    users = ["a", "b", "c"]
    delta = np.array(
        [
            [0.0, 0.9, 0.5],
            [0.9, 0.0, 0.1],
            [0.5, 0.1, 0.0],
        ]
    )
    aps = [APState("ap0", bandwidth=1e9, load=0.0), APState("ap1", bandwidth=1e9, load=0.0)]
    selector = S3Selector(
        social_from_matrix(users, delta), DemandEstimator(default_rate=1.0)
    )
    placement = selector.assign_batch(users, rebuilt(selector.social, aps))
    cost = placement_cost(placement, users, delta)
    # Optimal: co-locate (b, c) with weight ~0.1 (+ rounding slack).
    assert cost <= 0.15
