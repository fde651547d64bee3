"""Tests for Algorithm 1: APState, single select, batch clique placement."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.balance import normalized_balance_index
from repro.core.demand import DemandEstimator
from repro.core.selection import (
    APState,
    S3Selector,
    SelectionConfig,
    balance_squares,
    least_loaded,
    rank_singleton,
)
from repro.core.social import PairStats, SocialModel
from repro.core.typing import TypeModel
from tests.selection_oracle import (
    literal_rank_singleton,
    oracle_added_cost,
    rebuilt,
    reference_place_exhaustive,
)


def make_social(pairs=None, affinity=0.0, assignments=None, alpha=0.3):
    k = 2
    model = TypeModel(
        centroids=np.zeros((k, 6)),
        assignments=assignments or {},
        affinity=np.full((k, k), affinity),
    )
    stats = {}
    for (u, v), (enc, col) in (pairs or {}).items():
        key = (u, v) if u < v else (v, u)
        stats[key] = PairStats(encounters=enc, co_leavings=col)
    return SocialModel(stats, model, alpha=alpha)


def estimator(rates=None, default=10.0):
    est = DemandEstimator(smoothing=1.0, default_rate=default)
    for user, rate in (rates or {}).items():
        est.observe(user, rate)
    return est


def aps(*specs):
    return [
        APState(ap_id=name, bandwidth=bw, load=load, users=tuple(users))
        for name, bw, load, users in specs
    ]


class TestAPState:
    def test_validation(self):
        with pytest.raises(ValueError):
            APState("a", 0.0, 0.0)
        with pytest.raises(ValueError):
            APState("a", 10.0, -1.0)

    def test_nan_load_and_bandwidth_rejected(self):
        # The clique step's balance pick has no answer over NaN loads.
        with pytest.raises(ValueError, match="NaN load"):
            APState("a", 10.0, float("nan"))
        with pytest.raises(ValueError, match="NaN bandwidth"):
            APState("a", float("nan"), 0.0)

    def test_with_user(self):
        state = APState("a", 100.0, 10.0, ("u1",))
        grown = state.with_user("u2", 5.0)
        assert grown.load == 15.0
        assert grown.users == ("u1", "u2")
        assert state.users == ("u1",)  # immutable original

    def test_headroom(self):
        assert APState("a", 100.0, 30.0).headroom() == 70.0


class TestLeastLoaded:
    def test_picks_minimum_load(self):
        states = aps(("a", 100, 50, []), ("b", 100, 20, []), ("c", 100, 80, []))
        assert least_loaded(states).ap_id == "b"

    def test_tie_breaks_by_user_count_then_id(self):
        states = aps(("b", 100, 10, ["u"]), ("a", 100, 10, []))
        assert least_loaded(states).ap_id == "a"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            least_loaded([])


class TestSelect:
    def test_avoids_ap_with_groupmate(self):
        social = make_social(pairs={("new", "mate"): (9, 9)})
        selector = S3Selector(social, estimator())
        states = aps(
            ("a", 1000, 10.0, ["mate"]),  # holds the co-leaver
            ("b", 1000, 10.0, []),
        )
        assert selector.select("new", rebuilt(selector.social, states)) == "b"

    def test_falls_back_to_llf_without_social_signal(self):
        selector = S3Selector(make_social(), estimator())
        states = aps(("a", 1000, 50.0, []), ("b", 1000, 5.0, []))
        assert selector.select("new", rebuilt(selector.social, states)) == "b"

    def test_bandwidth_constraint_excludes_full_ap(self):
        selector = S3Selector(make_social(), estimator(default=20.0))
        states = aps(
            ("a", 100, 95.0, []),   # 95 + 20 > 100: infeasible
            ("b", 100, 95.0, []),
            ("c", 1000, 500.0, []),
        )
        assert selector.select("new", rebuilt(selector.social, states)) == "c"

    def test_all_infeasible_degrades_to_least_loaded(self):
        selector = S3Selector(make_social(), estimator(default=1000.0))
        states = aps(("a", 100, 60.0, []), ("b", 100, 40.0, []))
        assert selector.select("new", rebuilt(selector.social, states)) == "b"

    def test_no_candidates_rejected(self):
        selector = S3Selector(make_social(), estimator())
        with pytest.raises(ValueError):
            selector.select("new", [])

    def test_balance_rerank_within_top_fraction(self):
        # Both APs socially free; the one improving balance most wins even
        # if slightly more loaded... top_fraction=1.0 keeps both.
        config = SelectionConfig(top_fraction=1.0)
        selector = S3Selector(make_social(), estimator(default=30.0), config)
        states = aps(("a", 1000, 40.0, []), ("b", 1000, 10.0, []))
        # placing on b: loads (40, 40) balanced; placing on a: (70, 10).
        assert selector.select("new", rebuilt(selector.social, states)) == "b"

    def test_added_social_cost_sums_over_residents(self):
        social = make_social(
            pairs={("new", "x"): (9, 9), ("new", "y"): (9, 4)}
        )
        selector = S3Selector(social, estimator())
        state = APState("a", 1000, 0.0, ("x", "y"))
        (cost,) = selector.cost_row("new", rebuilt(social, [state]))
        assert cost == pytest.approx(0.9 + 0.4)
        assert cost == oracle_added_cost(social, "new", state.users)
        # An arrival already seated is scored against the others only.
        typed = make_social(
            pairs={("new", "x"): (9, 9), ("new", "y"): (9, 4)}, affinity=0.3
        )
        typed_selector = S3Selector(typed, estimator())
        seated = APState("a", 1000, 0.0, ("x", "new", "y"))
        assert typed_selector.cost_row("new", rebuilt(typed, [seated])) == (
            typed_selector.cost_row("new", rebuilt(typed, [state]))
        )
        assert typed_selector.cost_row("new", rebuilt(typed, [seated])) == [
            oracle_added_cost(typed, "new", seated.users)
        ]


class TestAssignBatch:
    def test_spreads_clique_across_aps(self):
        members = ["m1", "m2", "m3", "m4"]
        pairs = {
            (a, b): (9, 9) for a, b in itertools.combinations(members, 2)
        }
        selector = S3Selector(make_social(pairs=pairs), estimator())
        states = aps(*[(f"ap{i}", 1000, 0.0, []) for i in range(4)])
        placement = selector.assign_batch(members, rebuilt(selector.social, states))
        assert sorted(placement) == members
        assert len(set(placement.values())) == 4  # fully spread

    def test_strangers_balance_by_load(self):
        selector = S3Selector(make_social(), estimator(default=10.0))
        states = aps(("a", 1000, 0.0, []), ("b", 1000, 0.0, []))
        placement = selector.assign_batch(["u1", "u2", "u3", "u4"], rebuilt(selector.social, states))
        counts = {ap: 0 for ap in ("a", "b")}
        for ap in placement.values():
            counts[ap] += 1
        assert counts["a"] == counts["b"] == 2

    def test_empty_batch(self):
        selector = S3Selector(make_social(), estimator())
        assert selector.assign_batch([], aps(("a", 100, 0, []))) == {}

    def test_single_user_batch_equals_select(self):
        social = make_social(pairs={("new", "mate"): (9, 9)})
        selector = S3Selector(social, estimator())
        states = aps(("a", 1000, 0.0, ["mate"]), ("b", 1000, 0.0, []))
        states = rebuilt(social, states)
        placement = selector.assign_batch(["new"], states)
        assert placement == {"new": selector.select("new", states)}

    def test_duplicate_users_deduped(self):
        selector = S3Selector(make_social(), estimator())
        states = aps(("a", 1000, 0.0, []), ("b", 1000, 0.0, []))
        placement = selector.assign_batch(["u", "u"], rebuilt(selector.social, states))
        assert list(placement) == ["u"]

    def test_two_cliques_both_spread(self):
        clique1 = ["a1", "a2", "a3"]
        clique2 = ["b1", "b2"]
        pairs = {}
        for u, v in itertools.combinations(clique1, 2):
            pairs[(u, v)] = (9, 9)
        pairs[("b1", "b2")] = (9, 8)
        selector = S3Selector(make_social(pairs=pairs), estimator())
        states = aps(*[(f"ap{i}", 1000, 0.0, []) for i in range(3)])
        placement = selector.assign_batch(clique1 + clique2, rebuilt(selector.social, states))
        assert len({placement[u] for u in clique1}) == 3
        assert placement["b1"] != placement["b2"]

    def test_greedy_path_for_large_cliques(self):
        members = [f"m{i}" for i in range(8)]
        pairs = {
            (a, b): (9, 9) for a, b in itertools.combinations(members, 2)
        }
        config = SelectionConfig(max_enumeration=10)  # force greedy
        selector = S3Selector(make_social(pairs=pairs), estimator(), config)
        states = aps(*[(f"ap{i}", 1000, 0.0, []) for i in range(4)])
        placement = selector.assign_batch(members, rebuilt(selector.social, states))
        counts = {}
        for ap in placement.values():
            counts[ap] = counts.get(ap, 0) + 1
        assert max(counts.values()) == 2  # 8 users over 4 APs, even split

    def test_batch_respects_bandwidth(self):
        members = ["h1", "h2", "h3"]
        pairs = {(a, b): (9, 9) for a, b in itertools.combinations(members, 2)}
        selector = S3Selector(
            make_social(pairs=pairs),
            estimator(rates={m: 60.0 for m in members}),
        )
        states = aps(("a", 100, 0.0, []), ("b", 100, 0.0, []), ("c", 100, 0.0, []))
        placement = selector.assign_batch(members, rebuilt(selector.social, states))
        # 60 B/s each against 100 B/s APs: one user per AP is forced.
        assert len(set(placement.values())) == 3

    @pytest.mark.parametrize("max_enumeration", [20000, 10])
    def test_batch_leaves_the_index_as_it_was(self, max_enumeration):
        # Placed cliques are seated only while the batch runs, on the
        # exhaustive and the greedy path alike, and on the way out of an
        # error too.
        members = ["m1", "m2", "m3", "m4"]
        pairs = {(a, b): (9, 9) for a, b in itertools.combinations(members, 2)}
        selector = S3Selector(
            make_social(pairs=pairs, affinity=0.3),
            estimator(),
            SelectionConfig(max_enumeration=max_enumeration),
        )
        states = rebuilt(
            selector.social, aps(("a", 1000, 0.0, ["m1"]), ("b", 1000, 0.0, []))
        )
        index = states.index
        before = [index.row(user) for user in members + ["x"]]
        placement = selector.assign_batch(["m2", "m3", "m4", "x"], states)
        assert sorted(placement) == ["m2", "m3", "m4", "x"]
        assert [index.row(user) for user in members + ["x"]] == before
        assert [index.position_of(user) for user in members] == [0, None, None, None]
        with pytest.raises(ValueError, match="already associated"):
            selector.assign_batch(["m1", "m2", "m3"], states)
        assert [index.row(user) for user in members + ["x"]] == before

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_batch_always_total_and_valid(self, seed):
        rng = np.random.default_rng(seed)
        users = [f"u{i}" for i in range(int(rng.integers(1, 10)))]
        pairs = {}
        for u, v in itertools.combinations(users, 2):
            if rng.random() < 0.4:
                pairs[(u, v)] = (int(rng.integers(2, 10)), int(rng.integers(0, 10)))
        selector = S3Selector(make_social(pairs=pairs, affinity=0.3), estimator())
        states = aps(*[(f"ap{i}", 1e6, float(rng.random() * 100), []) for i in range(3)])
        placement = selector.assign_batch(users, rebuilt(selector.social, states))
        assert sorted(placement) == sorted(users)
        assert all(ap in {"ap0", "ap1", "ap2"} for ap in placement.values())


def random_clique_case(seed, n_members, n_aps, top_fraction, affinity, regime):
    """A clique, resident-holding APs and a selector drawn from ``seed``.

    ``regime`` sets the bandwidth: ``"roomy"`` admits every distribution,
    ``"tight"`` rules some out, ``"exact"`` leaves each AP room for
    exactly some subset of the clique (the constraint's boundary) and
    ``"full"`` rules out every distribution.
    """
    rng = np.random.default_rng(seed)
    members = [f"m{i}" for i in range(n_members)]
    rates = {m: float(rng.choice([5.0, 10.0, rng.uniform(1.0, 40.0)])) for m in members}
    residents = [f"r{i}" for i in range(int(rng.integers(0, 9)))]
    pairs = {}
    for u, v in itertools.combinations(members + residents, 2):
        if rng.random() < 0.5:
            encounters = int(rng.integers(2, 10))
            pairs[(u, v)] = (encounters, int(rng.integers(0, encounters + 1)))
    # A station holds one link at a time: each resident sits at one AP.
    seat = {r: int(rng.integers(n_aps)) for r in residents}
    states = []
    for a in range(n_aps):
        users = [r for r in residents if seat[r] == a]
        load = float(rng.choice([0.0, rng.uniform(0.0, 60.0)]))
        if regime == "roomy":
            bandwidth = load + sum(rates.values()) + 1.0
        elif regime == "tight":
            bandwidth = load + float(rng.uniform(0.5, 1.2)) * sum(rates.values())
        elif regime == "exact":
            fits = 0.0
            for member in members:
                if rng.random() < 0.5:
                    fits += rates[member]
            bandwidth = load + (fits or rates[members[0]])
        else:
            bandwidth = load + 0.5 * min(rates.values())
        states.append(APState(f"ap{a}", bandwidth, load, tuple(users)))
    selector = S3Selector(
        make_social(pairs=pairs, affinity=affinity),
        estimator(rates=rates),
        SelectionConfig(top_fraction=top_fraction),
    )
    return selector, members, rebuilt(selector.social, states)


def integer_clique_case(seed, n_members, n_aps, top_fraction, room):
    """A clique case whose costs, rates and loads are all small integers.

    Integer values make many distributions tie in cost, and many in the
    sum of squared loads, so the top band's cut falls inside a tie.
    ``room`` sets the bandwidth: ``"roomy"`` admits every distribution,
    ``"tight"`` leaves each AP room for 0 to all of the clique's rate,
    ``"none"`` no room at all (no distribution with a positive rate is
    feasible).
    """
    rng = np.random.default_rng(seed)
    members = [f"m{i}" for i in range(n_members)]
    residents = [f"r{i}" for i in range(int(rng.integers(0, 7)))]
    users = members + residents
    # Integer type affinities at alpha 1, and conditional terms of 0 or 1
    # (no shrinkage, co-leavings 0 or at least the encounters).
    model = TypeModel(
        centroids=np.zeros((2, 6)),
        assignments={user: int(rng.integers(2)) for user in users},
        affinity=rng.integers(0, 3, size=(2, 2)).astype(float),
    )
    pairs = {}
    for u, v in itertools.combinations(users, 2):
        if rng.random() < 0.5:
            encounters = int(rng.integers(2, 5))
            co = int(rng.choice([0, encounters, encounters + 1]))
            pairs[(u, v)] = PairStats(encounters=encounters, co_leavings=co)
    social = SocialModel(pairs, model, alpha=1.0, shrinkage=0.0)
    rates = {m: float(rng.integers(0, 4)) for m in members}
    seat = {r: int(rng.integers(n_aps)) for r in residents}
    states = []
    for a in range(n_aps):
        load = float(rng.integers(0, 5))
        if room == "roomy":
            bandwidth = load + sum(rates.values()) + 1.0
        elif room == "tight":
            bandwidth = load + float(rng.integers(0, sum(rates.values()) + 1))
        else:
            bandwidth = load
        users_here = tuple(r for r in residents if seat[r] == a)
        states.append(APState(f"ap{a}", max(bandwidth, 1.0), load, users_here))
    selector = S3Selector(
        social, estimator(rates=rates), SelectionConfig(top_fraction=top_fraction)
    )
    return selector, members, rebuilt(social, states)


class TestPlaceExhaustive:
    """The vectorized clique step decides exactly as the per-distribution
    loop does, ties and bandwidth fall-backs included."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_members=st.integers(min_value=1, max_value=6),
        n_aps=st.integers(min_value=2, max_value=5),
        top_fraction=st.sampled_from([0.1, 0.3, 1.0]),
        affinity=st.sampled_from([0.0, 0.3]),
        regime=st.sampled_from(["roomy", "tight", "exact", "full"]),
    )
    def test_matches_reference_loop(
        self, seed, n_members, n_aps, top_fraction, affinity, regime
    ):
        selector, members, states = random_clique_case(
            seed, n_members, n_aps, top_fraction, affinity, regime
        )
        assert selector._place_exhaustive(members, states) == (
            reference_place_exhaustive(selector, members, states)
        )

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_members=st.integers(min_value=2, max_value=6),
        n_aps=st.integers(min_value=1, max_value=5),
        top_fraction=st.sampled_from([0.05, 0.1, 0.3, 0.5, 1.0]),
        room=st.sampled_from(["roomy", "tight", "none"]),
    )
    @example(seed=3, n_members=5, n_aps=4, top_fraction=0.3, room="none")
    def test_integer_ties_at_the_cut_match_reference_loop(
        self, seed, n_members, n_aps, top_fraction, room
    ):
        selector, members, states = integer_clique_case(
            seed, n_members, n_aps, top_fraction, room
        )
        assert selector._place_exhaustive(members, states) == (
            reference_place_exhaustive(selector, members, states)
        )

    def test_no_feasible_distribution_places_greedily_in_demand_order(self):
        selector, members, states = integer_clique_case(3, 5, 4, 0.3, "none")
        assert any(selector.demand.estimate(m) > 0 for m in members)
        placement = selector._place_exhaustive(members, states)
        assert list(placement.items()) == list(
            selector._place_greedy(members, states, ignore_bandwidth=True).items()
        )
        assert placement == reference_place_exhaustive(selector, members, states)

    @pytest.mark.parametrize("top_fraction", [0.1, 0.3, 1.0])
    def test_equal_cost_ties_at_the_cut(self, top_fraction):
        # Zero-affinity strangers: every distribution costs 0.0, so the
        # cut falls inside one tie and the balance index alone decides.
        members = ["s0", "s1", "s2", "s3"]
        selector = S3Selector(
            make_social(affinity=0.0),
            estimator(rates={m: 10.0 for m in members}),
            SelectionConfig(top_fraction=top_fraction),
        )
        states = rebuilt(
            selector.social,
            aps(
                ("a", 1000, 0.0, ["x"]),
                ("b", 1000, 10.0, []),
                ("c", 1000, 20.0, ["y", "z"]),
            ),
        )
        placement = selector._place_exhaustive(members, states)
        assert placement == reference_place_exhaustive(selector, members, states)

    def test_enumeration_cap_is_inclusive(self, monkeypatch):
        members = ["p", "q", "r"]
        pairs = {(a, b): (9, 9) for a, b in itertools.combinations(members, 2)}
        states = aps(("a", 1000, 0.0, []), ("b", 1000, 5.0, []))
        selector = S3Selector(
            make_social(pairs=pairs),
            estimator(),
            SelectionConfig(max_enumeration=len(states) ** len(members)),
        )
        states = rebuilt(selector.social, states)

        def forbidden(path):
            def fail(*args, **kwargs):
                raise AssertionError(f"{path} path taken")

            return fail

        monkeypatch.setattr(selector, "_place_greedy", forbidden("greedy"))
        assert selector._place_clique(members, states) == (
            reference_place_exhaustive(selector, members, states)
        )
        one_over = S3Selector(
            selector.social,
            selector.demand,
            SelectionConfig(max_enumeration=len(states) ** len(members) - 1),
        )
        monkeypatch.setattr(one_over, "_place_exhaustive", forbidden("exhaustive"))
        assert sorted(one_over._place_clique(members, states)) == members


class TestClosedFormBalance:
    """The exhaustive clique step ranks distributions by the sum of their
    squared loads after; every distribution adds the same total load, so
    that is the normalized Jain ranking, reversed."""

    @settings(max_examples=200, deadline=None)
    @given(
        loads=st.lists(
            st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=6
        ),
        shares=st.lists(
            st.lists(st.integers(min_value=0, max_value=10), min_size=6, max_size=6),
            min_size=2,
            max_size=6,
        ),
        total=st.floats(min_value=0.0, max_value=1e6),
    )
    # Subnormal loads: raw squares flush to 0.0 and would tie these two.
    @example(
        loads=[0.0, 0.0],
        shares=[[1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]],
        total=2.225073858507e-311,
    )
    def test_sum_of_squares_ranks_as_normalized_jain(self, loads, shares, total):
        # Each candidate spreads the same ``total`` over the APs by its
        # integer weights (all on the first AP when they are all zero).
        # The key is the one the clique step ranks by.
        afters = []
        for weights in shares:
            weights = weights[: len(loads)]
            if not any(weights):
                weights[0] = 1
            mass = sum(weights)
            added = [total * w / mass for w in weights]
            afters.append([load + extra for load, extra in zip(loads, added)])
        candidates = zip(
            balance_squares(np.array(afters)),
            [normalized_balance_index(after) for after in afters],
        )
        for (squares_a, jain_a), (squares_b, jain_b) in itertools.combinations(
            candidates, 2
        ):
            if abs(jain_a - jain_b) > 1e-12:
                assert (squares_a < squares_b) == (jain_a > jain_b)


class TestRankSingleton:
    """The band pick reads user counts only on load ties and stops at a
    band of one; its answer is the literal reading's, ties included."""

    @settings(max_examples=400, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d", "e", "f"]),
                st.sampled_from([0.0, 1.0, 2.0, 2.5]),  # load
                st.sampled_from([1.0, 2.5, 3.0, 100.0]),  # bandwidth
                st.integers(0, 3),  # residents
                st.sampled_from([0.0, 0.1, 0.25, 0.5]),  # cost
            ),
            min_size=1,
            max_size=8,
        ),
        top_fraction=st.one_of(
            st.sampled_from([1e-9, 0.3, 0.5, 1.0]),
            st.floats(min_value=1e-6, max_value=1.0),
        ),
        rate=st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0, 50.0])),
    )
    def test_matches_the_literal_reading(self, entries, top_fraction, rate):
        states = [
            APState(ap_id, bandwidth, load, tuple(f"r{i}.{j}" for j in range(users)))
            for i, (ap_id, load, bandwidth, users, _) in enumerate(entries)
        ]
        costs = [cost for *_, cost in entries]
        assert rank_singleton(states, costs, top_fraction, rate) == (
            literal_rank_singleton(states, costs, top_fraction, rate)
        )


class TestSelectionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SelectionConfig(top_fraction=0.0)
        with pytest.raises(ValueError):
            SelectionConfig(top_fraction=1.5)
        with pytest.raises(ValueError):
            SelectionConfig(max_enumeration=0)
        with pytest.raises(ValueError):
            SelectionConfig(edge_threshold=-0.2)
