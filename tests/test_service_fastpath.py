"""The incremental fast path against its oracles.

Two contracts (``repro/service/fastpath.py``):

* on scenarios where no two APs tie within float roundoff,
  :meth:`FastAssociator.select` picks the same AP as
  :meth:`S3Selector.select` over equivalent snapshots — the aggregated
  type-count cost and the closed-form balance re-rank change the
  arithmetic, not the ranking;
* the one-row-per-arrival cost is *bit-identical* to the per-AP
  ``added_cost`` walk it replaced, kept below as an oracle
  (:func:`oracle_added_cost`, :func:`oracle_select`), over any stream of
  joins, leaves, learned events, retypes and demand updates.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.churn import make_pair
from repro.core.demand import DemandEstimator
from repro.core.selection import APState, S3Selector
from repro.core.social import PairStats, SocialModel
from repro.core.typing import TypeModel
from repro.service.fastpath import ApRuntime, FastAssociator


def _social_model(users: List[str], seed: int, k: int = 3) -> SocialModel:
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.05, 0.9, size=(k, k))
    affinity = (base + base.T) / 2.0
    assignments = {
        user: int(rng.integers(k))
        for user in users
        if rng.random() < 0.8
    }
    pairs: Dict[Tuple[str, str], PairStats] = {}
    for _ in range(len(users) * 2):
        a, b = rng.choice(len(users), size=2, replace=False)
        pair = make_pair(users[a], users[b])
        old = pairs.get(pair, PairStats(0, 0))
        pairs[pair] = PairStats(
            old.encounters + int(rng.integers(1, 6)),
            old.co_leavings + int(rng.integers(0, 4)),
        )
    return SocialModel(pairs, TypeModel(np.zeros((k, 6)), assignments, affinity))


def _demand(users: List[str], seed: int) -> DemandEstimator:
    rng = np.random.default_rng(seed + 1000)
    demand = DemandEstimator()
    for user in users:
        demand.observe(user, float(rng.uniform(20e3, 400e3)))
    return demand


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_select_matches_s3_selector_over_churn(seed: int) -> None:
    """Replay joins/leaves; every decision must match the reference."""
    users = [f"u{i:02d}" for i in range(40)]
    social = _social_model(users, seed)
    demand = _demand(users, seed)
    aps = [ApRuntime(f"ap{i}", bandwidth=1.5e6, type_buckets=4) for i in range(6)]
    # Distinct baseline loads (management traffic) keep the scenario off
    # exact ties, where the reference itself ranks by float summation
    # noise — the degenerate case the parity contract excludes.
    for i, ap in enumerate(aps):
        ap.load = 997.0 * (i + 1) + 131.0 * i
    fast = FastAssociator(social, demand, aps)
    selector = S3Selector(social, demand)

    rng = np.random.default_rng(seed + 7)
    absent, present = list(users), []
    decisions = 0
    for _ in range(300):
        if absent and (not present or rng.random() < 0.55):
            user = absent.pop(int(rng.integers(len(absent))))
            reference = selector.select(user, fast.snapshots())
            chosen = fast.select(user)
            assert chosen == reference, f"user {user} diverged"
            fast.apply_join(user, chosen)
            present.append(user)
            decisions += 1
        else:
            user = present.pop(int(rng.integers(len(present))))
            assert fast.apply_leave(user) is not None
            absent.append(user)
    assert decisions > 100


def test_infeasible_everywhere_admits_least_loaded() -> None:
    users = ["a", "b", "c"]
    social = _social_model(users, seed=9)
    demand = DemandEstimator(default_rate=10e6)  # outstrips every AP
    aps = [ApRuntime(f"ap{i}", bandwidth=1e6, type_buckets=4) for i in range(3)]
    fast = FastAssociator(social, demand, aps)
    fast.ap("ap0").load = 5e5
    fast.ap("ap1").load = 1e5
    fast.ap("ap2").load = 3e5
    assert fast.select("a") == "ap1"
    assert fast.select("a") == fast.least_loaded()


def test_join_leave_bookkeeping_round_trips() -> None:
    users = [f"u{i}" for i in range(8)]
    social = _social_model(users, seed=4)
    demand = _demand(users, seed=4)
    aps = [ApRuntime(f"ap{i}", bandwidth=1e7, type_buckets=4) for i in range(3)]
    fast = FastAssociator(social, demand, aps)

    rates = {}
    for user in users:
        ap_id = fast.select(user)
        rates[user] = fast.apply_join(user, ap_id)
        assert fast.ap_of(user) == ap_id
    assert fast.total_users() == len(users)
    for ap_id in fast.ap_ids:
        ap = fast.ap(ap_id)
        assert sum(ap.type_counts) == ap.user_count
        assert ap.load == pytest.approx(
            sum(rates[u] for u in ap.users), rel=1e-12
        )
    for user in users:
        assert fast.apply_leave(user) is not None
    assert fast.total_users() == 0
    for ap_id in fast.ap_ids:
        ap = fast.ap(ap_id)
        assert ap.load == pytest.approx(0.0, abs=1e-6)
        assert ap.type_counts == [0, 0, 0, 0]
    assert fast.apply_leave("u0") is None


def test_double_join_rejected() -> None:
    users = ["a", "b"]
    social = _social_model(users, seed=5)
    fast = FastAssociator(
        social, _demand(users, 5), [ApRuntime("ap0", 1e7, 4)]
    )
    fast.apply_join("a", "ap0")
    with pytest.raises(ValueError, match="already associated"):
        fast.apply_join("a", "ap0")


def test_snapshot_type_counts_frozen_at_join_time() -> None:
    """Retyping an associated user must not corrupt the count vector."""
    users = ["a", "b", "c", "d"]
    social = _social_model(users, seed=6)
    fast = FastAssociator(
        social, _demand(users, 6), [ApRuntime("ap0", 1e7, 4)]
    )
    for user in users:
        fast.apply_join(user, "ap0")
    before = list(fast.ap("ap0").type_counts)
    social.assign_user_type("a", (social.type_model.assignments.get("a", 0) + 1) % 3)
    # Counts unchanged until "a" re-associates under the new code.
    assert fast.ap("ap0").type_counts == before
    fast.apply_leave("a")
    fast.apply_join("a", "ap0")
    ap = fast.ap("ap0")
    assert sum(ap.type_counts) == ap.user_count == 4


def test_constructor_validation() -> None:
    users = ["a", "b"]
    social = _social_model(users, seed=8)
    demand = _demand(users, 8)
    with pytest.raises(ValueError, match="no APs"):
        FastAssociator(social, demand, [])
    with pytest.raises(ValueError, match="duplicate AP"):
        FastAssociator(
            social, demand, [ApRuntime("x", 1e6, 4), ApRuntime("x", 1e6, 4)]
        )
    with pytest.raises(ValueError, match="bandwidth"):
        ApRuntime("x", 0.0, 4)
    with pytest.raises(ValueError, match="top_fraction"):
        FastAssociator(social, demand, [ApRuntime("x", 1e6, 4)], top_fraction=0.0)


# ------------------------------------------------------------ the oracle


def oracle_added_cost(fast: FastAssociator, user_id: str, ap: ApRuntime) -> float:
    """The per-AP walk the cost row replaced, kept as the oracle.

    Type half from the AP's count vector; conditional half over
    whichever of the arrival's partners and the AP's residents is
    smaller, in that side's order.
    """
    row = fast._rows[fast._code_of(user_id)]
    type_sum = 0.0
    for code, count in enumerate(ap.type_counts):
        if count:
            type_sum += row[code] * count
    conditional = 0.0
    partners = fast.social.conditional_partners(user_id)
    if partners:
        residents = ap.users
        if len(partners) <= len(residents):
            for partner, value in partners.items():
                if partner in residents and partner != user_id:
                    conditional += value
        else:
            for resident in residents:
                if resident != user_id:
                    value = partners.get(resident)
                    if value is not None:
                        conditional += value
    return fast.alpha * type_sum + conditional


def oracle_scores(fast: FastAssociator, user_id: str) -> Dict[str, float]:
    return {
        ap_id: oracle_added_cost(fast, user_id, fast.ap(ap_id))
        for ap_id in fast.ap_ids
    }


def oracle_select(fast: FastAssociator, user_id: str) -> str:
    """Algorithm 1's singleton form, ranked by :func:`oracle_added_cost`."""
    rate = fast.demand.estimate(user_id)
    feasible = [
        ap
        for ap in (fast.ap(ap_id) for ap_id in fast.ap_ids)
        if ap.load + rate <= ap.bandwidth
    ]
    if not feasible:
        return fast.least_loaded()
    ranked = sorted(
        feasible,
        key=lambda ap: (oracle_added_cost(fast, user_id, ap), ap.load, ap.ap_id),
    )
    keep = max(1, int(math.ceil(len(ranked) * fast.top_fraction)))
    top = ranked[:keep]
    if len(top) == 1:
        return top[0].ap_id
    return min(top, key=lambda ap: (ap.load, ap.user_count, ap.ap_id)).ap_id


def random_stream_case(
    seed: int, n_users: int, n_aps: int, regime: str
) -> Tuple[FastAssociator, List[Tuple]]:
    """An associator and an operation stream drawn from ``seed``.

    Pairs are dense (about half of all pairs, one encounter suffices),
    so partner sets both larger and smaller than an AP's resident set
    occur, with three or more partners on one AP.  A quarter of users
    have no type.  ``regime`` sets the bandwidth: ``"roomy"`` admits
    everyone, ``"tight"`` fills up, ``"full"`` fits no one.
    """
    rng = np.random.default_rng(seed)
    users = [f"u{i:02d}" for i in range(n_users)]
    k = 3
    base = rng.uniform(0.05, 0.9, size=(k, k))
    assignments = {
        user: int(rng.integers(k)) for user in users if rng.random() < 0.75
    }
    pairs: Dict[Tuple[str, str], PairStats] = {}
    for a, b in itertools.combinations(users, 2):
        if rng.random() < 0.5:
            encounters = int(rng.integers(1, 10))
            pairs[make_pair(a, b)] = PairStats(
                encounters, int(rng.integers(0, encounters + 2))
            )
    social = SocialModel(
        pairs,
        TypeModel(np.zeros((k, 6)), assignments, (base + base.T) / 2.0),
        min_encounters=1,
    )
    demand = DemandEstimator()
    for user in users:
        if rng.random() < 0.8:
            demand.observe(user, float(rng.uniform(20e3, 400e3)))
    bandwidth = {"roomy": 1e9, "tight": 8e5, "full": 1e3}[regime]
    aps = [ApRuntime(f"ap{i}", bandwidth, k + 1) for i in range(n_aps)]
    top_fraction = float(rng.choice([0.3, 0.5, 1.0]))
    fast = FastAssociator(social, demand, aps, top_fraction=top_fraction)

    ops: List[Tuple] = []
    for _ in range(160):
        roll = rng.random()
        user = users[int(rng.integers(n_users))]
        if roll < 0.45:
            ops.append(("join", user))
        elif roll < 0.7:
            ops.append(("leave", user))
        elif roll < 0.85:
            other = users[int(rng.integers(n_users))]
            ops.append(
                ("events", user, other, int(rng.integers(0, 4)), int(rng.integers(0, 3)))
            )
        elif roll < 0.93:
            ops.append(("retype", user, int(rng.integers(k))))
        else:
            ops.append(("demand", user, float(rng.choice([0.0, 5e4, 3e5, 2e6]))))
    return fast, ops


def run_against_oracle(fast: FastAssociator, ops: List[Tuple]) -> Set[str]:
    """Apply ``ops``; on every arrival the fast path must equal the oracle.

    Returns the labels of the cases the stream exercised.
    """
    seen: Set[str] = set()
    social = fast.social
    for op in ops:
        kind, user = op[0], op[1]
        if kind == "join":
            if fast.ap_of(user) is not None:
                continue
            seen.update(_cases(fast, user))
            assert fast.score_candidates(user) == oracle_scores(fast, user)
            chosen = fast.select(user)
            assert chosen == oracle_select(fast, user)
            fast.apply_join(user, chosen)
        elif kind == "leave":
            fast.apply_leave(user)
        elif kind == "events":
            if user != op[2]:
                social.record_events(user, op[2], encounters=op[3], co_leavings=op[4])
        elif kind == "retype":
            if fast.ap_of(user) is not None:
                seen.add("retyped-resident")
            social.assign_user_type(user, op[2])
        else:
            if op[2] > 0:
                fast.demand.observe(user, op[2])
    return seen


def _cases(fast: FastAssociator, user: str) -> Set[str]:
    """Which oracle-relevant cases arrival ``user`` exercises now."""
    seen = set()
    if user not in fast.social.type_model.assignments:
        seen.add("unknown-type")
    rate = fast.demand.estimate(user)
    if all(ap.load + rate > ap.bandwidth for ap in map(fast.ap, fast.ap_ids)):
        seen.add("infeasible")
    partners = fast.social.conditional_partners(user)
    for ap_id in fast.ap_ids:
        residents = fast.ap(ap_id).users
        if sum(1 for p in partners if p in residents) >= 3:
            if len(partners) > len(residents):
                seen.add("resident-order")
            else:
                seen.add("partner-order")
    return seen


_REGIMES = ("roomy", "tight", "full")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_users=st.integers(min_value=6, max_value=20),
    n_aps=st.integers(min_value=1, max_value=4),
    regime=st.sampled_from(_REGIMES),
)
def test_cost_row_is_bit_identical_to_per_ap_walk(
    seed: int, n_users: int, n_aps: int, regime: str
) -> None:
    fast, ops = random_stream_case(seed, n_users, n_aps, regime)
    run_against_oracle(fast, ops)


def test_oracle_streams_cover_every_case() -> None:
    """The stream generator reaches every case the property relies on."""
    seen: Set[str] = set()
    for seed in range(12):
        for regime in _REGIMES:
            fast, ops = random_stream_case(seed, 6 + seed, 1 + seed % 4, regime)
            seen |= run_against_oracle(fast, ops)
    assert seen >= {
        "resident-order",
        "partner-order",
        "unknown-type",
        "infeasible",
        "retyped-resident",
    }


def _ordered_case(
    partner_order: List[str], extra_partners: int, join_order: List[str]
) -> FastAssociator:
    """``x``'s partners p1..p3 carry 0.1, 0.2 and 0.3 (co/(enc+1)), in
    ``partner_order``, and join ap0 in ``join_order``; ``extra_partners``
    more partners stay away.  Affinity is zero, so a cost is its
    conditional sum alone."""
    counts = {"p1": (9, 1), "p2": (4, 1), "p3": (9, 3)}
    pairs: Dict[Tuple[str, str], PairStats] = {}
    for partner in partner_order:
        pairs[make_pair("x", partner)] = PairStats(*counts[partner])
    for i in range(extra_partners):
        pairs[make_pair("x", f"q{i}")] = PairStats(9, 1)
    k = 2
    social = SocialModel(
        pairs, TypeModel(np.zeros((k, 6)), {}, np.zeros((k, k))), min_encounters=1
    )
    aps = [ApRuntime("ap0", 1e9, k + 1), ApRuntime("ap1", 1e9, k + 1)]
    fast = FastAssociator(social, DemandEstimator(), aps)
    for user in join_order:
        fast.apply_join(user, "ap0")
    return fast


_PARTNER_ORDER_SUM = (0.1 + 0.2) + 0.3
_JOIN_ORDER_SUM = (0.3 + 0.2) + 0.1


def test_order_sensitive_bucket_sums_in_resident_join_order() -> None:
    assert _PARTNER_ORDER_SUM != _JOIN_ORDER_SUM
    # Five partners against three residents: the walk goes by resident.
    fast = _ordered_case(["p1", "p2", "p3"], 2, ["p3", "p2", "p1"])
    assert oracle_added_cost(fast, "x", fast.ap("ap0")) == _JOIN_ORDER_SUM
    assert fast.score_candidates("x") == oracle_scores(fast, "x")


def test_order_sensitive_bucket_sums_in_partner_order() -> None:
    # Three partners against four residents: the walk goes by partner.
    fast = _ordered_case(["p1", "p2", "p3"], 0, ["p3", "p2", "p1", "r"])
    assert oracle_added_cost(fast, "x", fast.ap("ap0")) == _PARTNER_ORDER_SUM
    assert fast.score_candidates("x") == oracle_scores(fast, "x")
