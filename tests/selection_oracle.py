"""The per-resident S³ walk: the test oracle of the decision kernel.

:class:`repro.core.selection.CostIndex` keeps per-AP type counts and
cached type terms, and :func:`~repro.core.selection.rank_singleton`
ranks in closed form.  These loops are the direct reading of Algorithm 1
(Section IV.B): walk every resident of every AP, re-sum every
distribution, and re-score each one's balance.  Sums follow the kernel's
documented order, so the parity tests compare with ``==``:

* the type term ``alpha * type_sum``, ``type_sum`` adding
  ``T(arrival, code) * count`` in type-code order from 0.0, empty codes
  skipped, the unknown code (mean affinity) last;
* then each conditional term P(L|E) of a resident partner, in
  :meth:`~repro.core.social.SocialModel.conditional_partners` order.

:func:`rebuilt` is the snapshot rebuild the live domain index replaced:
the candidates of a set of snapshots with a :class:`CostIndex` built from
their residents.  Tests hand it to the selector where a product caller
hands it a controller domain's live candidates.

Parameters are assumed valid.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.selection import APState, Candidates, CostIndex, S3Selector
from repro.core.social import SocialModel


def rebuilt(social: SocialModel, states: Sequence[APState]) -> Candidates:
    """``states`` as candidates over an index rebuilt from their users."""
    return Candidates(states, CostIndex(social, [state.users for state in states]))


def _affinity(social: SocialModel, code_a: int, code_b: int) -> float:
    """``T(a, b)`` from the fitted table; the mean when either is unknown."""
    model = social.type_model
    if code_a == model.k or code_b == model.k:
        return float(model.affinity.mean())
    return float(model.affinity[code_a, code_b])


def oracle_added_cost(
    social: SocialModel,
    user_id: str,
    residents: Sequence[str],
    codes: Optional[Mapping[str, int]] = None,
) -> float:
    """C(AP) of ``user_id`` joining ``residents``, one resident at a time.

    ``codes`` gives each resident's type code as seated (the service
    counts a resident under the type they joined with); by default every
    resident's current type.
    """
    model = social.type_model
    unknown = model.k

    def code_of(user: str) -> int:
        if codes is not None and user in codes:
            return codes[user]
        return model.assignments.get(user, unknown)

    others = [resident for resident in residents if resident != user_id]
    arrival = model.assignments.get(user_id, unknown)
    type_sum = 0.0
    for code in range(unknown + 1):
        count = 0
        for resident in others:
            if code_of(resident) == code:
                count += 1
        if count:
            type_sum += _affinity(social, arrival, code) * count
    cost = social.alpha * type_sum
    for partner in social.conditional_partners(user_id):
        if partner in others:
            cost += social.conditional_term(user_id, partner)
    return cost


def oracle_select(
    selector: S3Selector,
    user_id: str,
    aps: Sequence,
    codes: Optional[Mapping[str, int]] = None,
) -> str:
    """Algorithm 1's singleton form ranked by :func:`oracle_added_cost`.

    ``aps`` are :class:`~repro.core.selection.APState` snapshots.  The
    balance re-rank is the closed form's statement: least current load,
    then user count, then id.
    """
    rate = selector.demand.estimate(user_id)
    feasible = [ap for ap in aps if ap.load + rate <= ap.bandwidth]
    if not feasible:
        return min(aps, key=lambda ap: (ap.load, ap.user_count, ap.ap_id)).ap_id
    ranked = sorted(
        feasible,
        key=lambda ap: (
            oracle_added_cost(selector.social, user_id, ap.users, codes),
            ap.load,
            ap.ap_id,
        ),
    )
    keep = max(1, int(math.ceil(len(ranked) * selector.config.top_fraction)))
    top = ranked[:keep]
    return min(top, key=lambda ap: (ap.load, ap.user_count, ap.ap_id)).ap_id


def literal_rank_singleton(
    aps: Sequence, costs: Sequence[float], top_fraction: float, rate=None
) -> Optional[int]:
    """:func:`~repro.core.selection.rank_singleton` as its docstring
    reads: keep the APs with room for ``rate``, sort them by ``(cost,
    load, ap_id)``, keep the cheapest ``max(1, ceil(f * n))`` and take
    the first minimum of ``(load, user_count, ap_id)``; None when no AP
    has room."""
    feasible = [
        i for i, ap in enumerate(aps) if rate is None or ap.load + rate <= ap.bandwidth
    ]
    if not feasible:
        return None
    ranked = sorted(feasible, key=lambda i: (costs[i], aps[i].load, aps[i].ap_id))
    keep = max(1, math.ceil(len(ranked) * top_fraction))
    return min(
        ranked[:keep],
        key=lambda i: (aps[i].load, aps[i].user_count, aps[i].ap_id),
    )


def reference_place_exhaustive(
    selector: S3Selector, members: List[str], aps: Sequence
) -> Dict[str, str]:
    """The per-distribution loop of Algorithm 1's clique step, the oracle
    of :meth:`S3Selector._place_exhaustive`: every distribution re-sums
    its social cost from per-resident walks and is scored by the sum of
    its squared loads after (summed over APs in order from 0.0; equal
    totals make that Jain's ranking, reversed)."""
    rates = [selector.demand.estimate(user) for user in members]
    # delta between clique members, precomputed once.
    internal = {
        (i, j): selector.social.social_index(members[i], members[j])
        for i in range(len(members))
        for j in range(i + 1, len(members))
    }
    scored = []
    for combo in itertools.product(range(len(aps)), repeat=len(members)):
        cost = 0.0
        added_load = [0.0] * len(aps)
        feasible = True
        for i, ap_index in enumerate(combo):
            ap = aps[ap_index]
            cost += oracle_added_cost(selector.social, members[i], ap.users)
            added_load[ap_index] += rates[i]
        for (i, j), delta in internal.items():
            if combo[i] == combo[j]:
                cost += delta
        for ap_index, extra in enumerate(added_load):
            ap = aps[ap_index]
            if extra > 0 and ap.load + extra > ap.bandwidth:
                feasible = False
                break
        if not feasible:
            continue
        squares = 0.0
        for ap_index, ap in enumerate(aps):
            load = ap.load + added_load[ap_index]
            squares += load * load
        scored.append((cost, squares, combo))

    if not scored:
        # Bandwidth rules everything out; admit greedily anyway.
        return selector._place_greedy(members, aps, ignore_bandwidth=True)

    scored.sort(key=lambda item: (item[0], item[1]))
    keep = max(1, int(math.ceil(len(scored) * selector.config.top_fraction)))
    top = scored[:keep]
    best = min(top, key=lambda item: (item[1], item[0], item[2]))
    combo = best[2]
    return {members[i]: aps[ap_index].ap_id for i, ap_index in enumerate(combo)}
