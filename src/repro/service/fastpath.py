"""The service's association fast path: one cost row per arrival.

:meth:`repro.core.selection.S3Selector.select` recomputes the added
social cost of an arrival against every resident of every AP — an
O(APs x residents) walk that is fine for batch replay but not for a
service gated at ten thousand decisions per second.  The
:class:`FastAssociator` keeps the aggregates that walk recomputes and
scores every AP in one pass per arrival (``_costs``, the row both
:meth:`~FastAssociator.select` and
:meth:`~FastAssociator.score_candidates` read):

* **type half** — per AP, a **type-count vector** (k+1 integers, the
  unknown bucket last) and, from it, a cached ``alpha * type_sum`` for
  every arrival type code.  A join or leave recomputes the cache of the
  one AP it touched; an arrival's row starts as a copy of the cached
  list for its code;
* **conditional half** — one walk over the arrival's
  :meth:`~repro.core.social.SocialModel.conditional_partners` (the
  bidirectional adjacency the incremental social updates patch in
  place), looking each partner's AP up in the association map and
  adding the partner's term to that AP's entry only.

Per arrival that is O(APs + partners), not O(APs x partners).

**Pinned summation order.**  Every cost is the float the per-AP walk
(kept as the oracle in ``tests/test_service_fastpath.py``) computes,
bit for bit:

* ``type_sum`` starts at 0.0 and adds ``affinity[arrival][code] *
  count`` in code order, skipping zero counts; the AP's type term is
  ``alpha * type_sum``;
* the conditional sum starts at 0.0 and adds the AP's partner terms in
  **partner order** when the arrival has no more partners than the AP
  has residents, else in **resident join order** (a per-user join stamp
  set by :meth:`~FastAssociator.apply_join`).  A sum of at most two
  terms starting at 0.0 does not depend on order, so only buckets of
  three or more terms are sorted;
* the cost is the type term plus the conditional sum, one addition.
  The cached type term is stored as ``alpha * type_sum + 0.0``, which is
  exactly the cost of an AP without partner terms and leaves the
  addition for an AP with them unchanged.

Ranking then mirrors Algorithm 1's singleton form *exactly*: feasible
APs by bandwidth, sort by ``(cost, load, ap_id)``, keep the cheapest
30%, re-rank by predicted balance index.  The decisions match
:class:`~repro.core.selection.S3Selector` whenever costs are not within
float-roundoff of a tie (the aggregated type half associates
differently than the per-resident walk); the fast path is the service's
*own* deterministic s3 arm, proven choice-equivalent on non-degenerate
scenarios by ``tests/test_service_fastpath.py``.

Resident types are counted as of association time: a user retyped by
:meth:`~repro.core.social.SocialModel.assign_user_type` *while
associated* keeps their old bucket until they re-associate.  The
controller's online learner never retypes mid-association, so the two
views coincide in every service configuration shipped here.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.demand import DemandEstimator
from repro.core.selection import APState
from repro.core.social import SocialModel


class ApRuntime:
    """Mutable per-AP state the service steers: load, residents, types."""

    __slots__ = ("ap_id", "bandwidth", "load", "users", "type_counts")

    def __init__(
        self, ap_id: str, bandwidth: float, type_buckets: int
    ) -> None:
        if bandwidth <= 0:
            raise ValueError(f"AP {ap_id}: non-positive bandwidth")
        if type_buckets < 1:
            raise ValueError(f"AP {ap_id}: need at least one type bucket")
        self.ap_id = ap_id
        self.bandwidth = bandwidth
        self.load = 0.0
        #: user -> (admitted rate, type code at association time).
        self.users: Dict[str, Tuple[float, int]] = {}
        #: Residents per type code, the unknown bucket last.
        self.type_counts: List[int] = [0] * type_buckets

    @property
    def user_count(self) -> int:
        return len(self.users)

    def snapshot(self) -> APState:
        """An immutable :class:`APState` view (provenance, parity tests)."""
        return APState(
            ap_id=self.ap_id,
            bandwidth=self.bandwidth,
            load=self.load,
            users=tuple(self.users),
        )


class FastAssociator:
    """Incremental social-cost index over live AP state."""

    def __init__(
        self,
        social: SocialModel,
        demand: DemandEstimator,
        aps: Sequence[ApRuntime],
        top_fraction: float = 0.3,
    ) -> None:
        if not aps:
            raise ValueError("no APs configured")
        if not 0.0 < top_fraction <= 1.0:
            raise ValueError("top_fraction must be in (0, 1]")
        self.social = social
        self.demand = demand
        self.top_fraction = top_fraction
        self.alpha = social.alpha
        self._aps: Dict[str, ApRuntime] = {}
        for ap in aps:
            if ap.ap_id in self._aps:
                raise ValueError(f"duplicate AP id {ap.ap_id!r}")
            self._aps[ap.ap_id] = ap
        #: Deterministic iteration order for ranking and balance vectors.
        self._order: List[str] = sorted(self._aps)
        #: The APs in ``_order``; cost rows are indexed like this list.
        self._ranked: List[ApRuntime] = [self._aps[a] for a in self._order]
        self._index: Dict[str, int] = {
            ap_id: index for index, ap_id in enumerate(self._order)
        }
        #: user -> (AP index, join stamp); stamps order each AP's
        #: residents by join, like ``ApRuntime.users``.
        self._seats: Dict[str, Tuple[int, int]] = {}
        self._joins = 0
        #: The extended affinity as plain float rows — scalar access in
        #: the per-decision loop beats numpy indexing at this size.
        k = social.type_model.k
        affinity = np.asarray(social.type_model.affinity, dtype=np.float64)
        mean = float(affinity.mean())
        self._rows: List[List[float]] = [
            [float(value) for value in affinity[code]] + [mean]
            for code in range(k)
        ]
        self._rows.append([mean] * (k + 1))
        self._unknown_code = k
        #: arrival type code -> per-AP type term (see module docstring).
        self._type_costs: List[List[float]] = [
            [0.0] * len(self._ranked) for _ in self._rows
        ]
        for index in range(len(self._ranked)):
            self._refresh_type_costs(index)

    # ------------------------------------------------------------- queries

    @property
    def ap_ids(self) -> List[str]:
        """AP ids in the deterministic ranking order."""
        return list(self._order)

    def ap(self, ap_id: str) -> ApRuntime:
        return self._aps[ap_id]

    def ap_of(self, user_id: str) -> Optional[str]:
        """The AP ``user_id`` is associated with, if any."""
        seat = self._seats.get(user_id)
        return None if seat is None else self._order[seat[0]]

    def loads(self) -> List[float]:
        """Current loads, in ``ap_ids`` order."""
        return [ap.load for ap in self._ranked]

    def total_users(self) -> int:
        return len(self._seats)

    def snapshots(self) -> List[APState]:
        """Immutable AP snapshots in ranking order."""
        return [ap.snapshot() for ap in self._ranked]

    def _code_of(self, user_id: str) -> int:
        return self.social.type_model.assignments.get(
            user_id, self._unknown_code
        )

    def _refresh_type_costs(self, index: int) -> None:
        """Recompute AP ``index``'s type term for every arrival code."""
        terms = [
            (code, count)
            for code, count in enumerate(self._ranked[index].type_counts)
            if count
        ]
        alpha = self.alpha
        for row, costs in zip(self._rows, self._type_costs):
            type_sum = 0.0
            for code, count in terms:
                type_sum += row[code] * count
            costs[index] = alpha * type_sum + 0.0

    def _costs(self, user_id: str) -> List[float]:
        """The added social cost of ``user_id`` at every AP, in ``_order``.

        Summed in the pinned order of the module docstring, so each
        entry equals the per-AP walk's float exactly.
        """
        costs = list(self._type_costs[self._code_of(user_id)])
        partners = self.social.conditional_partners(user_id)
        if not partners:
            return costs
        seats = self._seats
        buckets: Dict[int, List[Tuple[int, float]]] = {}
        for partner, value in partners.items():
            seat = seats.get(partner)
            if seat is not None and partner != user_id:
                bucket = buckets.get(seat[0])
                if bucket is None:
                    buckets[seat[0]] = [(seat[1], value)]
                else:
                    bucket.append((seat[1], value))
        count = len(partners)
        ranked = self._ranked
        for index, bucket in buckets.items():
            if len(bucket) > 2 and count > len(ranked[index].users):
                bucket.sort()  # resident join order; stamps are unique
            conditional = 0.0
            for _, value in bucket:
                conditional += value
            costs[index] += conditional
        return costs

    def score_candidates(self, user_id: str) -> Dict[str, float]:
        """ap id -> added social cost, for decision provenance."""
        return dict(zip(self._order, self._costs(user_id)))

    # ------------------------------------------------------------ decisions

    def least_loaded(self) -> str:
        """LLF over live state: the shed path's choice."""
        return min(
            self._ranked,
            key=lambda ap: (ap.load, ap.user_count, ap.ap_id),
        ).ap_id

    def select(self, user_id: str) -> str:
        """Algorithm 1 for a singleton clique, against live state.

        Same ranking as ``S3Selector.select``: feasible APs sorted by
        ``(added cost, load, ap_id)``, the cheapest ``top_fraction``
        re-ranked by predicted balance — here reduced to its closed
        form (see inline note).  Infeasible everywhere still admits at
        the least-loaded AP.
        """
        rate = self.demand.estimate(user_id)
        feasible = [
            (index, ap)
            for index, ap in enumerate(self._ranked)
            if ap.load + rate <= ap.bandwidth
        ]
        if not feasible:
            return self.least_loaded()
        costs = self._costs(user_id)
        # ap_id is unique, so the tuples never compare their last field.
        ranked = sorted(
            [(costs[index], ap.load, ap.ap_id, ap) for index, ap in feasible]
        )
        keep = max(1, int(math.ceil(len(ranked) * self.top_fraction)))
        top = [entry[3] for entry in ranked[:keep]]
        if len(top) == 1:
            return top[0].ap_id
        # Balance re-rank, solved in closed form.  Admitting one rate r
        # at candidate c leaves the total load sum(L) + r identical for
        # every candidate and changes the sum of squares by
        # 2*r*L_c + r^2, so Jain's index after admission is strictly
        # monotone *decreasing* in the candidate's current load L_c:
        # maximizing balance-after is exactly minimizing L_c.  The
        # selector's tie-break chain (load, user_count, ap_id) is
        # preserved verbatim.
        return min(
            top, key=lambda ap: (ap.load, ap.user_count, ap.ap_id)
        ).ap_id

    # ------------------------------------------------------- state updates

    def apply_join(self, user_id: str, ap_id: str) -> float:
        """Associate ``user_id`` with ``ap_id``; returns the admitted rate."""
        if user_id in self._seats:
            raise ValueError(f"user {user_id!r} is already associated")
        ap = self._aps[ap_id]
        rate = self.demand.estimate(user_id)
        code = self._code_of(user_id)
        ap.users[user_id] = (rate, code)
        ap.type_counts[code] += 1
        ap.load += rate
        index = self._index[ap_id]
        self._joins += 1
        self._seats[user_id] = (index, self._joins)
        self._refresh_type_costs(index)
        return rate

    def apply_leave(self, user_id: str) -> Optional[str]:
        """Disassociate ``user_id``; returns the AP left, if any."""
        seat = self._seats.pop(user_id, None)
        if seat is None:
            return None
        index = seat[0]
        ap = self._ranked[index]
        rate, code = ap.users.pop(user_id)
        ap.type_counts[code] -= 1
        ap.load -= rate
        if ap.load < 0 and ap.load > -1e-9:
            ap.load = 0.0
        self._refresh_type_costs(index)
        return ap.ap_id
