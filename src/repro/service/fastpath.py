"""The service's association fast path: Algorithm 1 over live AP state.

The controller service decides with the one S³ kernel of
:mod:`repro.core.selection` — the same :class:`~repro.core.selection.CostIndex`
cost row and :func:`~repro.core.selection.rank_singleton` closed-form rank
that batch replay reads — but keeps the index *live* instead of rebuilding
it from snapshots per decision.  :class:`FastAssociator` seats every join
in its index and unseats every leave, so each AP's cached type term
(``alpha * type_sum`` per arrival type code) is recomputed only for the
one AP a join or leave touched, and read from the index's memo keyed by
that AP's type-count vector when the vector has been seen before.  An
arrival's cost row is then a copy of the cached terms for its code plus
one walk over its
:meth:`~repro.core.social.SocialModel.conditional_partners`: O(APs +
partners) per arrival, not O(APs x residents).  The service's online
learner patches that adjacency in place, one departure per
:meth:`~repro.core.social.SocialModel.record_departure` fold, so the
next arrival's row reads every pair the departure taught.

Because both paths sum each cost in the kernel's one documented order
(module docstring of :mod:`repro.core.selection`) and rank with the same
function, ``FastAssociator.select(u)`` equals
``S3Selector.select(u, associator.snapshots())`` on every arrival, exact
ties included; ``tests/test_service_fastpath.py`` proves it on every
join/leave interleaving of a small grid and on the TINY replay's session
stream.

Resident types are counted as of association time: a user retyped by
:meth:`~repro.core.social.SocialModel.assign_user_type` *while
associated* keeps their old bucket until they re-associate.  The
controller's online learner never retypes mid-association, so the two
views coincide in every service configuration shipped here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.demand import DemandEstimator
from repro.core.selection import (
    APState,
    CostIndex,
    SelectionConfig,
    least_loaded,
    rank_singleton,
)
from repro.core.social import SocialModel
from repro.obs.records import Candidate


class ApRuntime:
    """Mutable per-AP state the service steers: load and residents."""

    __slots__ = ("ap_id", "bandwidth", "load", "users")

    def __init__(self, ap_id: str, bandwidth: float) -> None:
        if bandwidth <= 0:
            raise ValueError(f"AP {ap_id}: non-positive bandwidth")
        self.ap_id = ap_id
        self.bandwidth = bandwidth
        self.load = 0.0
        #: user -> admitted rate, in join order.
        self.users: Dict[str, float] = {}

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
    """Algorithm 1's singleton step over a live, incrementally kept index."""

    def __init__(
        self,
        social: SocialModel,
        demand: DemandEstimator,
        aps: Sequence[ApRuntime],
    ) -> None:
        if not aps:
            raise ValueError("no APs configured")
        self.social = social
        self.demand = demand
        self.config = SelectionConfig()
        self._aps: Dict[str, ApRuntime] = {}
        for ap in aps:
            if ap.ap_id in self._aps:
                raise ValueError(f"duplicate AP id {ap.ap_id!r}")
            self._aps[ap.ap_id] = ap
        #: Deterministic iteration order for ranking and balance vectors.
        self._order: List[str] = sorted(self._aps)
        #: The APs in ``_order``; index positions and cost rows follow it.
        self._ranked: List[ApRuntime] = [self._aps[a] for a in self._order]
        self._position: Dict[str, int] = {
            ap_id: position for position, ap_id in enumerate(self._order)
        }
        self._index = CostIndex(social, [ap.users for ap in self._ranked])

    # ------------------------------------------------------------- queries

    @property
    def ap_ids(self) -> List[str]:
        """AP ids in the deterministic ranking order."""
        return list(self._order)

    def ap(self, ap_id: str) -> ApRuntime:
        return self._aps[ap_id]

    def ap_of(self, user_id: str) -> Optional[str]:
        """The AP ``user_id`` is associated with, if any."""
        position = self._index.position_of(user_id)
        return None if position is None else self._order[position]

    def type_counts(self, ap_id: str) -> List[int]:
        """Residents of ``ap_id`` per type code, the unknown code last."""
        return self._index.type_counts(self._position[ap_id])

    def loads(self) -> List[float]:
        """Current loads, in ``ap_ids`` order."""
        return [ap.load for ap in self._ranked]

    def total_users(self) -> int:
        return sum(ap.user_count for ap in self._ranked)

    def snapshots(self) -> List[APState]:
        """Immutable AP snapshots in ranking order."""
        return [ap.snapshot() for ap in self._ranked]

    def candidates(
        self, user_id: str, costs: Optional[Sequence[float]] = None
    ) -> Tuple[Candidate, ...]:
        """Decision provenance: every AP in id order, read from live state.

        Each candidate carries the AP's load, resident count and the
        added social cost of ``user_id``.  ``costs`` is the cost row
        :meth:`decide` returned for this user against the current state;
        without it the row is computed.
        """
        if costs is None:
            costs = self._index.row(user_id)
        return tuple(
            Candidate(ap.ap_id, float(ap.load), len(ap.users), float(cost))
            for ap, cost in zip(self._ranked, costs)
        )

    # ------------------------------------------------------------ decisions

    def least_loaded(self) -> str:
        """LLF over live state: the shed path's choice."""
        return least_loaded(self._ranked).ap_id

    def select(self, user_id: str) -> str:
        """Algorithm 1 for a singleton clique, against live state.

        Infeasible everywhere still admits at the least-loaded AP.
        """
        return self.decide(user_id)[0]

    def decide(self, user_id: str) -> Tuple[str, List[float]]:
        """:meth:`select`'s choice plus the cost row it ranked."""
        costs = self._index.row(user_id)
        choice = rank_singleton(
            self._ranked,
            costs,
            self.config.top_fraction,
            self.demand.estimate(user_id),
        )
        if choice is None:
            return self.least_loaded(), costs
        return self._order[choice], costs

    # ------------------------------------------------------- state updates

    def apply_join(self, user_id: str, ap_id: str) -> float:
        """Associate ``user_id`` with ``ap_id``; returns the admitted rate."""
        ap = self._aps[ap_id]
        rate = self.demand.estimate(user_id)
        self._index.join(user_id, self._position[ap_id])
        ap.users[user_id] = rate
        ap.load += rate
        return rate

    def apply_leave(self, user_id: str) -> Optional[str]:
        """Disassociate ``user_id``; returns the AP left, if any."""
        position = self._index.leave(user_id)
        if position is None:
            return None
        ap = self._ranked[position]
        ap.load -= ap.users.pop(user_id)
        if ap.load < 0 and ap.load > -1e-9:
            ap.load = 0.0
        return ap.ap_id
