"""The service's association fast path: Algorithm 1 over live AP state.

The controller service decides with the one S³ kernel of
:mod:`repro.core.selection` over the one association state of
:mod:`repro.wlan.entities`: :class:`FastAssociator` keeps its APs in a
:class:`~repro.wlan.entities.ControllerRuntime`, whose live
:class:`~repro.core.selection.CostIndex` seats every join and unseats
every leave, as a replay domain's does.  A join or leave recomputes the
cached type terms of the one AP it touched (from the index's memo keyed
by that AP's type-count vector), and an arrival's row is a copy of the
terms for its code plus one walk over its
:meth:`~repro.core.social.SocialModel.conditional_partners`: O(APs +
partners), not O(APs x residents).  The online learner patches that
adjacency in place, so the next row reads every pair a departure taught.

Loads are exact sums of the residents' rates, as in replay, and the rank
is :func:`~repro.core.selection.rank_singleton`, so
``FastAssociator.select(u)`` equals ``S3Selector.select(u,
associator.snapshots())`` and the per-resident oracle on every arrival,
exact ties included (``tests/test_service_fastpath.py``).

Resident types are counted as of association time: a user retyped by
:meth:`~repro.core.social.SocialModel.assign_user_type` *while
associated* keeps their old bucket until they re-associate.  The
controller's online learner never retypes mid-association, so the two
views coincide in every service configuration shipped here.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.demand import DemandEstimator
from repro.core.selection import (
    Candidates,
    CostIndex,
    SelectionConfig,
    least_loaded,
    rank_singleton,
)
from repro.core.social import SocialModel
from repro.obs.records import Candidate
from repro.wlan.entities import APRuntime, ControllerRuntime


class FastAssociator:
    """Algorithm 1's singleton step over one live controller domain."""

    def __init__(
        self,
        social: SocialModel,
        demand: DemandEstimator,
        aps: Sequence[APRuntime],
    ) -> None:
        self.social = social
        self.demand = demand
        self.config = SelectionConfig()
        self.controller = ControllerRuntime("service", list(aps), social)
        index = self.controller.index
        assert index is not None  # the domain is built with a social model
        self._index: CostIndex = index

    # ------------------------------------------------------------- queries

    @property
    def ap_ids(self) -> List[str]:
        """AP ids in the deterministic ranking order."""
        return self.controller.ap_ids

    def ap(self, ap_id: str) -> APRuntime:
        return self.controller.aps[ap_id]

    def ap_of(self, user_id: str) -> Optional[str]:
        """The AP ``user_id`` is associated with, if any."""
        return self.controller.find_user(user_id)

    def type_counts(self, ap_id: str) -> List[int]:
        """Residents of ``ap_id`` per type code, the unknown code last."""
        return self._index.type_counts(self.controller.ap_ids.index(ap_id))

    def loads(self) -> List[float]:
        """Current loads, in ``ap_ids`` order."""
        return self.controller.loads()

    def total_users(self) -> int:
        return self.controller.total_users()

    def snapshots(self) -> Candidates:
        """Immutable AP snapshots (true loads) in ranking order."""
        return self.controller.snapshots(measured=False)

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
        return tuple([
            Candidate(ap.ap_id, float(ap.load), ap.user_count, float(cost))
            for ap, cost in zip(self.controller.ranked, costs)
        ])

    # ------------------------------------------------------------ decisions

    def least_loaded(self) -> str:
        """LLF over live state: the shed path's choice."""
        return least_loaded(self.controller.ranked).ap_id

    def select(self, user_id: str) -> str:
        """Algorithm 1 for a singleton clique, against live state.

        Infeasible everywhere still admits at the least-loaded AP.
        """
        return self.decide(user_id)[0]

    def decide(self, user_id: str) -> Tuple[str, List[float]]:
        """:meth:`select`'s choice plus the cost row it ranked."""
        ranked = self.controller.ranked
        costs = self._index.row(user_id)
        choice = rank_singleton(
            ranked,
            costs,
            self.config.top_fraction,
            self.demand.estimate(user_id),
        )
        if choice is None:
            return self.least_loaded(), costs
        return ranked[choice].ap_id, costs

    # ------------------------------------------------------- state updates

    def apply_join(self, user_id: str, ap_id: str) -> float:
        """Associate ``user_id`` with ``ap_id``; returns the admitted rate."""
        rate = self.demand.estimate(user_id)
        self.controller.aps[ap_id].associate(user_id, rate)
        return rate

    def apply_leave(self, user_id: str) -> Optional[str]:
        """Disassociate ``user_id``; returns the AP left, if any."""
        return self.controller.leave(user_id)
