"""Algorithm 1: the S³ AP selection algorithm.

The controller distributes users to APs so that the total social relation
index *within* each AP is minimized — socially tight users, who tend to
co-leave, are spread across APs so their joint departure cannot crater any
single AP's load.  Secondary objective: do not degrade the balance index;
hard constraint: per-AP bandwidth.

For a batch of waiting users the paper's pseudocode is followed exactly:

1. build the graph over waiting users (edges where delta > 0.3);
2. iteratively extract the maximum clique (edge-weight tie-break);
3. for the clique, search the space of user->AP distributions, sort by the
   added social cost  sum_i C(AP_i), keep the top 30% cheapest, and among
   them pick the distribution with the best predicted balance index;
4. update AP state, erase the clique, repeat;

with LLF (least loaded first) as the fall-back when there is no social
information to exploit — empty APs, strangers, ties (Section IV.B: "if
S(AP) is empty or there are multiple candidate APs to choose, we simply
apply LLF").

**One decision kernel.**  Replay, the online and ablation strategies,
the prototype and the controller service
(:class:`repro.service.fastpath.FastAssociator`) all decide through:

* :class:`CostIndex` — the added social cost C(AP) = sum over residents r
  of delta(u, r), one row per arrival, summed in one order: the type
  term ``alpha * type_sum``, ``type_sum`` adding ``T[arrival][code] *
  count`` from 0.0 in type-code order, empty codes skipped (the unknown
  code last); then each partner's P(L|E), in
  :meth:`~repro.core.social.SocialModel.conditional_partners` order, at
  the partner's AP.  The per-resident walk is the test oracle
  (``tests/selection_oracle.py``).  A seat change recomputes its AP's
  type terms from a memo keyed by the AP's type-count vector; each
  entry is the recomputation it replaces, float for float.
* :func:`rank_singleton` — the balance re-rank in closed form: admitting
  rate r at candidate c leaves the total load the same for every
  candidate and adds 2*r*L_c + r^2 to sum(L^2), so Jain's index after
  admission strictly decreases in L_c (and ties when r = 0): best
  balance is least load, with LLF's (load, user count, id) tie-breaks.
  The clique step uses the same fact: every distribution adds the same
  total load, so it ranks by sum(loads_after^2), ascending
  (:func:`balance_squares`).

The algorithm sees a controller domain
(:class:`repro.wlan.entities.ControllerRuntime`) as :class:`Candidates`:
:class:`APState` snapshots carrying the domain's live :class:`CostIndex`,
which it reads and never rebuilds.  Clique placement seats placed members
in the index only until it returns.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.demand import DemandEstimator
from repro.core.social import SocialModel
from repro.graph.clique import clique_cover

@dataclass(frozen=True)
class APState:
    """A snapshot of one AP as the selection algorithm sees it."""

    ap_id: str
    bandwidth: float
    load: float
    users: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.bandwidth > 0:
            raise ValueError(f"AP {self.ap_id}: non-positive or NaN bandwidth")
        if not self.load >= 0:
            raise ValueError(f"AP {self.ap_id}: negative or NaN load")

    @property
    def user_count(self) -> int:
        """Number of currently associated users."""
        return len(self.users)

    def headroom(self) -> float:
        """Remaining bandwidth (bytes/second)."""
        return self.bandwidth - self.load

    def with_user(self, user_id: str, rate: float) -> "APState":
        """The state after associating ``user_id`` at ``rate`` bytes/s."""
        return replace(self, load=self.load + rate, users=self.users + (user_id,))


@dataclass(frozen=True)
class SelectionConfig:
    """Tunables of Algorithm 1, defaulting to the paper's operating point."""

    #: Social-graph edge threshold (Section IV.A).
    edge_threshold: float = 0.3
    #: Fraction of cheapest distributions re-ranked by balance index
    #: (line 6 of the pseudocode: "find the top 30% distribution").
    top_fraction: float = 0.3
    #: Exhaustive enumeration cap; larger cliques fall back to the greedy
    #: placement (the paper's own search is heuristic at this point).
    max_enumeration: int = 20000

    def __post_init__(self) -> None:
        if not 0.0 < self.top_fraction <= 1.0:
            raise ValueError("top_fraction must be in (0, 1]")
        if self.max_enumeration < 1:
            raise ValueError("max_enumeration must be >= 1")
        if self.edge_threshold < 0:
            raise ValueError("edge_threshold must be non-negative")


class _Distributions:
    """The per-shape tables of the exhaustive clique placement.

    The distributions of ``n_members`` users over ``n_aps`` APs are
    numbered in ``itertools.product`` order: member 0's AP is the most
    significant base-``n_aps`` digit and the last member varies fastest,
    so a distribution's number is its lexicographic rank.

    * ``members_in`` — ``(n_members, n_subsets)`` bools: member ``i`` is
      in subset ``s``.  A subset is numbered by its bitmask (bit ``i``:
      member ``i``); with two or more APs every subset occurs, with one
      only the whole clique does, numbered 0.
    * ``cells`` — ``(rows, n_aps)``: the subset each distribution seats
      at each AP, as a flat index ``subset * n_aps + ap`` into an
      ``(n_subsets, n_aps)`` matrix.
    * ``pairs``/``together`` — every member pair ``(i, j)``, ``i < j``,
      in ``itertools.combinations`` order, and its co-location mask: one
      bool per distribution, set where it seats the two at one AP.

    Read-only.  ``max_enumeration`` bounds ``rows``, and with it the
    ``2 ** n_members <= rows`` subsets.
    """

    __slots__ = ("members_in", "cells", "pairs", "together")

    def __init__(self, n_aps: int, n_members: int) -> None:
        grid = np.indices((n_aps,) * n_members).reshape(n_members, -1)
        if n_aps == 1:
            self.members_in = np.ones((n_members, 1), dtype=bool)
            self.cells = np.zeros((1, 1), dtype=np.intp)
        else:
            bits = np.arange(n_members, dtype=np.intp)[:, None]
            self.members_in = (np.arange(1 << n_members) >> bits & 1).astype(bool)
            seated = grid[:, :, None] == np.arange(n_aps)
            subsets = (seated << bits[:, :, None]).sum(axis=0)
            self.cells = subsets * n_aps + np.arange(n_aps)
        self.pairs = list(itertools.combinations(range(n_members), 2))
        self.together = np.empty((len(self.pairs), grid.shape[1]), dtype=bool)
        for together, (i, j) in zip(self.together, self.pairs):
            np.equal(grid[i], grid[j], out=together)
        for table in (self.members_in, self.cells, self.together):
            table.setflags(write=False)


@functools.lru_cache(maxsize=8)
def _distributions(n_aps: int, n_members: int) -> _Distributions:
    """The cached :class:`_Distributions` of one clique shape.

    A replay meets few shapes: PAPER's five-AP domains reach cliques of
    two to six members, 1.1 MB of tables in all.  The cache keeps the 8
    most recent; under the default ``max_enumeration`` one shape's
    tables take at most 2.0 MB (2 APs, 14 members).
    """
    return _Distributions(n_aps, n_members)


class CandidateAP(Protocol):
    """What the rank reads of an AP (an APState or a live APRuntime)."""

    @property
    def ap_id(self) -> str: ...

    @property
    def bandwidth(self) -> float: ...

    @property
    def load(self) -> float: ...

    @property
    def user_count(self) -> int: ...


AP = TypeVar("AP", bound=CandidateAP)


def least_loaded(aps: Sequence[AP]) -> AP:
    """LLF: the AP with the least traffic load (user count, then id as
    deterministic tie-breaks)."""
    if not aps:
        raise ValueError("no candidate APs")
    return min(aps, key=lambda ap: (ap.load, ap.user_count, ap.ap_id))


#: Count vectors a :class:`CostIndex` remembers type terms for; past it
#: the memo starts over, so a long-lived index stays bounded.
_TYPE_TERM_CACHE_SIZE = 1 << 16


def _nonzero(counts: List[int]) -> List[Tuple[int, int]]:
    """The ``(code, count)`` pairs of a type-count vector with a count."""
    return [(code, count) for code, count in enumerate(counts) if count]


class CostIndex:  # repro: noqa[cache-invalidation]
    """C(AP) of an arrival at every AP, in the module docstring's order.

    Positions ``0..n-1`` stand for the caller's APs.  Kept: per-AP
    type-count vectors (k+1 codes), a user -> (position, type code at
    seating) map, and per arrival type code every AP's cached type term,
    recomputed only for the AP a seat change touched — a row costs
    O(APs + partners).  A user sits at one AP at most; an arrival already
    seated is scored against the other residents only.

    The recomputed terms come from ``_type_term_cache``: count vector ->
    the type term of every arrival code at an AP with those counts, each
    entry ``_type_term(code, ...)`` exactly.  The cache needs no
    generation stamp (hence the suppression on this line): an entry is
    a function of its key, the affinity table and ``alpha``, and the
    last two are fixed when the index is built.  It is rebuilt on
    demand, so it is left out of the pickled state.
    """

    def __init__(
        self, social: SocialModel, residents: Sequence[Iterable[str]]
    ) -> None:
        self.social = social
        #: The extended affinity as plain float rows: scalar access in
        #: the per-decision loop beats numpy indexing at this size.
        self._affinity: List[List[float]] = social._extended_affinity().tolist()
        self._unknown_code = social.type_model.k
        self._counts: List[List[int]] = [
            [0] * len(self._affinity) for _ in residents
        ]
        self._seats: Dict[str, Tuple[int, int]] = {}
        #: arrival type code -> that code's type term at every AP.
        self._type_terms: Dict[int, List[float]] = {}
        for position, users in enumerate(residents):
            for user_id in users:
                self._seat(user_id, position)
        self._type_term_cache: Dict[Tuple[int, ...], List[float]] = {}

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        del state["_type_term_cache"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._type_term_cache = {}

    def code_of(self, user_id: str) -> int:
        """``user_id``'s type code now; the unknown code if untyped."""
        return self.social.type_model.assignments.get(
            user_id, self._unknown_code
        )

    def position_of(self, user_id: str) -> Optional[int]:
        """The position ``user_id`` is seated at, if any."""
        seat = self._seats.get(user_id)
        return None if seat is None else seat[0]

    def type_counts(self, position: int) -> List[int]:
        """Residents per type code at ``position``, the unknown code last."""
        return list(self._counts[position])

    def _type_term(self, code: int, terms: List[Tuple[int, int]]) -> float:
        """``alpha * type_sum`` of an arrival of type ``code`` at an AP
        whose non-empty ``(code, count)`` pairs are ``terms``."""
        row = self._affinity[code]
        type_sum = 0.0
        for other, count in terms:
            type_sum += row[other] * count
        return self.social.alpha * type_sum

    def _seat(self, user_id: str, position: int) -> None:
        if user_id in self._seats:
            raise ValueError(f"user {user_id!r} is already associated")
        code = self.code_of(user_id)
        self._seats[user_id] = (position, code)
        self._counts[position][code] += 1

    def _type_column(self, counts: List[int]) -> List[float]:
        """The type term of every arrival code at an AP with ``counts``."""
        key = tuple(counts)
        column = self._type_term_cache.get(key)
        if column is None:
            terms = _nonzero(counts)
            column = [
                self._type_term(code, terms) for code in range(len(counts))
            ]
            if len(self._type_term_cache) >= _TYPE_TERM_CACHE_SIZE:
                self._type_term_cache.clear()
            self._type_term_cache[key] = column
        return column

    def _retotal(self, position: int) -> None:
        column = self._type_column(self._counts[position])
        for code, terms in self._type_terms.items():
            terms[position] = column[code]

    def join(self, user_id: str, position: int) -> None:
        """Seat ``user_id`` at ``position`` under their current type."""
        self._seat(user_id, position)
        self._retotal(position)

    def leave(self, user_id: str) -> Optional[int]:
        """Unseat ``user_id``; returns the position left, if any."""
        seat = self._seats.pop(user_id, None)
        if seat is None:
            return None
        position, code = seat
        self._counts[position][code] -= 1
        self._retotal(position)
        return position

    def row(self, user_id: str) -> List[float]:
        """C(AP) of ``user_id`` at every position."""
        code = self.code_of(user_id)
        terms = self._type_terms.get(code)
        if terms is None:
            terms = [
                self._type_term(code, _nonzero(counts)) for counts in self._counts
            ]
            self._type_terms[code] = terms
        row = list(terms)
        seats = self._seats
        own = seats.get(user_id)
        if own is not None:
            counts = list(self._counts[own[0]])
            counts[own[1]] -= 1
            row[own[0]] = self._type_term(code, _nonzero(counts))
        for partner, value in self.social.conditional_partners(user_id).items():
            seat = seats.get(partner)
            if seat is not None:
                row[seat[0]] += value
        return row


class Candidates(Tuple[APState, ...]):
    """A controller domain's candidate APs: snapshots in AP id order, the
    domain's live :class:`CostIndex` (None if it keeps none) and each
    candidate's position there (APs that are down are left out)."""

    index: Optional[CostIndex]
    positions: Tuple[int, ...]

    def __new__(
        cls,
        states: Iterable[APState],
        index: Optional[CostIndex] = None,
        positions: Optional[Iterable[int]] = None,
    ) -> "Candidates":
        self = super().__new__(cls, states)
        self.index = index
        self.positions = tuple(range(len(self)) if positions is None else positions)
        return self

    def live_index(self) -> CostIndex:
        if self.index is None:
            raise ValueError("the controller domain keeps no cost index")
        return self.index

    def costs(self, user_id: str) -> List[float]:
        """C(AP) of ``user_id`` at each candidate, read from the index."""
        row = self.live_index().row(user_id)
        return row if len(row) == len(self) else [row[p] for p in self.positions]


def rank_singleton(
    aps: Sequence[CandidateAP],
    costs: Sequence[float],
    top_fraction: float,
    rate: Optional[float] = None,
) -> Optional[int]:
    """Algorithm 1 for a singleton clique; the chosen position in ``aps``.

    1. drop the APs where ``load + rate`` exceeds the bandwidth (none when
       ``rate`` is None) — None when that drops every AP;
    2. sort the rest by ``(cost, load, ap_id)``;
    3. keep the cheapest ``ceil(top_fraction * n)``, at least one;
    4. pick the best balance index among them: in closed form (module
       docstring), ``min(load, user_count, ap_id)``, the first in band
       order on a full tie.

    ``costs[i]`` is C(AP) of ``aps[i]``.  A band of one is its own pick;
    a wider band reads an AP's user count only where loads tie.
    """
    ranked = [
        (cost, ap.load, ap.ap_id, position)
        for position, (ap, cost) in enumerate(zip(aps, costs))
        if rate is None or ap.load + rate <= ap.bandwidth
    ]
    ranked.sort()
    if not ranked:
        return None
    keep = max(1, math.ceil(len(ranked) * top_fraction))
    best = ranked[0]
    if keep == 1:
        return best[3]
    _, best_load, best_id, best_position = best
    best_count = -1  # read on the first load tie
    for _, load, ap_id, position in ranked[1:keep]:
        if load > best_load:
            continue
        if load < best_load:
            best_load, best_id, best_position = load, ap_id, position
            best_count = -1
            continue
        if best_count < 0:
            best_count = aps[best_position].user_count
        count = aps[position].user_count
        if count < best_count or (count == best_count and ap_id < best_id):
            best_id, best_position, best_count = ap_id, position, count
    return best_position


def balance_squares(loads_after: np.ndarray) -> np.ndarray:
    """The clique step's balance key: sum of squared loads of every row.

    ``loads_after`` is a ``(D, n)`` matrix, one distribution a row; lower
    is better balanced.  The matrix is first scaled by the power of two
    that brings its peak into [0.5, 1).  That scaling is exact, so at
    normal magnitudes every key is the raw key times one common power of
    two and the ranking is the raw ranking, ties included; it keeps the
    squares of tiny (subnormal) loads from flushing to 0.0 and tying
    distributions whose Jain index differs.  Columns are summed in AP
    order from 0.0.
    """
    peak = loads_after.max(initial=0.0)
    if peak > 0:
        loads_after = np.ldexp(loads_after, -int(np.frexp(peak)[1]))
    squares = np.zeros(len(loads_after))
    for column in np.square(loads_after).T:
        squares += column
    return squares


class S3Selector:
    """The trained S³ decision engine."""

    def __init__(
        self,
        social: SocialModel,
        demand: DemandEstimator,
        config: Optional[SelectionConfig] = None,
    ) -> None:
        self.social = social
        self.demand = demand
        self.config = config if config is not None else SelectionConfig()

    def cost_row(self, user_id: str, aps: Candidates) -> List[float]:
        """C(AP) of adding ``user_id`` to each of ``aps``."""
        return aps.costs(user_id)

    # ------------------------------------------------------- single arrival

    def select(self, user_id: str, aps: Candidates) -> str:
        """Online assignment of one arriving user; returns the AP id.

        This is Algorithm 1 for a singleton clique (:func:`rank_singleton`).
        When the bandwidth constraint rules out every AP the user is still
        admitted at the least-loaded AP — rejecting association is not an
        option the paper considers.
        """
        if not aps:
            raise ValueError("no candidate APs")
        choice = rank_singleton(
            aps,
            aps.costs(user_id),
            self.config.top_fraction,
            self.demand.estimate(user_id),
        )
        if choice is None:
            return least_loaded(aps).ap_id
        return aps[choice].ap_id

    # --------------------------------------------------------- batch arrival

    def assign_batch(
        self, user_ids: Sequence[str], aps: Candidates
    ) -> Dict[str, str]:
        """Algorithm 1 over a batch of waiting users.

        Returns user id -> AP id.  Placed cliques are seated in the index
        (and their loads added) so later cliques see them; the index is
        left as it was.
        """
        if not aps:
            raise ValueError("no candidate APs")
        waiting = list(dict.fromkeys(user_ids))  # preserve order, dedupe
        if not waiting:
            return {}
        if len(waiting) == 1:
            return {waiting[0]: self.select(waiting[0], aps)}

        index = aps.live_index()
        slot = {ap.ap_id: i for i, ap in enumerate(aps)}
        states = list(aps)
        graph = self.social.build_graph(waiting, threshold=self.config.edge_threshold)
        cover = clique_cover(graph)

        assignment: Dict[str, str] = {}
        try:
            for clique in cover.cliques:
                placement = self._place_clique(
                    clique, Candidates(states, index, aps.positions)
                )
                for user_id, ap_id in placement.items():
                    i = slot[ap_id]
                    rate = self.demand.estimate(user_id)
                    states[i] = states[i].with_user(user_id, rate)
                    index.join(user_id, aps.positions[i])
                    assignment[user_id] = ap_id
        finally:
            for user_id in assignment:
                index.leave(user_id)
        return assignment

    # ---------------------------------------------------------- clique step

    def _place_clique(
        self, members: Sequence[str], aps: Candidates
    ) -> Dict[str, str]:
        """Place one clique: enumerate (or greedily construct) distributions,
        rank by social cost, re-rank the top fraction by balance index."""
        members = list(members)
        if len(members) == 1:
            return {members[0]: self.select(members[0], aps)}

        n_combinations = len(aps) ** len(members)
        if n_combinations <= self.config.max_enumeration:
            return self._place_exhaustive(members, aps)
        return self._place_greedy(members, aps)

    def _place_exhaustive(
        self, members: List[str], aps: Candidates
    ) -> Dict[str, str]:
        n_aps = len(aps)
        tables = _distributions(n_aps, len(members))
        # Every distribution's cost, summed in one fixed order from 0.0:
        # member costs in member order, then the internal delta of each
        # co-located member pair in (i, j) order.  Each element therefore
        # takes exactly the float additions a per-distribution loop
        # would, so ties and cuts are bit-identical.  The member sums are
        # an outer sum over the product grid, which flattens in
        # distribution order.
        cost = np.zeros(())
        for user in members:
            cost = np.add.outer(cost, np.array(aps.costs(user), dtype=float))
        cost = cost.reshape(-1)
        for (i, j), together in zip(tables.pairs, tables.together):
            delta = self.social.social_index(members[i], members[j])
            np.add(cost, delta, out=cost, where=together)
        # The load a distribution adds at an AP is its subset's rates,
        # summed in member order from 0.0 as the per-distribution loop
        # adds them, so it is worked out once per subset: ``after`` is
        # every subset's load after at every AP.
        subset_load = np.zeros(tables.members_in.shape[1])
        for user, member_in in zip(members, tables.members_in):
            np.add(
                subset_load, self.demand.estimate(user),
                out=subset_load, where=member_in,
            )
        after = np.array([ap.load for ap in aps]) + subset_load[:, None]
        bandwidth = np.array([ap.bandwidth for ap in aps])
        overloaded = (subset_load[:, None] > 0) & (after > bandwidth)
        if overloaded.any():
            infeasible = overloaded.reshape(-1).take(tables.cells).any(axis=1)
            feasible = np.flatnonzero(~infeasible)
        else:
            feasible = np.arange(len(cost))

        if not len(feasible):
            # Bandwidth rules everything out; admit greedily anyway.
            return self._place_greedy(members, aps, ignore_bandwidth=True)

        keep = max(1, math.ceil(len(feasible) * self.config.top_fraction))
        # The top band is the keep cheapest distributions by (cost,
        # balance, enumeration order), and the pick is its best balance,
        # then the lower cost, then enumeration order.  The band of every
        # distribution no dearer than the keep-th cheapest gives the same
        # pick, with no sort: fewer than keep rows are cheaper than the
        # cut, so the top band admits at least the first of the rows tied
        # at the cut, in (balance, enumeration order), and no excluded
        # tied row beats it.
        feasible_cost = cost[feasible]
        cut = np.partition(feasible_cost, keep - 1)[keep - 1]
        band = feasible[feasible_cost <= cut]
        # Balance in closed form: the sum of squared loads after (lower
        # is better balanced).
        squares = balance_squares(after.reshape(-1).take(tables.cells[band]))
        best = band[squares == squares.min()]
        best = best[cost[best] == cost[best].min()]
        combo = np.unravel_index(best[0], (n_aps,) * len(members))
        return {member: aps[int(combo[i])].ap_id for i, member in enumerate(members)}

    def _place_greedy(
        self,
        members: List[str],
        aps: Candidates,
        ignore_bandwidth: bool = False,
    ) -> Dict[str, str]:
        """Sequential fallback for cliques too large to enumerate: heaviest
        demand first, each user placed by :func:`rank_singleton` over the
        APs with room for them (over every AP when none has room), each
        seated in the index until this returns."""
        states = list(aps)
        index = aps.live_index()
        order = sorted(members, key=lambda u: -self.demand.estimate(u))
        placement: Dict[str, str] = {}
        top_fraction = self.config.top_fraction
        try:
            for user_id in order:
                rate = self.demand.estimate(user_id)
                row = aps.costs(user_id)
                choice = (
                    None
                    if ignore_bandwidth
                    else rank_singleton(states, row, top_fraction, rate)
                )
                if choice is None:
                    choice = rank_singleton(states, row, top_fraction)
                assert choice is not None
                index.join(user_id, aps.positions[choice])
                placement[user_id] = states[choice].ap_id
                states[choice] = states[choice].with_user(user_id, rate)
        finally:
            for user_id in placement:
                index.leave(user_id)
        return placement
