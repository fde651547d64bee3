"""The social relation index delta(u, v) (Section IV).

    delta(u, v) = P(L(u,v) | E(u,v)) + alpha * T(type_u, type_v)

The conditional term is estimated from the learning trace as the ratio of
the pair's co-leaving events to its encounter events; the type term is the
Table-I affinity weighted by the constant ``alpha`` (0.3 at the paper's
chosen operating point, Fig. 10).  Pairs that never encountered each other
fall back to the type term alone — "if the pair of users have not
encountered each other before, we need other information to guess the
possibility that they will leave together."

Noise control: fake social relationships (coincidental co-leavings) are
suppressed by requiring a minimum number of encounters before the
conditional term is trusted, mirroring the paper's "aggregating multiple
common events between the same pair of users."
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import perf
from repro.analysis.churn import ChurnEvents, Pair, make_pair
from repro.core.typing import TypeModel
from repro.graph.graph import Graph

#: Delta matrices kept per model; one controller batch rarely revisits
#: more than a handful of member sets before the model learns new events.
_DELTA_CACHE_SIZE = 32


class PairStats(NamedTuple):
    """Observed event counts for one user pair.

    A named tuple: the online learner builds one per recorded pair
    event, and a tuple is the cheapest immutable record to build.
    """

    encounters: int
    co_leavings: int

    @property
    def conditional_probability(self) -> float:
        """P(co-leave | encounter), capped at 1.

        Pairs can log more co-leavings than encounters (brief joint stays
        below the encounter-duration threshold still co-leave); the cap
        keeps the index a probability.
        """
        if self.encounters <= 0:
            return 0.0
        return min(1.0, self.co_leavings / self.encounters)


class SocialModel:
    """Pairwise social relation indices over a trained user population."""

    def __init__(
        self,
        pair_stats: Dict[Pair, PairStats],
        type_model: TypeModel,
        alpha: float = 0.3,
        min_encounters: int = 2,
        shrinkage: float = 1.0,
    ) -> None:
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        if min_encounters < 1:
            raise ValueError("min_encounters must be >= 1")
        if shrinkage < 0:
            raise ValueError("shrinkage must be non-negative")
        self._pairs = dict(pair_stats)
        self.type_model = type_model
        self.alpha = alpha
        self.min_encounters = min_encounters
        self.shrinkage = shrinkage
        # Indexed fast-path state: every structure below is a pure function
        # of (_pairs, type_model, alpha, min_encounters, shrinkage) at one
        # generation.  Mutators bump the generation, then *patch* the
        # structures in place and restamp them — a single co-leaving event
        # touches one delta(u, v) entry, not the whole dense cache.
        self._generation = 0
        self._partners_generation = -1
        self._partners: Dict[str, List[Tuple[str, PairStats]]] = {}
        self._adjacency_generation = -1
        self._adjacency: Dict[str, Dict[str, float]] = {}
        self._delta_cache: "OrderedDict[Tuple[str, ...], Tuple[int, np.ndarray]]" = (
            OrderedDict()
        )
        self._extended: Optional[np.ndarray] = None

    # ------------------------------------------------------------- pickling

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle state with ``_pairs`` as three columns.

        A ``PairStats`` per pair pickles one object at a time, and a
        service snapshot carries thousands of them; keys, encounters and
        co-leavings as three lists pickle in bulk.  Each partner-index
        bucket keeps only its partner names: every entry's stats object
        is the pair's ``_pairs`` value, so :meth:`__setstate__` re-links
        them, and bucket order (the summation order of the cost rows)
        survives unchanged.
        """
        state = self.__dict__.copy()
        pairs = state.pop("_pairs")
        state["_pair_keys"] = list(pairs)
        state["_pair_encounters"] = [s.encounters for s in pairs.values()]
        state["_pair_co_leavings"] = [s.co_leavings for s in pairs.values()]
        state["_partners"] = {
            user: [partner for partner, _ in bucket]
            for user, bucket in self._partners.items()
        }
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        pairs: Dict[Pair, PairStats] = dict(
            zip(
                state.pop("_pair_keys"),
                map(
                    PairStats,
                    state.pop("_pair_encounters"),
                    state.pop("_pair_co_leavings"),
                ),
            )
        )
        names: Dict[str, List[str]] = state.pop("_partners")
        self.__dict__.update(state)
        self._pairs = pairs
        self._partners = {
            user: [(partner, pairs[(user, partner)]) for partner in bucket]
            for user, bucket in names.items()
        }

    # -------------------------------------------------------------- queries

    def pair_stats(self, user_a: str, user_b: str) -> Optional[PairStats]:
        """Observed event counts for the pair, or None if never seen."""
        return self._pairs.get(make_pair(user_a, user_b))

    def conditional_term(self, user_a: str, user_b: str) -> float:
        """P(L|E) for the pair, zero below the encounter-count floor.

        Shrinkage (``co_leavings / (encounters + shrinkage)``) keeps a pair
        observed only a couple of times from scoring a certain 1.0 — the
        same fake-relationship suppression applied to the Table-I matrix.
        """
        stats = self.pair_stats(user_a, user_b)
        if stats is None or stats.encounters < self.min_encounters:
            return 0.0
        return min(
            1.0, stats.co_leavings / (stats.encounters + self.shrinkage)
        )

    def type_term(self, user_a: str, user_b: str) -> float:
        """alpha * T(type_u, type_v)."""
        return self.alpha * self.type_model.affinity_of(user_a, user_b)

    def social_index(self, user_a: str, user_b: str) -> float:
        """The full delta(u, v)."""
        if user_a == user_b:
            raise ValueError("social index of a user with themselves")
        return self.conditional_term(user_a, user_b) + self.type_term(user_a, user_b)

    # --------------------------------------------------------------- graphs

    @property
    def generation(self) -> int:
        """Bumped by every mutator; stamps the fast-path caches."""
        return self._generation

    def _extended_affinity(self) -> np.ndarray:
        """The (k+1) x (k+1) affinity with the unknown-user mean appended.

        Pure function of the fitted affinity table (which never changes
        after construction), so it is computed once and shared by the
        batch build and the incremental patches — bit-for-bit.
        """
        if self._extended is None:
            k = self.type_model.k
            affinity = np.asarray(self.type_model.affinity, dtype=np.float64)
            extended = np.empty((k + 1, k + 1), dtype=np.float64)
            extended[:k, :k] = affinity
            mean = float(affinity.mean())
            extended[k, :] = mean
            extended[:, k] = mean
            self._extended = extended
        return self._extended

    def _partner_index(self) -> Dict[str, List[Tuple[str, PairStats]]]:
        """user -> [(partner, stats)] for pairs above the encounter floor.

        Pairs are canonical (smaller id first), so each appears under its
        smaller member only.  Rebuilt lazily after ``record_events``.
        """
        if self._partners_generation != self._generation:
            index: Dict[str, List[Tuple[str, PairStats]]] = {}
            floor = self.min_encounters
            for (user_a, user_b), stats in self._pairs.items():
                if stats.encounters >= floor:
                    index.setdefault(user_a, []).append((user_b, stats))
            self._partners = index
            self._partners_generation = self._generation
        return self._partners

    def _delta_matrix(self, members: Tuple[str, ...]) -> np.ndarray:
        """Dense delta over a sorted member tuple (cached per generation).

        The type term is a table lookup: an extended (k+1) x (k+1) affinity
        whose last row/column hold the unknown-user mean reproduces
        ``affinity_of`` exactly.  The sparse conditional terms are added
        from the partner index — only observed pairs cost anything.
        """
        cached = self._delta_cache.get(members)
        if cached is not None and cached[0] == self._generation:
            self._delta_cache.move_to_end(members)
            perf.count("social.delta.cache_hit")
            return cached[1]
        k = self.type_model.k
        extended = self._extended_affinity()
        assignments = self.type_model.assignments
        codes = np.fromiter(
            (assignments.get(user, k) for user in members),
            dtype=np.intp,
            count=len(members),
        )
        delta = self.alpha * extended[codes[:, None], codes[None, :]]
        position = {user: i for i, user in enumerate(members)}
        shrinkage = self.shrinkage
        for i, user in enumerate(members):
            for partner, stats in self._partner_index().get(user, ()):
                j = position.get(partner)
                if j is None:
                    continue
                conditional = min(
                    1.0, stats.co_leavings / (stats.encounters + shrinkage)
                )
                delta[i, j] += conditional
                delta[j, i] += conditional
        self._delta_cache[members] = (self._generation, delta)
        if len(self._delta_cache) > _DELTA_CACHE_SIZE:
            self._delta_cache.popitem(last=False)
        perf.count("social.delta.build")
        return delta

    def build_graph(self, users: Iterable[str], threshold: float = 0.3) -> Graph:
        """The user graph of Section IV.A: edges where delta > threshold.

        Every user appears as a node; only pairs above the threshold get an
        edge (weight = delta).  This is the input to the clique cover, which
        mutates its input — a fresh ``Graph`` is returned on every call even
        when the underlying delta matrix is served from cache.

        One cached dense delta matrix per member set, one vectorized
        thresholding per call; edges come out in the order of the pairwise
        :meth:`social_index` loop the parity tests compare against.
        """
        if threshold < 0:
            raise ValueError(f"negative threshold {threshold!r}")
        members = sorted(set(users))
        graph = Graph()
        for user in members:
            graph.add_node(user)
        if len(members) < 2:
            return graph
        delta = self._delta_matrix(tuple(members))
        above = np.triu(delta > threshold, k=1)
        for i, j in np.argwhere(above).tolist():
            graph.add_edge(members[i], members[j], float(delta[i, j]))
        return graph

    def known_pairs(self) -> int:
        """Number of pairs with any recorded events."""
        return len(self._pairs)

    def conditional_partners(self, user_id: str) -> Mapping[str, float]:
        """partner -> conditional term, for pairs above the encounter floor.

        Unlike :meth:`_partner_index` (canonical pairs, smaller id first)
        this adjacency is bidirectional — the natural query shape for an
        online controller asking "which residents does this arrival
        co-leave with?".  Built lazily once, then patched in place by
        :meth:`record_events`.  Treat the returned mapping as read-only.
        """
        self._adjacency_index()
        return self._adjacency.get(user_id, {})

    def _adjacency_index(self) -> Dict[str, Dict[str, float]]:
        if self._adjacency_generation != self._generation:
            index: Dict[str, Dict[str, float]] = {}
            floor = self.min_encounters
            shrinkage = self.shrinkage
            for (user_a, user_b), stats in self._pairs.items():
                if stats.encounters >= floor:
                    conditional = min(
                        1.0, stats.co_leavings / (stats.encounters + shrinkage)
                    )
                    index.setdefault(user_a, {})[user_b] = conditional
                    index.setdefault(user_b, {})[user_a] = conditional
            self._adjacency = index
            self._adjacency_generation = self._generation
        return self._adjacency

    # ------------------------------------------------------ online updates

    def record_events(
        self, user_a: str, user_b: str, encounters: int = 0, co_leavings: int = 0
    ) -> None:
        """Fold freshly observed events into the pair's statistics.

        This is the hook the online-learning extension
        (:mod:`repro.core.online`) uses: the controller observes
        encounters and co-leavings from the association stream it manages
        anyway, and keeps the model current without retraining.

        The update is a true delta: the pair's entry in the partner and
        adjacency indexes is patched in place, and every cached dense
        delta matrix containing both users has exactly its ``(u, v)``
        entries recomputed — in the same operation order as the batch
        build, so patched matrices stay *byte-identical* to a from-scratch
        rebuild (the equivalence the parity registry proves).  Everything
        is restamped to the new generation.
        """
        if encounters < 0 or co_leavings < 0:
            raise ValueError("event deltas must be non-negative")
        pair = make_pair(user_a, user_b)
        old = self._pairs.get(pair)
        if old is None:
            stats = PairStats(encounters=encounters, co_leavings=co_leavings)
        else:
            stats = PairStats(
                encounters=old.encounters + encounters,
                co_leavings=old.co_leavings + co_leavings,
            )
        self._pairs[pair] = stats
        self._generation += 1
        generation = self._generation

        conditional = 0.0
        above_floor = stats.encounters >= self.min_encounters
        if above_floor:
            conditional = min(
                1.0, stats.co_leavings / (stats.encounters + self.shrinkage)
            )

        # Partner index: replace (or append) the pair's entry in place.
        if self._partners_generation == generation - 1:
            if above_floor:
                bucket = self._partners.setdefault(pair[0], [])
                for position, (partner, _) in enumerate(bucket):
                    if partner == pair[1]:
                        bucket[position] = (pair[1], stats)
                        break
                else:
                    bucket.append((pair[1], stats))
            self._partners_generation = generation

        # Bidirectional adjacency: patch both directions.
        if self._adjacency_generation == generation - 1:
            if above_floor:
                self._adjacency.setdefault(pair[0], {})[pair[1]] = conditional
                self._adjacency.setdefault(pair[1], {})[pair[0]] = conditional
            self._adjacency_generation = generation

        if self._delta_cache:
            self._patch_delta_cache(pair, conditional, generation)

    def record_departure(
        self,
        user_id: str,
        encountered: Sequence[str],
        co_left: Sequence[str],
    ) -> None:
        """Fold one departure's pair events in one pass.

        The same updates, in the same order, as one :meth:`record_events`
        call per pair — ``encounters=1`` with each of ``encountered``,
        then ``co_leavings=1`` with each of ``co_left`` — including one
        generation per pair, so pair order, adjacency order and pickles
        come out identical.  The loop is inlined for the service's
        common state, a live adjacency and nothing else cached; with the
        partner index live or a delta matrix cached it defers to
        :meth:`record_events` per pair, whose patches those structures
        need.  The departing user's adjacency row is looked up once; a
        row it does not have yet is created where the per-pair updates
        would create it, so the adjacency's row order is theirs too.
        """
        if self._delta_cache or self._partners_generation == self._generation:
            record = self.record_events
            for other in encountered:
                record(user_id, other, encounters=1)
            for other in co_left:
                record(user_id, other, co_leavings=1)
            return
        if user_id in encountered or user_id in co_left:
            raise ValueError(f"a pair needs two distinct users, got {user_id!r} twice")
        pairs = self._pairs
        floor = self.min_encounters
        shrinkage = self.shrinkage
        generation = self._generation + len(encountered) + len(co_left)
        adjacency = (
            self._adjacency
            if self._adjacency_generation == self._generation
            else None
        )
        row = adjacency.get(user_id) if adjacency is not None else None
        new = tuple.__new__  # PairStats(...) without its Python-level __new__
        for partners, encounter, co_leaving in (
            (encountered, 1, 0),
            (co_left, 0, 1),
        ):
            for other in partners:
                pair = (user_id, other) if user_id < other else (other, user_id)
                old = pairs.get(pair)
                if old is None:
                    encounters, co_leavings = encounter, co_leaving
                else:
                    encounters, co_leavings = old
                    encounters += encounter
                    co_leavings += co_leaving
                pairs[pair] = new(PairStats, (encounters, co_leavings))
                if adjacency is not None and encounters >= floor:
                    conditional = co_leavings / (encounters + shrinkage)
                    if conditional > 1.0:
                        conditional = 1.0
                    if row is None:
                        # The smaller id's row is the first one created.
                        if other < user_id:
                            adjacency.setdefault(other, {})
                        row = adjacency[user_id] = {}
                    row[other] = conditional
                    partner_row = adjacency.get(other)
                    if partner_row is None:
                        adjacency[other] = {user_id: conditional}
                    else:
                        partner_row[user_id] = conditional
        self._generation = generation
        if adjacency is not None:
            self._adjacency_generation = generation

    def assign_user_type(self, user_id: str, type_index: int) -> None:
        """Re-assign one user's type and patch the caches incrementally.

        The online counterpart of re-running the k-means step for a user
        whose profile drifted: the assignment map is updated, and every
        cached delta matrix containing the user has exactly its row and
        column recomputed (batch-build operation order, so the matrices
        stay byte-identical to a rebuild).  The conditional terms are
        untouched — only the type prior moves.
        """
        k = self.type_model.k
        if not 0 <= type_index < k:
            raise ValueError(
                f"type index {type_index!r} out of range for k={k}"
            )
        if self.type_model.assignments.get(user_id) == type_index:
            return
        self.type_model.assignments[user_id] = type_index
        self._generation += 1
        generation = self._generation
        # The partner/adjacency indexes hold conditional terms only; a
        # type change leaves them valid, so just restamp.
        if self._partners_generation == generation - 1:
            self._partners_generation = generation
        if self._adjacency_generation == generation - 1:
            self._adjacency_generation = generation
        if self._delta_cache:
            self._patch_delta_cache_user(user_id, generation)

    def _patch_delta_cache(
        self, pair: Pair, conditional: float, generation: int
    ) -> None:
        """Recompute the pair's entries in every current cached matrix.

        A matrix not stamped ``generation - 1`` missed an earlier patch
        (it can only happen through direct mutation of internals) and is
        dropped rather than served stale.  The recomputed value follows
        the batch build exactly — ``alpha * extended[ci, cj]`` first, the
        conditional added second — because float addition does not
        reassociate and byte-identity is the contract.
        """
        extended = self._extended_affinity()
        k = self.type_model.k
        assignments = self.type_model.assignments
        code_a = assignments.get(pair[0], k)
        code_b = assignments.get(pair[1], k)
        value = self.alpha * extended[code_a, code_b] + conditional
        stale: List[Tuple[str, ...]] = []
        for members, (stamped, matrix) in self._delta_cache.items():
            if stamped != generation - 1:
                stale.append(members)
                continue
            i = bisect_left(members, pair[0])
            j = bisect_left(members, pair[1])
            if (
                i < len(members)
                and members[i] == pair[0]
                and j < len(members)
                and members[j] == pair[1]
            ):
                matrix[i, j] = value
                matrix[j, i] = value
            self._delta_cache[members] = (generation, matrix)
        for members in stale:
            del self._delta_cache[members]
        perf.count("social.delta.patch")

    def _patch_delta_cache_user(self, user_id: str, generation: int) -> None:
        """Recompute one user's row/column in every current cached matrix."""
        extended = self._extended_affinity()
        k = self.type_model.k
        assignments = self.type_model.assignments
        code = assignments.get(user_id, k)
        alpha = self.alpha
        stale: List[Tuple[str, ...]] = []
        for members, (stamped, matrix) in self._delta_cache.items():
            if stamped != generation - 1:
                stale.append(members)
                continue
            i = bisect_left(members, user_id)
            if i < len(members) and members[i] == user_id:
                for j, other in enumerate(members):
                    if j == i:
                        matrix[i, i] = alpha * extended[code, code]
                        continue
                    other_code = assignments.get(other, k)
                    value = (
                        alpha * extended[code, other_code]
                        + self.conditional_term(user_id, other)
                    )
                    matrix[i, j] = value
                    matrix[j, i] = value
            self._delta_cache[members] = (generation, matrix)
        for members in stale:
            del self._delta_cache[members]
        perf.count("social.delta.patch")


def build_social_model(
    churn: ChurnEvents,
    type_model: TypeModel,
    alpha: float = 0.3,
    min_encounters: int = 2,
    shrinkage: float = 1.0,
) -> SocialModel:
    """Assemble the social model from extracted churn events."""
    encounters = churn.encounter_pairs()
    co_leavings = churn.co_leaving_pairs()
    pairs: Dict[Pair, PairStats] = {}
    for pair in sorted(set(encounters) | set(co_leavings)):
        pairs[pair] = PairStats(
            encounters=encounters.get(pair, 0),
            co_leavings=co_leavings.get(pair, 0),
        )
    return SocialModel(
        pair_stats=pairs,
        type_model=type_model,
        alpha=alpha,
        min_encounters=min_encounters,
        shrinkage=shrinkage,
    )
