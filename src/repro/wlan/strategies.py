"""AP-selection strategies: the baselines and the S³ adapter.

A strategy answers one question: *given an arriving user, the candidate
APs of the controller domain and the station's RSSI readings, which AP
serves the user?*  Four implementations:

* :class:`StrongestSignal` — the 802.11 default the paper's Section I
  describes: pick the AP with the best RSSI, ignoring load entirely;
* :class:`LeastLoadedFirst` — the state of the art in enterprise WLANs
  (the paper's LLF baseline, ref [9]): least traffic load, or least user
  count in the ``"users"`` variant;
* :class:`RandomSelection` — the sanity-floor baseline;
* :class:`S3Strategy` — the paper's contribution, delegating to a trained
  :class:`~repro.core.selection.S3Selector`; the only strategy that
  implements true batch assignment (Algorithm 1's clique distribution).

Strategies are stateless with respect to the network: all network state
arrives as the controller domain's
:class:`~repro.core.selection.Candidates` — immutable
:class:`~repro.core.selection.APState` snapshots carrying the domain's
live cost index, which the S³ strategies read their cost rows from.
"""

from __future__ import annotations

import abc
from typing import Dict, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.selection import APState, Candidates, S3Selector, least_loaded
from repro.core.social import SocialModel
from repro.wlan.radio import strongest_ap


class SelectionStrategy(abc.ABC):
    """The strategy interface the replay engine and prototype drive."""

    #: Human-readable name used in reports and benchmark tables.
    name: str = "strategy"

    #: Whether per-controller sharding preserves this strategy's
    #: behaviour.  True for strategies whose decisions depend only on the
    #: arriving batch and the owning controller's state (LLF, RSSI, the
    #: trained S3 selector).  False for strategies carrying *mutable*
    #: cross-controller state — a shared RNG consumed in global arrival
    #: order, or an online learner updated by observe hooks — where
    #: splitting the demand stream changes the call order and therefore
    #: the decisions.  ``repro.runtime`` refuses ``engine="process"`` for
    #: these and ``engine="auto"`` falls back to serial.
    shard_safe: bool = True

    #: Why ``shard_safe`` is ``False`` — one sentence naming the mutable
    #: cross-controller state.  The **shard-safe-note** lint rule
    #: requires a non-empty value on every class that flips the flag
    #: off, so the constraint stays greppable instead of living only in
    #: a comment.  Empty for strategies keeping the default contract.
    shard_safe_reason: str = ""

    #: Declared graceful-degradation order, most- to least-preferred
    #: strategy name.  Empty for strategies with no fallback logic.
    fallback_chain: Tuple[str, ...] = ()

    #: The model the S³ strategies decide with (their selector's): each
    #: controller domain they run keeps one live cost index over it.
    social: Optional[SocialModel] = None

    #: Whether ``select``, ``assign_batch`` or ``score_candidates`` may
    #: read the station RSSI they are handed.  The replay engine builds no
    #: radio view for a strategy that declares it never does (it passes
    #: ``None``), except under a controller outage, whose strongest-signal
    #: fallback reads them.
    reads_rssi: bool = True

    def consume_degradation(self) -> Optional[str]:
        """The degradation note of the most recent ``select`` /
        ``assign_batch`` call, cleared on read.

        The replay engine calls this after every strategy decision and
        journals a non-``None`` note on the
        :class:`~repro.obs.DecisionRecord` (``"fallback:<strategy>:
        <reason>"``), so every silent fallback leaves provenance.  The
        default strategy never degrades.
        """
        return None

    @abc.abstractmethod
    def select(
        self,
        user_id: str,
        aps: Candidates,
        rssi: Optional[Mapping[str, float]] = None,
    ) -> str:
        """Choose the AP id for one arriving user."""

    def assign_batch(
        self,
        user_ids: Sequence[str],
        aps: Candidates,
        rssi_by_user: Optional[Mapping[str, Mapping[str, float]]] = None,
    ) -> Optional[Dict[str, str]]:
        """Batch assignment hook.

        Returns ``None`` when the strategy has no batch logic — the engine
        then falls back to sequential ``select`` calls with live state
        updates between them (which is what an arrival-based controller
        actually does).
        """
        return None

    def score_candidates(
        self,
        user_id: str,
        aps: Candidates,
        rssi: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, float]:
        """Per-candidate preference scores for decision provenance.

        Lower means preferred; APs the strategy has no opinion on may be
        omitted (they journal with a null score).  This powers
        :class:`repro.obs.DecisionRecord` audit trails and is only called
        when the tracer is enabled, so it may recompute what ``select``
        computes.  The default exposes no scores.
        """
        return {}

    def observe_arrival(self, user_id: str, ap_id: str, time: float) -> None:
        """Called by the engine after a user associates.  Default: no-op.

        Online-learning strategies (see :mod:`repro.core.online`) use
        these observation hooks to keep their social model current from
        the association stream the controller sees anyway.
        """

    def observe_departure(
        self, user_id: str, ap_id: str, time: float, mean_rate: float = 0.0
    ) -> None:
        """Called by the engine after a user disassociates.  Default: no-op."""


class StrongestSignal(SelectionStrategy):
    """The RSSI default: strongest signal wins, load is ignored."""

    name = "rssi"

    def select(
        self,
        user_id: str,
        aps: Sequence[APState],
        rssi: Optional[Mapping[str, float]] = None,
    ) -> str:
        """Pick the AP per this strategy's policy."""
        if not aps:
            raise ValueError("no candidate APs")
        if not rssi:
            # No radio information: deterministic fallback to the first AP
            # by id, the closest analogue of an arbitrary beacon pick.
            return min(ap.ap_id for ap in aps)
        candidates = {ap.ap_id for ap in aps}
        visible = {ap_id: v for ap_id, v in rssi.items() if ap_id in candidates}
        if not visible:
            return min(candidates)
        return strongest_ap(visible)

    def score_candidates(
        self,
        user_id: str,
        aps: Sequence[APState],
        rssi: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, float]:
        """Negated RSSI (strongest signal scores lowest); unseen APs omitted."""
        if not rssi:
            return {}
        candidates = {ap.ap_id for ap in aps}
        return {
            ap_id: -value for ap_id, value in rssi.items() if ap_id in candidates
        }


class LeastLoadedFirst(SelectionStrategy):
    """LLF: the AP with the least workload gets the new user.

    ``metric="load"`` ranks by current traffic load (the paper's main
    reading of LLF); ``metric="users"`` ranks by association count (the
    parenthetical variant "or with the least number of users").
    """

    reads_rssi = False

    def __init__(self, metric: str = "load") -> None:
        if metric not in ("load", "users"):
            raise ValueError(f"unknown LLF metric {metric!r}")
        self.metric = metric
        self.name = "llf" if metric == "load" else "llf-users"

    def select(
        self,
        user_id: str,
        aps: Sequence[APState],
        rssi: Optional[Mapping[str, float]] = None,
    ) -> str:
        """Pick the AP per this strategy's policy."""
        if not aps:
            raise ValueError("no candidate APs")
        if self.metric == "load":
            return least_loaded(aps).ap_id
        return min(aps, key=lambda ap: (ap.user_count, ap.load, ap.ap_id)).ap_id

    def score_candidates(
        self,
        user_id: str,
        aps: Sequence[APState],
        rssi: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, float]:
        """The ranked quantity itself: measured load or association count."""
        if self.metric == "load":
            return {ap.ap_id: ap.load for ap in aps}
        return {ap.ap_id: float(ap.user_count) for ap in aps}


class RandomSelection(SelectionStrategy):
    """Uniform random choice — the floor any useful strategy must beat."""

    name = "random"
    reads_rssi = False
    # One generator consumed in global arrival order: sharding reorders
    # the draws, so the serial and process engines would diverge.
    shard_safe = False
    shard_safe_reason = "shared RNG consumed in global arrival order"

    def __init__(self, rng: Optional[np.random.Generator] = None) -> None:
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def select(
        self,
        user_id: str,
        aps: Sequence[APState],
        rssi: Optional[Mapping[str, float]] = None,
    ) -> str:
        """Pick the AP per this strategy's policy."""
        if not aps:
            raise ValueError("no candidate APs")
        ordered = sorted(ap.ap_id for ap in aps)
        return ordered[int(self.rng.integers(len(ordered)))]


class S3Strategy(SelectionStrategy):
    """The paper's scheme, wrapping a trained selector.

    Degradation chain (``fallback_chain``): the wrapped selector first;
    plain LLF when the social model is stale (older than
    ``model_max_age`` relative to the newest observed event) or the
    selector raises; per-station strongest signal when there is no
    candidate state at all.  Every fallback decision carries a
    ``"fallback:..."`` note via :meth:`consume_degradation`, and the
    degraded sequential path reproduces :class:`LeastLoadedFirst`
    decision-for-decision (``assign_batch`` declines, so the engine's
    live-snapshot sequential path runs).

    Staleness is judged against a clock advanced by the observe hooks —
    the association stream the controller sees anyway — so it needs no
    wall time and stays deterministic.
    """

    name = "s3"
    fallback_chain = ("s3", "llf", "rssi")
    # Only applies when ``model_max_age`` arms the staleness clock; the
    # ageless configuration stays shard-safe (see ``__init__``).
    shard_safe_reason = (
        "staleness clock advanced by observe hooks is mutable "
        "cross-controller state"
    )

    def __init__(
        self,
        selector: S3Selector,
        model_max_age: Optional[float] = None,
        model_trained_at: float = 0.0,
    ) -> None:
        self.selector = selector
        self.social = selector.social
        self.model_max_age = model_max_age
        self.model_trained_at = model_trained_at
        self._clock = model_trained_at
        self._llf = LeastLoadedFirst()
        self._note: Optional[str] = None
        # Users of a batch whose ``assign_batch`` raised: each one's
        # sequential ``select`` carries the batch-error note once.
        self._batch_failed: Set[str] = set()
        if model_max_age is not None:
            if model_max_age <= 0:
                raise ValueError(
                    f"model_max_age must be positive, got {model_max_age!r}"
                )
            # The staleness clock is mutable cross-controller state:
            # sharding the demand stream changes what each decision has
            # observed, so the engines could diverge mid-run.
            self.shard_safe = False

    def _model_stale(self) -> bool:
        if self.model_max_age is None:
            return False
        return (self._clock - self.model_trained_at) > self.model_max_age

    def consume_degradation(self) -> Optional[str]:
        """Pop the note set by the most recent decision call."""
        note, self._note = self._note, None
        return note

    def observe_arrival(self, user_id: str, ap_id: str, time: float) -> None:
        """Advance the staleness clock."""
        if time > self._clock:
            self._clock = time

    def observe_departure(
        self, user_id: str, ap_id: str, time: float, mean_rate: float = 0.0
    ) -> None:
        """Advance the staleness clock."""
        if time > self._clock:
            self._clock = time

    def select(
        self,
        user_id: str,
        aps: Candidates,
        rssi: Optional[Mapping[str, float]] = None,
    ) -> str:
        """Pick the AP per this strategy's policy (or its fallback)."""
        self._note = None
        if user_id in self._batch_failed:
            self._batch_failed.discard(user_id)
            self._note = "fallback:s3:batch-error"
        if not aps:
            if rssi:
                self._note = "fallback:rssi:no-candidates"
                return strongest_ap(rssi)
            raise ValueError("no candidate APs")
        if self._model_stale():
            self._note = "fallback:llf:model-stale"
            return self._llf.select(user_id, aps, rssi=rssi)
        try:
            return self.selector.select(user_id, aps)
        except Exception:
            self._note = "fallback:llf:selector-error"
            return self._llf.select(user_id, aps, rssi=rssi)

    def assign_batch(
        self,
        user_ids: Sequence[str],
        aps: Candidates,
        rssi_by_user: Optional[Mapping[str, Mapping[str, float]]] = None,
    ) -> Optional[Dict[str, str]]:
        """Algorithm 1 batch distribution via the wrapped selector.

        Declines (returns ``None``) when degraded: the engine's
        sequential path then takes over, and each per-user ``select``
        call records its own fallback note.  When the selector's batch
        step raises, each of those per-user decisions carries
        ``fallback:s3:batch-error`` (a further fallback inside ``select``
        overrides it with its own note).
        """
        self._note = None
        self._batch_failed.clear()
        if not aps or self._model_stale():
            return None
        try:
            return self.selector.assign_batch(user_ids, aps)
        except Exception:
            self._batch_failed.update(user_ids)
            return None

    def score_candidates(
        self,
        user_id: str,
        aps: Candidates,
        rssi: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, float]:
        """Algorithm 1's primary objective: the added social cost C(AP).

        Under degradation the scores come from the active fallback
        (LLF's load ranking), matching what ``select`` actually ranked.
        Never touches the pending degradation note.
        """
        if self._model_stale():
            return self._llf.score_candidates(user_id, aps, rssi=rssi)
        try:
            costs = self.selector.cost_row(user_id, aps)
            return {ap.ap_id: cost for ap, cost in zip(aps, costs)}
        except Exception:
            return self._llf.score_candidates(user_id, aps, rssi=rssi)
