"""Online-learning S³: keep the social model current from live traffic.

The paper's future work: "we will implement S³ in our campus WLAN and
further improve the S³ design by solving the issues encountered in
practice."  The first practical issue is model aging — a model trained on
a snapshot drifts as the semester's schedules change and new users appear.

This module closes the loop: the controller already sees every
association and disassociation, so the same event definitions used in
training (Section III.D) can be evaluated *incrementally*:

* **encounters** — when a user disassociates, every user still on the AP
  whose co-presence lasted at least the encounter threshold yields one
  encounter event for the pair;
* **co-leavings** — a per-AP ring of recent departures; a departure within
  the extraction window of another user's departure on the same AP yields
  one co-leaving event per pair;
* **demand** — each finished session's mean rate feeds the per-user EWMA.

The :class:`OnlineS3Strategy` wraps a trained (or empty) model, applies
the updates through the engine's observation hooks, and keeps serving
Algorithm 1 decisions from the continuously refreshed model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.selection import Candidates, S3Selector
from repro.core.social import SocialModel
from repro.sim.timeline import MINUTE
from repro.wlan.strategies import SelectionStrategy


@dataclass(frozen=True)
class OnlineConfig:
    """Event-extraction parameters for the online learner.

    Defaults match the training-stage operating point (five-minute
    co-leaving window, twenty-minute encounter threshold).
    """

    coleave_window: float = 5 * MINUTE
    encounter_min_duration: float = 20 * MINUTE
    #: Departures older than this are dropped from the per-AP ring.
    departure_memory: float = 30 * MINUTE

    def __post_init__(self) -> None:
        if self.coleave_window <= 0:
            raise ValueError("coleave_window must be positive")
        if self.encounter_min_duration < 0:
            raise ValueError("encounter_min_duration must be non-negative")
        if self.departure_memory < self.coleave_window:
            raise ValueError("departure_memory must cover the co-leave window")


class OnlineLearner:
    """Incremental churn-event extraction over the association stream."""

    def __init__(self, social: SocialModel, config: Optional[OnlineConfig] = None):
        self.social = social
        self.config = config if config is not None else OnlineConfig()
        #: ap id -> {user id -> association time}
        self._present: Dict[str, Dict[str, float]] = {}
        #: ap id -> recent departures (time, user), oldest first
        self._departures: Dict[str, Deque[Tuple[float, str]]] = {}
        self.encounters_recorded = 0
        self.co_leavings_recorded = 0
        #: Stream events permanently lost before this learner saw them
        #: (gap skips reported by the supervisor after a crash recovery).
        self.lost_events = 0
        #: APs whose departure ring holds a time below an earlier one
        #: (replay places a demand that ended during the batching delay
        #: late); their co-leave scan reads the whole ring.  Derived from
        #: the rings, so it is left out of the pickled state.
        self._unordered: Set[str] = set()

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        del state["_unordered"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._unordered = {
            ap_id
            for ap_id, ring in self._departures.items()
            if any(a[0] > b[0] for a, b in zip(ring, islice(ring, 1, None)))
        }

    # ----------------------------------------------------------- staleness

    @property
    def is_stale(self) -> bool:
        """Whether the model missed events it can never re-observe."""
        return self.lost_events > 0

    def mark_lost_events(self, count: int) -> None:
        """Record ``count`` stream events the learner permanently missed.

        Every skipped seq is an arrival/departure the incremental
        extractors never folded in, so the pair statistics are now an
        undercount.  The supervisor calls this after a lossy recovery and
        degrades the next decisions through the admission queue's
        fallback chain until fresh observations dilute the gap.
        """
        if count < 0:
            raise ValueError(f"lost event count must be >= 0: {count}")
        self.lost_events += count

    def acknowledge_staleness(self) -> None:
        """Reset the lost-event tally once the degraded window has run."""
        self.lost_events = 0

    # -------------------------------------------------------------- events

    def on_arrival(self, user_id: str, ap_id: str, time: float) -> None:
        """Record that a user associated to an AP."""
        self._present.setdefault(ap_id, {})[user_id] = time

    def on_departure(self, user_id: str, ap_id: str, time: float) -> None:
        """Process a disassociation: emit encounter and co-leaving events.

        The pairs are gathered first — encounters, then co-leavings —
        and folded into the model in one
        :meth:`~repro.core.social.SocialModel.record_departure` call.
        """
        present = self._present.get(ap_id)
        if present is None:
            present = self._present[ap_id] = {}
        joined_at = present.pop(user_id, None)
        if joined_at is None:
            return  # arrival never observed (e.g. learner attached late)

        config = self.config

        # Encounters: co-presence with everyone still on the AP.  The
        # overlap ``time - max(joined_at, other_joined)`` is whichever of
        # the two differences is smaller, so it clears the threshold
        # exactly when both do — and none can if this stay did not.
        threshold = config.encounter_min_duration
        encountered: List[str] = []
        if time - joined_at >= threshold:
            encountered = [
                other
                for other, other_joined in present.items()
                if time - other_joined >= threshold
            ]

        # Co-leavings: pair with recent departures on the same AP.
        ring = self._departures.get(ap_id)
        if ring is None:
            ring = self._departures[ap_id] = deque()
        horizon = time - config.departure_memory
        while ring and ring[0][0] < horizon:
            ring.popleft()
        window = config.coleave_window
        if ap_id in self._unordered:
            if not ring:
                self._unordered.discard(ap_id)
            co_left = [
                other
                for departed_at, other in ring
                if other != user_id and time - departed_at <= window
            ]
        else:
            # Departure times never decrease along this ring, so
            # ``time - departed_at`` never increases: the matches are a
            # suffix, read from the newest end until the first miss.
            co_left = []
            for departed_at, other in reversed(ring):
                if time - departed_at > window:
                    break
                if other != user_id:
                    co_left.append(other)
            co_left.reverse()

        self.social.record_departure(user_id, encountered, co_left)
        self.encounters_recorded += len(encountered)
        self.co_leavings_recorded += len(co_left)
        if ring and time < ring[-1][0]:
            self._unordered.add(ap_id)
        ring.append((time, user_id))

    def on_lost_departure(self, user_id: str, ap_id: str) -> None:
        """Forget ``user_id``'s stay on ``ap_id`` without emitting events.

        For a departure the stream never delivered (the controller infers
        it from a re-join): its time is unknown, so no encounter or
        co-leaving can be dated from it.
        """
        self._present.get(ap_id, {}).pop(user_id, None)


class OnlineS3Strategy(SelectionStrategy):
    """S³ with live model updates from the association stream.

    Wraps a selector (trained or cold-start) and learns as it serves.  A
    cold-start deployment — empty pair statistics, uniform type prior —
    behaves like load balancing on day one and grows its social knowledge
    from the events it observes, which is exactly the bootstrap story an
    operator needs.

    The learner folds every ``observe_arrival`` / ``observe_departure``
    into the shared :class:`~repro.core.social.SocialModel` in global
    event order, and each ``select`` reads the model *as of* that
    moment: the write order *is* the model.
    """

    name = "s3-online"

    def __init__(
        self,
        selector: S3Selector,
        config: Optional[OnlineConfig] = None,
    ) -> None:
        self.selector = selector
        self.social = selector.social
        self.learner = OnlineLearner(selector.social, config)

    def select(
        self,
        user_id: str,
        aps: Candidates,
        rssi: Optional[Mapping[str, float]] = None,
    ) -> str:
        """Serve one arrival from the continuously updated model."""
        return self.selector.select(user_id, aps)

    def assign_batch(
        self,
        user_ids: Sequence[str],
        aps: Candidates,
        rssi_by_user: Optional[Mapping[str, Mapping[str, float]]] = None,
    ) -> Optional[Dict[str, str]]:
        """Serve a batch (Algorithm 1) from the continuously updated model."""
        return self.selector.assign_batch(user_ids, aps)

    def observe_arrival(self, user_id: str, ap_id: str, time: float) -> None:
        """Engine hook: feed an association into the learner."""
        self.learner.on_arrival(user_id, ap_id, time)

    def observe_departure(
        self, user_id: str, ap_id: str, time: float, mean_rate: float = 0.0
    ) -> None:
        """Engine hook: feed a disassociation into learner and demand EWMA."""
        self.learner.on_departure(user_id, ap_id, time)
        if mean_rate > 0:
            self.selector.demand.observe(user_id, mean_rate)
