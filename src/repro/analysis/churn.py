"""Churn-event extraction: leavings, co-leavings, co-comings, encounters.

Section III.D of the paper defines the two social events it mines:

* **Encountering** — a pair of users keeps connections with the *same AP*
  simultaneously for at least a given period of time;
* **Co-leaving** — a pair of users leaves the *same AP* at the same time or
  within a short period of time.

Co-coming (joining the same AP within a window) is extracted symmetrically;
the paper notes a co-coming need not become an encounter if one user leaves
early.  Fake (coincidental) relationships are noise; the paper suppresses
them by choosing the extraction window carefully and aggregating repeated
events per pair — both supported here (window parameters + per-pair event
counts).

All extraction is per-AP: two users leaving different APs at the same time
are *not* a co-leaving.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Tuple, Union

from repro import perf
from repro.sim.timeline import MINUTE
from repro.trace.records import SessionRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fastchurn imports us)
    from repro.trace.columnar import SessionArrays

#: A canonical (smaller-id, larger-id) user pair.
Pair = Tuple[str, str]


def make_pair(user_a: str, user_b: str) -> Pair:
    """Canonicalize an unordered user pair."""
    if user_a == user_b:
        raise ValueError(f"a pair needs two distinct users, got {user_a!r} twice")
    return (user_a, user_b) if user_a < user_b else (user_b, user_a)


@dataclass(frozen=True)
class LeaveEvent:
    """One user disconnecting from one AP."""

    user_id: str
    ap_id: str
    time: float


@dataclass(frozen=True)
class CoEvent:
    """A pair event (co-leaving or co-coming) on one AP.

    ``times`` holds each user's own event time; the pair is canonicalized.
    """

    kind: str  # "co-leave" or "co-come"
    pair: Pair
    ap_id: str
    times: Tuple[float, float]

    @property
    def gap(self) -> float:
        """Seconds between the two users' individual events."""
        return abs(self.times[1] - self.times[0])


@dataclass(frozen=True)
class Encounter:
    """A pair of users simultaneously on the same AP for >= min duration."""

    pair: Pair
    ap_id: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Joint time on the AP, in seconds."""
        return self.end - self.start


@dataclass
class ChurnEvents:
    """All churn events extracted from a session log."""

    leavings: List[LeaveEvent] = field(default_factory=list)
    arrivals: List[LeaveEvent] = field(default_factory=list)
    co_leavings: List[CoEvent] = field(default_factory=list)
    co_comings: List[CoEvent] = field(default_factory=list)
    encounters: List[Encounter] = field(default_factory=list)

    def co_leaving_pairs(self) -> Dict[Pair, int]:
        """Per-pair co-leaving event counts."""
        return pair_event_counts(self.co_leavings)

    def encounter_pairs(self) -> Dict[Pair, int]:
        """Per-pair encounter counts."""
        return Counter(encounter.pair for encounter in self.encounters)


def pair_event_counts(events: Iterable[CoEvent]) -> Dict[Pair, int]:
    """Count events per canonical pair."""
    return Counter(event.pair for event in events)


def extract_churn(
    sessions: Union[Sequence[SessionRecord], "SessionArrays"],
    coleave_window: float = 5 * MINUTE,
    cocome_window: float = 5 * MINUTE,
    encounter_min_duration: float = 20 * MINUTE,
) -> ChurnEvents:
    """Extract every churn event family from a session log.

    ``coleave_window`` is the paper's co-leaving extraction interval (their
    sweep covers 1-30 minutes; five minutes is the optimum found in
    Fig. 10).  ``encounter_min_duration`` is the "certain period of time"
    of the encounter definition.

    The extraction is the vectorized kernel of
    :mod:`repro.analysis.fastchurn`; ``sessions`` may be records or a
    pre-built :class:`~repro.trace.columnar.SessionArrays` (e.g. from
    ``TraceBundle.columns()``).
    """
    if coleave_window <= 0 or cocome_window <= 0:
        raise ValueError("co-event windows must be positive")
    if encounter_min_duration < 0:
        raise ValueError("encounter duration must be non-negative")
    from repro.analysis.fastchurn import extract_churn_numpy

    with perf.timer("churn.extract"):
        return extract_churn_numpy(
            sessions, coleave_window, cocome_window, encounter_min_duration
        )


def coleaving_fraction_per_user(
    sessions: Union[Sequence[SessionRecord], "SessionArrays"],
    window: float,
) -> Dict[str, float]:
    """Fraction of each user's departures that are co-leavings (Fig. 5).

    A departure counts as a co-leaving when at least one *other* user left
    the same AP within ``window`` seconds (before or after).  Users with no
    departures are omitted.  Passing a shared
    :class:`~repro.trace.columnar.SessionArrays` lets the Fig. 5 window
    sweep pay the transpose once.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    from repro.analysis.fastchurn import coleaving_fraction_numpy

    with perf.timer("churn.fraction"):
        return coleaving_fraction_numpy(sessions, window)
