"""Pure-Python churn extraction: the test oracle of the numpy kernels.

:func:`repro.analysis.churn.extract_churn` and
:func:`~repro.analysis.churn.coleaving_fraction_per_user` run the
vectorized kernels of :mod:`repro.analysis.fastchurn`.  These loops are
the straightforward per-AP reading of the paper's event definitions
(Section III.D); the parity tests require the kernels to reproduce them
exactly — same events, same floats, same list order.  Parameters are
assumed valid.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.analysis.churn import (
    ChurnEvents,
    CoEvent,
    Encounter,
    LeaveEvent,
    make_pair,
)
from repro.trace.records import SessionRecord


def _co_events_on_ap(
    kind: str,
    ap_id: str,
    events: List[Tuple[float, str]],
    window: float,
) -> List[CoEvent]:
    """Pair up time-sorted (time, user) events that fall within ``window``.

    For each event, later events of *other* users within ``window`` seconds
    form one co-event per pair occurrence.  A user leaving twice inside a
    window (reconnect churn) pairs each occurrence independently.
    """
    events = sorted(events)
    out: List[CoEvent] = []
    for i, (t_i, user_i) in enumerate(events):
        for t_j, user_j in events[i + 1 :]:
            if t_j - t_i > window:
                break
            if user_j == user_i:
                continue
            out.append(
                CoEvent(
                    kind=kind,
                    pair=make_pair(user_i, user_j),
                    ap_id=ap_id,
                    times=(t_i, t_j) if user_i < user_j else (t_j, t_i),
                )
            )
    return out


def _encounters_on_ap(
    ap_id: str,
    sessions: List[SessionRecord],
    min_duration: float,
) -> List[Encounter]:
    """Sweep-line pairwise overlap detection on one AP."""
    ordered = sorted(sessions, key=lambda s: s.connect)
    active: List[SessionRecord] = []
    out: List[Encounter] = []
    for session in ordered:
        active = [s for s in active if s.disconnect > session.connect]
        for other in active:
            if other.user_id == session.user_id:
                continue
            start = max(session.connect, other.connect)
            end = min(session.disconnect, other.disconnect)
            if end - start >= min_duration:
                out.append(
                    Encounter(
                        pair=make_pair(session.user_id, other.user_id),
                        ap_id=ap_id,
                        start=start,
                        end=end,
                    )
                )
        active.append(session)
    return out


def extract_churn_python(
    sessions: Sequence[SessionRecord],
    coleave_window: float,
    cocome_window: float,
    encounter_min_duration: float,
) -> ChurnEvents:
    """The pure-Python extraction: the oracle of ``extract_churn``."""
    by_ap: Dict[str, List[SessionRecord]] = {}
    for record in sessions:
        by_ap.setdefault(record.ap_id, []).append(record)

    events = ChurnEvents()
    for ap_id in sorted(by_ap):
        ap_sessions = by_ap[ap_id]
        leaves = [(s.disconnect, s.user_id) for s in ap_sessions]
        comes = [(s.connect, s.user_id) for s in ap_sessions]
        events.leavings.extend(
            LeaveEvent(user_id=u, ap_id=ap_id, time=t) for t, u in sorted(leaves)
        )
        events.arrivals.extend(
            LeaveEvent(user_id=u, ap_id=ap_id, time=t) for t, u in sorted(comes)
        )
        events.co_leavings.extend(
            _co_events_on_ap("co-leave", ap_id, leaves, coleave_window)
        )
        events.co_comings.extend(
            _co_events_on_ap("co-come", ap_id, comes, cocome_window)
        )
        events.encounters.extend(
            _encounters_on_ap(ap_id, ap_sessions, encounter_min_duration)
        )
    return events


def coleaving_fraction_python(
    sessions: Sequence[SessionRecord], window: float
) -> Dict[str, float]:
    """The pure-Python scan: the oracle of ``coleaving_fraction_per_user``."""
    by_ap: Dict[str, List[Tuple[float, str]]] = {}
    for record in sessions:
        by_ap.setdefault(record.ap_id, []).append((record.disconnect, record.user_id))

    total: Dict[str, int] = {}
    shared: Dict[str, int] = {}
    for ap_id, leaves in by_ap.items():
        leaves.sort()
        times = [t for t, _ in leaves]
        for i, (t_i, user_i) in enumerate(leaves):
            total[user_i] = total.get(user_i, 0) + 1
            is_shared = False
            # scan backwards
            j = i - 1
            while j >= 0 and t_i - times[j] <= window:
                if leaves[j][1] != user_i:
                    is_shared = True
                    break
                j -= 1
            if not is_shared:
                j = i + 1
                while j < len(leaves) and times[j] - t_i <= window:
                    if leaves[j][1] != user_i:
                        is_shared = True
                        break
                    j += 1
            if is_shared:
                shared[user_i] = shared.get(user_i, 0) + 1
    return {
        user: shared.get(user, 0) / count for user, count in total.items() if count > 0
    }
