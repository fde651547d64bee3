"""Test oracles of the social model's fast paths.

:meth:`repro.core.social.SocialModel.build_graph` thresholds one cached
dense delta matrix per member set.  :func:`build_graph_pairwise` asks
:meth:`~repro.core.social.SocialModel.social_index` for every pair
instead; the parity tests require the same nodes, the same edges with
the same weights, in the same insertion order.

:meth:`repro.core.online.OnlineLearner.on_departure` folds a departure's
pairs in one :meth:`~repro.core.social.SocialModel.record_departure`
call.  :func:`per_pair_departure` is the step it replaced: each
resident's overlap as ``time - max(joined_at, other_joined)``, a scan of
the whole departure ring, and one ``record_events`` call per pair.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.core.online import OnlineLearner
from repro.core.social import SocialModel
from repro.graph.graph import Graph


def build_graph_pairwise(
    model: SocialModel, users: Iterable[str], threshold: float = 0.3
) -> Graph:
    """Every user a node; an edge for each pair with delta > threshold."""
    members = sorted(set(users))
    graph = Graph()
    for user in members:
        graph.add_node(user)
    for i, user_a in enumerate(members):
        for user_b in members[i + 1 :]:
            delta = model.social_index(user_a, user_b)
            if delta > threshold:
                graph.add_edge(user_a, user_b, delta)
    return graph


def per_pair_departure(
    learner: OnlineLearner, user_id: str, ap_id: str, time: float
) -> None:
    """The departure step of ``learner``, one ``record_events`` per pair."""
    present = learner._present.setdefault(ap_id, {})
    joined_at = present.pop(user_id, None)
    if joined_at is None:
        return
    config = learner.config
    for other, other_joined in present.items():
        overlap = time - max(joined_at, other_joined)
        if overlap >= config.encounter_min_duration:
            learner.social.record_events(user_id, other, encounters=1)
            learner.encounters_recorded += 1
    ring = learner._departures.setdefault(ap_id, deque())
    horizon = time - config.departure_memory
    while ring and ring[0][0] < horizon:
        ring.popleft()
    for departed_at, other in ring:
        if other == user_id:
            continue
        if time - departed_at <= config.coleave_window:
            learner.social.record_events(user_id, other, co_leavings=1)
            learner.co_leavings_recorded += 1
    ring.append((time, user_id))
