"""The pairwise social-graph loop: the test oracle of ``build_graph``.

:meth:`repro.core.social.SocialModel.build_graph` thresholds one cached
dense delta matrix per member set.  This loop asks
:meth:`~repro.core.social.SocialModel.social_index` for every pair
instead; the parity tests require the same nodes, the same edges with
the same weights, in the same insertion order.
"""

from __future__ import annotations

from typing import Iterable

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
