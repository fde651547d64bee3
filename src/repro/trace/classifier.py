"""Port-combination heuristic application classifier.

Section III.A: "By analyzing the port combination using certain heuristics
[1], concrete applications can be accurately identified."  The classifier
here follows that approach: an exact (protocol, server-port) lookup built
from the shared application table, plus two fallback heuristics for flows
whose server port is not in the table:

* ephemeral-pair heuristic — both endpoints on high ports (>= 10000) with a
  symmetric port pattern is characteristic of P2P swarms;
* web fallback — tcp flows to low registered ports default to web-browsing,
  the realm that absorbs miscellaneous HTTP-tunnelled traffic.

Flows that match nothing are left unclassified (``None``); the analysis
layer drops them, matching the paper's "top 30 applications constitute the
vast majority" argument.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.trace.apps import AppRealm, N_REALMS, port_table
from repro.trace.columnar import FLOW_PROTOCOLS, FlowArrays
from repro.trace.records import FlowRecord


class PortClassifier:
    """Classify flows into the six application realms by port heuristics."""

    #: Ports >= this value are considered ephemeral / unregistered.
    EPHEMERAL_FLOOR = 10000

    def __init__(self, table: Optional[Mapping[Tuple[str, int], AppRealm]] = None) -> None:
        self._table: Dict[Tuple[str, int], AppRealm] = dict(
            table if table is not None else port_table()
        )

    def classify_ports(
        self, protocol: str, src_port: int, dst_port: int
    ) -> Optional[AppRealm]:
        """Realm for a (protocol, src, dst) port combination, or ``None``.

        The server-side (destination) port is authoritative; the source
        port is consulted only by the fallback heuristics.
        """
        realm = self._table.get((protocol, dst_port))
        if realm is not None:
            return realm
        # Heuristic 1: symmetric high-port pairs look like P2P swarm traffic.
        if src_port >= self.EPHEMERAL_FLOOR and dst_port >= self.EPHEMERAL_FLOOR:
            return AppRealm.P2P
        # Heuristic 2: tcp to a low registered port we do not know defaults
        # to web-browsing (HTTP-tunnelled long tail).
        if protocol == "tcp" and dst_port < 1024:
            return AppRealm.WEB
        return None

    def classify_columns(self, flows: FlowArrays) -> np.ndarray:
        """The realm code of every row of ``flows``; ``-1`` when unidentified.

        :meth:`classify_ports` over whole columns: the table is looked up
        once per distinct ``(protocol, dst_port)``, and the two fallback
        heuristics are applied to the misses as vector masks.
        """
        keys, inverse = np.unique(
            flows.protocol.astype(np.int64) * 65536 + flows.dst_port,
            return_inverse=True,
        )
        looked_up = np.array(
            [
                self._table.get((FLOW_PROTOCOLS[key >> 16], key & 65535), -1)
                for key in keys.tolist()
            ],
            dtype=np.int64,
        )
        realms = looked_up[inverse]
        miss = realms < 0
        floor = self.EPHEMERAL_FLOOR
        p2p = miss & (flows.src_port >= floor) & (flows.dst_port >= floor)
        realms[p2p] = AppRealm.P2P
        tcp = FLOW_PROTOCOLS.index("tcp")
        web = miss & ~p2p & (flows.protocol == tcp) & (flows.dst_port < 1024)
        realms[web] = AppRealm.WEB
        return realms

    def classify(self, flow: FlowRecord) -> Optional[AppRealm]:
        """Realm of one flow record, or ``None`` when unidentifiable."""
        return self.classify_ports(flow.protocol, flow.src_port, flow.dst_port)

    def classify_all(
        self, flows: Iterable[FlowRecord]
    ) -> List[Tuple[FlowRecord, Optional[AppRealm]]]:
        """Classify a batch, preserving order."""
        return [(flow, self.classify(flow)) for flow in flows]

    def realm_volumes(self, flows: Iterable[FlowRecord]) -> np.ndarray:
        """Total classified bytes per realm over ``flows`` (6-vector).

        Unclassified flows contribute nothing, mirroring the paper's
        restriction to the identified top applications.
        """
        volumes = np.zeros(N_REALMS)
        for flow in flows:
            realm = self.classify(flow)
            if realm is not None:
                volumes[realm] += flow.bytes_total
        return volumes

    def coverage(self, flows: Iterable[FlowRecord]) -> float:
        """Fraction of bytes the classifier can attribute to a realm.

        A sanity metric: on synthetic traces this should be close to 1.0
        because the generator emits ports from the shared table.
        """
        classified = 0.0
        total = 0.0
        for flow in flows:
            total += flow.bytes_total
            if self.classify(flow) is not None:
                classified += flow.bytes_total
        if total <= 0:
            return 1.0
        return classified / total
