"""The WLAN-controller daemon of the prototype.

Holds the pluggable selection strategy (S³ or a baseline) and answers
steering queries from its APs: read its controller domain — a
:class:`~repro.wlan.entities.ControllerRuntime` over the APs' own
association tables, with the live cost index when the strategy decides
with a social model; loads are the last LoadReport of each AP, mirroring
the measured-load semantics of the replay engine — run the strategy, and
direct the station to the chosen AP.
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.records import DecisionRecord, candidates_from_states
from repro.obs.tracer import get_tracer
from repro.prototype.ap_daemon import APDaemon
from repro.prototype.messages import (
    Frame,
    LoadReport,
    RedirectDirective,
    SteeringQuery,
)
from repro.prototype.transport import MessageBus
from repro.wlan.entities import ControllerRuntime
from repro.wlan.strategies import SelectionStrategy


class ControllerDaemon:
    """One controller endpoint commanding a set of AP daemons."""

    def __init__(
        self,
        controller_id: str,
        aps: List[APDaemon],
        strategy: SelectionStrategy,
        bus: MessageBus,
    ) -> None:
        if not aps:
            raise ValueError(f"controller {controller_id} has no APs")
        self.controller_id = controller_id
        self.strategy = strategy
        self.bus = bus
        self.aps: Dict[str, APDaemon] = {ap.info.ap_id: ap for ap in aps}
        self.runtime = ControllerRuntime(
            controller_id, [ap.runtime for ap in aps], strategy.social
        )
        for ap in aps:
            ap.domain = self.runtime
        self.decisions = 0
        bus.register(self.endpoint, self.handle)

    @property
    def endpoint(self) -> str:
        """This daemon's bus address."""
        return f"ctrl:{self.controller_id}"

    # ------------------------------------------------------------- handlers

    def handle(self, frame: Frame) -> None:
        """Dispatch one incoming frame."""
        if isinstance(frame, SteeringQuery):
            self._on_query(frame)
        elif isinstance(frame, LoadReport):
            self.runtime.aps[frame.ap_id].record_measurement(frame.load)
        else:
            raise TypeError(
                f"controller {self.controller_id}: unexpected frame {frame!r}"
            )

    def _on_query(self, frame: SteeringQuery) -> None:
        states = self.runtime.snapshots()
        rssi = dict(frame.rssi_report) if frame.rssi_report else None
        target = self.strategy.select(frame.station_id, states, rssi=rssi)
        if target not in self.aps:
            raise RuntimeError(
                f"strategy {self.strategy.name} chose unknown AP {target!r}"
            )
        self.decisions += 1
        tracer = get_tracer()
        if tracer.enabled:
            # Same provenance as the replay engine, but the prototype runs
            # in wall time: sim_time is null and the batch id counts
            # steering queries.
            scores = self.strategy.score_candidates(
                frame.station_id, states, rssi=rssi
            )
            tracer.decision(
                DecisionRecord(
                    user_id=frame.station_id,
                    strategy=self.strategy.name,
                    controller_id=self.controller_id,
                    batch_id=f"query#{self.decisions}",
                    sim_time=None,
                    chosen=target,
                    candidates=candidates_from_states(states, scores),
                    mode="query",
                )
            )
        self.bus.send(
            RedirectDirective(
                src=self.endpoint,
                dst=f"ap:{frame.via_ap}",
                station_id=frame.station_id,
                target_ap=target,
            )
        )

    # -------------------------------------------------------------- helpers

    def poll_loads(self) -> None:
        """Trigger a load report from every AP (the measurement cycle)."""
        for ap_id in sorted(self.aps):
            self.aps[ap_id].report_load()
