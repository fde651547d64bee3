"""The lightweight-AP daemon of the prototype.

Responsibilities, matching a thin-AP architecture:

* answer probe requests with a probe response carrying the RSSI the
  station would see (computed from the radio model);
* answer authentication requests (always open-auth success here);
* relay association requests to the WLAN controller as a steering query
  and translate the controller's directive into the association response
  (accept here, or redirect to the AP the strategy chose);
* maintain the local association table — an
  :class:`~repro.wlan.entities.APRuntime`, which the controller reads as
  part of its domain — and report its load on demand.

Degradation contract: the controller is allowed to be slow, lossy or
gone.  Every steering query arms a simulation-clock timeout; an
unanswered query is retried up to ``max_query_retries`` times with
exponential backoff (``query_timeout * 2**attempt`` — pure clock
arithmetic, no random draws, so two same-seed runs degrade identically).
When the retries are exhausted the AP answers the station *locally* from
the RSSI report it already holds — strongest signal wins, the vendor
default S³ would replace — and counts the event in ``local_fallbacks``.
A controller endpoint that is not even on the bus (daemon crashed, no
link policy to absorb the send) is counted in ``controller_unreachable``
instead of raising out of the handshake.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.prototype.messages import (
    AssocRequest,
    AssocResponse,
    AuthRequest,
    AuthResponse,
    Disassociation,
    Frame,
    LoadReport,
    ProbeRequest,
    ProbeResponse,
    RedirectDirective,
    SteeringQuery,
)
from repro.prototype.transport import MessageBus
from repro.sim.kernel import Event
from repro.trace.social import AccessPointInfo
from repro.wlan.entities import APRuntime, ControllerRuntime
from repro.wlan.radio import path_loss_rssi


@dataclass
class _PendingQuery:
    """One station's unanswered steering query."""

    rssi_report: Tuple[Tuple[str, float], ...]
    attempt: int
    timer: Optional[Event]


class APDaemon:
    """One AP endpoint on the bus."""

    def __init__(
        self,
        info: AccessPointInfo,
        bus: MessageBus,
        controller_endpoint: str,
        query_timeout: float = 0.5,
        max_query_retries: int = 2,
    ) -> None:
        if query_timeout <= 0:
            raise ValueError(f"query_timeout must be positive: {query_timeout!r}")
        if max_query_retries < 0:
            raise ValueError(
                f"max_query_retries must be >= 0: {max_query_retries!r}"
            )
        self.info = info
        self.bus = bus
        self.controller_endpoint = controller_endpoint
        self.query_timeout = query_timeout
        self.max_query_retries = max_query_retries
        #: The association table (station id -> offered rate, bytes/s).
        self.runtime = APRuntime(info.ap_id, info.bandwidth)
        #: The controller domain of the table, set by the controller daemon.
        self.domain: Optional[ControllerRuntime] = None
        #: station id -> in-flight steering query while the controller decides.
        self._pending: Dict[str, _PendingQuery] = {}
        #: Associations answered locally after the controller went silent.
        self.local_fallbacks = 0
        #: Steering queries re-sent after a timeout.
        self.query_retries = 0
        #: Sends that found no controller endpoint on the bus at all.
        self.controller_unreachable = 0
        bus.register(self.endpoint, self.handle)

    @property
    def endpoint(self) -> str:
        """This daemon's bus address."""
        return f"ap:{self.info.ap_id}"

    # ------------------------------------------------------------- handlers

    def handle(self, frame: Frame) -> None:
        """Dispatch one incoming frame."""
        if isinstance(frame, ProbeRequest):
            self._on_probe(frame)
        elif isinstance(frame, AuthRequest):
            self._on_auth(frame)
        elif isinstance(frame, AssocRequest):
            self._on_assoc(frame)
        elif isinstance(frame, RedirectDirective):
            self._on_directive(frame)
        elif isinstance(frame, Disassociation):
            self._on_disassociation(frame)
        else:
            raise TypeError(f"AP {self.info.ap_id}: unexpected frame {frame!r}")

    def _on_probe(self, frame: ProbeRequest) -> None:
        # Station position is encoded in the probe's src endpoint by the
        # Station object; the station computes its own RSSI when receiving
        # the response, so the AP just answers with its identity and a
        # nominal signal (stations overwrite it with the radio model).
        self.bus.send(
            ProbeResponse(
                src=self.endpoint,
                dst=frame.src,
                ap_id=self.info.ap_id,
                rssi_dbm=path_loss_rssi(1.0),
            )
        )

    def _on_auth(self, frame: AuthRequest) -> None:
        self.bus.send(
            AuthResponse(
                src=self.endpoint,
                dst=frame.src,
                ap_id=self.info.ap_id,
                success=True,
            )
        )

    def _on_assoc(self, frame: AssocRequest) -> None:
        # Thin AP: the controller decides.  Remember who asked so the
        # directive can be answered back to the right station.  A
        # retransmitted request (the station's own timeout fired while
        # this AP is still querying) must not reset the retry ladder.
        if frame.station_id in self._pending:
            return
        self._pending[frame.station_id] = _PendingQuery(
            rssi_report=frame.rssi_report, attempt=0, timer=None
        )
        self._send_query(frame.station_id)

    def _send_query(self, station_id: str) -> None:
        pending = self._pending[station_id]
        self._send_to_controller(
            SteeringQuery(
                src=self.endpoint,
                dst=self.controller_endpoint,
                station_id=station_id,
                via_ap=self.info.ap_id,
                rssi_report=pending.rssi_report,
            )
        )
        backoff = self.query_timeout * (2.0 ** pending.attempt)
        pending.timer = self.bus.sim.schedule_after(
            backoff,
            lambda: self._on_query_timeout(station_id),
            name=f"steer-timeout-{self.info.ap_id}-{station_id}",
        )

    def _on_query_timeout(self, station_id: str) -> None:
        pending = self._pending.get(station_id)
        if pending is None:
            return  # the directive arrived; stale timer
        pending.timer = None
        if pending.attempt < self.max_query_retries:
            pending.attempt += 1
            self.query_retries += 1
            self._send_query(station_id)
            return
        # Retries exhausted: answer locally.  Strongest signal from the
        # station's own scan report wins; this AP accepts when it is the
        # strongest (or the report is empty) and redirects otherwise, so
        # a whole building of silent-controller APs converges on plain
        # strongest-signal association.
        del self._pending[station_id]
        self.local_fallbacks += 1
        target = self._strongest_from_report(pending.rssi_report)
        self._answer_station(station_id, target)

    def _strongest_from_report(
        self, report: Tuple[Tuple[str, float], ...]
    ) -> str:
        if not report:
            return self.info.ap_id
        return max(report, key=lambda item: (item[1], item[0]))[0]

    def _answer_station(self, station_id: str, target_ap: str) -> None:
        accepted = target_ap == self.info.ap_id
        if accepted and not self.runtime.is_associated(station_id):
            # One link per station: an accept lost elsewhere, or a late
            # duplicate request redirected here, moves the seat.
            if self.domain is not None:
                self.domain.leave(station_id)
            self.runtime.associate(station_id, 0.0)
        self.bus.send(
            AssocResponse(
                src=self.endpoint,
                dst=f"sta:{station_id}",
                ap_id=self.info.ap_id,
                accepted=accepted,
                redirect_to=None if accepted else target_ap,
            )
        )

    def _send_to_controller(self, frame: Frame) -> bool:
        """Send ``frame`` to the controller; False when it is off the bus."""
        try:
            self.bus.send(frame)
        except KeyError:
            self.controller_unreachable += 1
            return False
        return True

    def _on_directive(self, frame: RedirectDirective) -> None:
        pending = self._pending.pop(frame.station_id, None)
        if pending is None:
            return  # station gave up (or we already fell back) meanwhile
        if pending.timer is not None and not pending.timer.cancelled:
            pending.timer.cancel()
        self._answer_station(frame.station_id, frame.target_ap)

    def _on_disassociation(self, frame: Disassociation) -> None:
        if self.runtime.is_associated(frame.station_id):
            self.runtime.disassociate(frame.station_id)

    # --------------------------------------------------------------- extras

    def report_load(self) -> LoadReport:
        """The periodic CAPWAP-style load report to the controller."""
        report = LoadReport(
            src=self.endpoint,
            dst=self.controller_endpoint,
            ap_id=self.info.ap_id,
            load=self.runtime.load,
            user_count=self.runtime.user_count,
        )
        self._send_to_controller(report)
        return report
