"""The assembled prototype testbed and the feasibility demo.

:class:`Testbed` wires one controller domain — APs, controller with a
selection strategy, a message bus on a shared simulation kernel — and
offers station lifecycle helpers.  :func:`run_feasibility_demo` is the
paper's Section-V prototype experiment in miniature: a wave of stations
joins (with the S³ strategy steering them), traffic flows, a social group
leaves together, and the report verifies that

* every station completed the handshake (feasibility),
* the controller made one decision per association,
* redirects stayed within protocol bounds, and
* the post-co-leave balance stayed high (the design goal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.balance import normalized_balance_index
from repro.prototype.ap_daemon import APDaemon
from repro.prototype.controller_daemon import ControllerDaemon
from repro.prototype.station import Station
from repro.prototype.transport import LinkPolicy, MessageBus
from repro.sim.kernel import Simulator
from repro.trace.social import CampusLayout
from repro.wlan.radio import sample_position
from repro.wlan.strategies import SelectionStrategy


class Testbed:
    """One controller domain as live daemons on a message bus."""

    # Not a pytest test class, despite the name (pytest collects Test*).
    __test__ = False

    def __init__(
        self,
        layout: CampusLayout,
        building_id: str,
        strategy: SelectionStrategy,
        latency: float = 0.002,
        link_policy: Optional[LinkPolicy] = None,
    ) -> None:
        self.layout = layout
        self.building_id = building_id
        self.sim = Simulator()
        self.bus = MessageBus(self.sim, latency=latency, link_policy=link_policy)
        building = layout.buildings[building_id]
        self.aps: List[APDaemon] = [
            APDaemon(info, self.bus, controller_endpoint=f"ctrl:{building.controller_id}")
            for info in layout.aps_of_building(building_id)
        ]
        self.controller = ControllerDaemon(
            building.controller_id, self.aps, strategy, self.bus
        )
        self.stations: Dict[str, Station] = {}

    def add_station(
        self, station_id: str, rng: Optional[np.random.Generator] = None
    ) -> Station:
        """Create a station at a random position in the building."""
        rng = rng if rng is not None else np.random.default_rng(0)
        position = sample_position(self.layout.buildings[self.building_id], rng)
        station = Station(
            station_id,
            position,
            self.layout.aps_of_building(self.building_id),
            self.bus,
        )
        self.stations[station_id] = station
        return station

    def join_at(self, station_id: str, time: float) -> None:
        """Schedule the station's scan (and thus join) at ``time``."""
        station = self.stations[station_id]
        self.sim.schedule(time, station.scan, name=f"scan-{station_id}")

    def leave_at(self, station_id: str, time: float) -> None:
        """Schedule the station's disassociation at the given time."""
        station = self.stations[station_id]
        self.sim.schedule(time, station.leave, name=f"leave-{station_id}")

    def poll_loads_every(self, interval: float) -> None:
        """Schedule periodic AP load reports to the controller."""
        self.sim.every(interval, self.controller.poll_loads)

    def run(self, until: float) -> None:
        """Drive the simulation until the given time."""
        self.sim.run(until=until)

    # -------------------------------------------------------------- queries

    def association_counts(self) -> Dict[str, int]:
        """Current station count per AP."""
        return {ap.info.ap_id: ap.runtime.user_count for ap in self.aps}

    def balance_of_counts(self) -> float:
        """Normalized balance index of the association counts."""
        return normalized_balance_index(
            [ap.runtime.user_count for ap in self.aps]
        )


@dataclass
class TestbedReport:
    """Outcome of the feasibility demo."""

    __test__ = False  # pytest: not a test class despite the Test* name

    stations_joined: int
    stations_total: int
    decisions: int
    redirects: int
    frames_delivered: int
    association_counts_before_leave: Dict[str, int]
    association_counts_after_leave: Dict[str, int]
    balance_after_leave: float

    @property
    def all_joined(self) -> bool:
        """True when every station completed association."""
        return self.stations_joined == self.stations_total

    def render(self) -> str:
        """Human-readable multi-line report."""
        return "\n".join(
            [
                "Prototype feasibility report",
                f"  stations joined: {self.stations_joined}/{self.stations_total}",
                f"  controller decisions: {self.decisions}",
                f"  redirects: {self.redirects}",
                f"  frames on the bus: {self.frames_delivered}",
                f"  association counts before group leave: "
                f"{self.association_counts_before_leave}",
                f"  association counts after group leave: "
                f"{self.association_counts_after_leave}",
                f"  user-count balance after co-leave: "
                f"{self.balance_after_leave:.3f}",
            ]
        )


def run_feasibility_demo(
    strategy: SelectionStrategy,
    n_background: int = 12,
    group_size: int = 8,
    n_aps: int = 4,
    seed: int = 7,
) -> TestbedReport:
    """The Section-V prototype scenario on the message-level testbed."""
    layout = CampusLayout.grid(1, n_aps)
    building_id = sorted(layout.buildings)[0]
    testbed = Testbed(layout, building_id, strategy)
    rng = np.random.default_rng(seed)

    background = [f"bg{i:02d}" for i in range(n_background)]
    group = [f"grp{i:02d}" for i in range(group_size)]
    for i, station_id in enumerate(background):
        testbed.add_station(station_id, rng)
        testbed.join_at(station_id, 1.0 + 2.0 * i)
    for i, station_id in enumerate(group):
        testbed.add_station(station_id, rng)
        testbed.join_at(station_id, 40.0 + 1.5 * i)
    testbed.poll_loads_every(10.0)

    # Let everyone join, then snapshot, then the group co-leaves.
    testbed.run(until=100.0)
    counts_before = testbed.association_counts()
    for i, station_id in enumerate(group):
        testbed.leave_at(station_id, 100.5 + 0.1 * i)
    testbed.run(until=130.0)
    counts_after = testbed.association_counts()

    joined = sum(
        1
        for station in testbed.stations.values()
        if station.log.count("associated:") > 0
    )
    redirects = sum(
        station.log.count("redirected:") for station in testbed.stations.values()
    )
    return TestbedReport(
        stations_joined=joined,
        stations_total=len(testbed.stations),
        decisions=testbed.controller.decisions,
        redirects=redirects,
        frames_delivered=testbed.bus.frames_delivered,
        association_counts_before_leave=counts_before,
        association_counts_after_leave=counts_after,
        balance_after_leave=testbed.balance_of_counts(),
    )
