"""Runtime state of the simulated WLAN: APs, controllers, the campus.

These are the *mutable* counterparts of the static
:class:`~repro.trace.social.CampusLayout` description: an
:class:`APRuntime` tracks who is associated at what rate right now, a
:class:`ControllerRuntime` groups the APs of one controller domain, and
:class:`CampusRuntime` wires the whole campus.  Selection strategies never
touch these objects — they receive immutable
:class:`~repro.core.selection.APState` snapshots.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.selection import APState
from repro.trace.social import AccessPointInfo, CampusLayout


class APRuntime:
    """One AP's live association table."""

    def __init__(self, info: AccessPointInfo) -> None:
        self.info = info
        self._sessions: Dict[str, float] = {}  # user id -> rate (bytes/s)
        self._measured: float = 0.0
        # Derived state, cached until what it derives from changes: the
        # true load until the association table changes, the measured
        # snapshot until the table or the measured load changes.
        self._load: Optional[float] = None
        self._snapshot: Optional[APState] = None

    @property
    def ap_id(self) -> str:
        """This AP's identifier."""
        return self.info.ap_id

    @property
    def measured_load(self) -> float:
        """Load as last *measured* by the controller.

        Real controllers poll AP traffic counters on an interval; between
        polls the view is stale.  Strategies see this value, never the
        instantaneous truth.  Only :meth:`refresh_measurement` moves it.
        """
        return self._measured

    @property
    def load(self) -> float:
        """Aggregate offered load (bytes/second) of associated users."""
        load = self._load
        if load is None:
            # An empty table sums to the int 0; the cache keeps that type.
            load = self._load = sum(self._sessions.values())
        return load

    @property
    def user_count(self) -> int:
        """Number of associated users."""
        return len(self._sessions)

    @property
    def users(self) -> Tuple[str, ...]:
        """Associated user ids, sorted."""
        return tuple(sorted(self._sessions))

    def is_associated(self, user_id: str) -> bool:
        """True when the user currently holds a link here."""
        return user_id in self._sessions

    def associate(self, user_id: str, rate: float) -> None:
        """Attach a user.  Double association is a simulator bug: a station
        holds one link at a time (the paper explicitly rules out multi-link
        hardware)."""
        if rate < 0:
            raise ValueError(f"negative rate {rate!r}")
        if user_id in self._sessions:
            raise ValueError(f"user {user_id} already associated to {self.ap_id}")
        self._sessions[user_id] = rate
        self._load = None
        self._snapshot = None

    def disassociate(self, user_id: str) -> float:
        """Detach a user; returns the rate it was carrying."""
        if user_id not in self._sessions:
            raise KeyError(f"user {user_id} not associated to {self.ap_id}")
        rate = self._sessions.pop(user_id)
        self._load = None
        self._snapshot = None
        return rate

    def refresh_measurement(self) -> None:
        """One controller poll: the measured load catches up to the truth.

        A poll that reads back the value (and type) already measured keeps
        the cached snapshot.
        """
        load = self.load
        if load != self._measured or type(load) is not type(self._measured):
            self._measured = load
            self._snapshot = None

    def snapshot(self, measured: bool = True) -> APState:
        """Immutable view for the selection algorithms.

        ``measured=True`` (the default) exposes the controller's last
        *polled* load — what a real WLAN controller acts on.  The
        association table (``users``) is always fresh: the controller
        manages associations itself.  Pass ``measured=False`` only for
        oracle experiments.  The measured snapshot is cached until the
        association table or the measured load changes; ``APState`` is
        frozen, so callers may share it.
        """
        if not measured:
            return self._state(self.load)
        snapshot = self._snapshot
        if snapshot is None:
            snapshot = self._snapshot = self._state(self._measured)
        return snapshot

    def _state(self, load: float) -> APState:
        return APState(
            ap_id=self.ap_id,
            bandwidth=self.info.bandwidth,
            load=load,
            users=self.users,
        )

    def __repr__(self) -> str:
        return f"APRuntime({self.ap_id}, users={self.user_count}, load={self.load:.0f})"


class ControllerRuntime:
    """The APs of one controller domain."""

    def __init__(self, controller_id: str, aps: List[APRuntime]) -> None:
        if not aps:
            raise ValueError(f"controller {controller_id} has no APs")
        self.controller_id = controller_id
        self.aps: Dict[str, APRuntime] = {ap.ap_id: ap for ap in aps}
        # ``aps`` is fixed after construction: sort it once.
        self._sorted: Tuple[APRuntime, ...] = tuple(
            self.aps[ap_id] for ap_id in sorted(self.aps)
        )

    @property
    def ap_ids(self) -> List[str]:
        """The domain's AP ids, sorted."""
        return [ap.ap_id for ap in self._sorted]

    def snapshots(self, measured: bool = True) -> List[APState]:
        """Immutable APState views of every AP, sorted by id."""
        return [ap.snapshot(measured=measured) for ap in self._sorted]

    def refresh_measurements(self) -> None:
        """Poll every AP: measured loads catch up to the truth."""
        for ap in self.aps.values():
            ap.refresh_measurement()

    def loads(self) -> List[float]:
        """Current true loads, ordered by ap_ids."""
        return [ap.load for ap in self._sorted]

    def user_counts(self) -> List[int]:
        """Current association counts, ordered by ap_ids."""
        return [ap.user_count for ap in self._sorted]

    def find_user(self, user_id: str) -> Optional[str]:
        """AP id currently serving ``user_id`` in this domain, if any."""
        for ap in self._sorted:
            if ap.is_associated(user_id):
                return ap.ap_id
        return None


class CampusRuntime:
    """The whole campus: every controller, built from a static layout."""

    def __init__(self, layout: CampusLayout) -> None:
        self.layout = layout
        self.controllers: Dict[str, ControllerRuntime] = {}
        by_controller: Dict[str, List[APRuntime]] = {}
        for ap_info in layout.aps.values():
            by_controller.setdefault(ap_info.controller_id, []).append(
                APRuntime(ap_info)
            )
        for controller_id, aps in by_controller.items():
            aps.sort(key=lambda ap: ap.ap_id)
            self.controllers[controller_id] = ControllerRuntime(controller_id, aps)

    def controller_for_building(self, building_id: str) -> ControllerRuntime:
        """The controller runtime serving a building."""
        building = self.layout.buildings.get(building_id)
        if building is None:
            raise KeyError(f"unknown building {building_id!r}")
        return self.controllers[building.controller_id]

    def ap(self, ap_id: str) -> APRuntime:
        """Look up one AP runtime by id."""
        controller_id = self.layout.controller_of_ap(ap_id)
        return self.controllers[controller_id].aps[ap_id]

    def total_users(self) -> int:
        """Campus-wide association count."""
        return sum(
            ap.user_count
            for controller in self.controllers.values()
            for ap in controller.aps.values()
        )

    def total_load(self) -> float:
        """Campus-wide offered load (bytes/second)."""
        return sum(
            ap.load
            for controller in self.controllers.values()
            for ap in controller.aps.values()
        )
