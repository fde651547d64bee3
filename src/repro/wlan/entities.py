"""Runtime state of the simulated WLAN: APs, controllers, the campus.

The *mutable* counterparts of the static
:class:`~repro.trace.social.CampusLayout`, and the one association state
replay, the prototype and the controller service keep: an
:class:`APRuntime` tracks who is associated at what rate, a
:class:`ControllerRuntime` groups one controller domain's APs and keeps,
when its strategy decides with a social model, one live
:class:`~repro.core.selection.CostIndex` that every associate and
disassociate updates.  Strategies never touch these objects — they
receive the domain's :class:`~repro.core.selection.Candidates`.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Optional, Sequence, Tuple

from repro.core.selection import APState, Candidates, CostIndex
from repro.core.social import SocialModel
from repro.trace.social import CampusLayout


class APRuntime:
    """One AP's live association table."""

    # Slots: the service's rank reads every AP's load on every arrival.
    __slots__ = ("ap_id", "bandwidth", "_sessions", "load", "_measured",
                 "_snapshot", "_seats", "_index", "_position")

    def __init__(self, ap_id: str, bandwidth: float) -> None:
        if not bandwidth > 0:
            raise ValueError(f"AP {ap_id}: non-positive or NaN bandwidth")
        self.ap_id = ap_id
        self.bandwidth = bandwidth
        self._sessions: Dict[str, float] = {}  # user id -> rate (bytes/s)
        #: Aggregate offered load (bytes/second): ``sum()`` of the
        #: associated users' rates in association order, exactly.  A
        #: join extends that left fold by its rate; a leave re-sums.  An
        #: empty table sums to the int 0.
        self.load: float = 0
        self._measured: float = 0.0
        # The measured snapshot, cached until the table or measured load moves.
        self._snapshot: Optional[APState] = None
        #: The domain's user -> AP id map, index and this AP's position
        #: there, set by its :class:`ControllerRuntime` (no back-reference,
        #: so no reference cycle).
        self._seats: Optional[Dict[str, str]] = None
        self._index: Optional[CostIndex] = None
        self._position = 0

    @property
    def measured_load(self) -> float:
        """Load as last *measured* by the controller.

        Real controllers poll AP traffic counters on an interval; between
        polls the view is stale.  Strategies see this value, never the
        instantaneous truth.  Only :meth:`record_measurement` moves it.
        """
        return self._measured

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
        hardware), here and anywhere else in the controller domain."""
        if rate < 0:
            raise ValueError(f"negative rate {rate!r}")
        seats = self._seats
        if seats is None:
            if user_id in self._sessions:
                raise ValueError(f"user {user_id} already associated to {self.ap_id}")
        else:
            seated = seats.get(user_id)
            if seated is not None:
                raise ValueError(f"user {user_id} already associated to {seated}")
            if self._index is not None:
                self._index.join(user_id, self._position)
            seats[user_id] = self.ap_id
        self._sessions[user_id] = rate
        self.load += rate
        self._snapshot = None

    def disassociate(self, user_id: str) -> float:
        """Detach a user; returns the rate it was carrying."""
        if user_id not in self._sessions:
            raise KeyError(f"user {user_id} not associated to {self.ap_id}")
        rate = self._sessions.pop(user_id)
        self.load = sum(self._sessions.values())
        self._snapshot = None
        if self._seats is not None:
            del self._seats[user_id]
            if self._index is not None:
                self._index.leave(user_id)
        return rate

    def record_measurement(self, load: float) -> None:
        """The controller measured ``load`` (a poll or a load report);
        the same value and type keeps the cached snapshot."""
        if load != self._measured or type(load) is not type(self._measured):
            self._measured = load
            self._snapshot = None

    def refresh_measurement(self) -> None:
        """One controller poll: the measured load catches up to the truth."""
        self.record_measurement(self.load)

    def snapshot(self, measured: bool = True) -> APState:
        """Immutable view for the selection algorithms.

        ``measured=True`` (the default) exposes the controller's last
        *polled* load — what a real WLAN controller acts on;
        ``measured=False`` the true load, for oracle experiments.  The
        association table (``users``) is always fresh: the controller
        manages associations itself.  The measured snapshot is cached
        until the table or the measured load changes; ``APState`` is
        frozen, so callers may share it.
        """
        if measured and self._snapshot is not None:
            return self._snapshot
        load = self._measured if measured else self.load
        state = APState(self.ap_id, self.bandwidth, load, self.users)
        if measured:
            self._snapshot = state
        return state

    def __repr__(self) -> str:
        return f"APRuntime({self.ap_id}, users={self.user_count}, load={self.load:.0f})"


class ControllerRuntime:
    """The APs of one controller domain and who is on each; with a
    ``social`` model, one live :class:`CostIndex` (positions follow
    :attr:`ap_ids`)."""

    def __init__(
        self,
        controller_id: str,
        aps: List[APRuntime],
        social: Optional[SocialModel] = None,
    ) -> None:
        if not aps:
            raise ValueError(f"controller {controller_id} has no APs")
        self.controller_id = controller_id
        self.aps: Dict[str, APRuntime] = {}
        for ap in sorted(aps, key=lambda ap: ap.ap_id):
            if ap.ap_id in self.aps:
                raise ValueError(f"duplicate AP id {ap.ap_id!r}")
            if ap._seats is not None:
                raise ValueError(f"AP {ap.ap_id} already has a controller")
            self.aps[ap.ap_id] = ap
        #: The APs in :attr:`ap_ids` order (index positions); ``aps`` is
        #: fixed after construction, so it is sorted once.
        self.ranked: Tuple[APRuntime, ...] = tuple(self.aps.values())
        self._positions = tuple(range(len(self.ranked)))
        residents = [ap._sessions for ap in self.ranked]
        self.index = None if social is None else CostIndex(social, residents)
        #: user id -> the id of the AP serving them in this domain.
        self._where: Dict[str, str] = {}
        for position, ap in enumerate(self.ranked):
            ap._seats, ap._index, ap._position = self._where, self.index, position
            for user_id in ap._sessions:
                self._where[user_id] = ap.ap_id

    @property
    def ap_ids(self) -> List[str]:
        """The domain's AP ids, sorted."""
        return [ap.ap_id for ap in self.ranked]

    def snapshots(
        self, measured: bool = True, down: Collection[str] = ()
    ) -> Candidates:
        """The strategies' view: every AP not ``down``, sorted by id, as
        immutable snapshots carrying the domain's live index."""
        if down:
            up = [ap for ap in self.ranked if ap.ap_id not in down]
            positions: Sequence[int] = [ap._position for ap in up]
        else:
            up, positions = self.ranked, self._positions
        return Candidates([ap.snapshot(measured) for ap in up], self.index, positions)

    def refresh_measurements(self) -> None:
        """Poll every AP: measured loads catch up to the truth."""
        for ap in self.ranked:
            ap.refresh_measurement()

    def loads(self) -> List[float]:
        """Current true loads, ordered by ap_ids."""
        return [ap.load for ap in self.ranked]

    def user_counts(self) -> List[int]:
        """Current association counts, ordered by ap_ids."""
        return [ap.user_count for ap in self.ranked]

    def total_users(self) -> int:
        """Users associated anywhere in the domain."""
        return len(self._where)

    def find_user(self, user_id: str) -> Optional[str]:
        """AP id currently serving ``user_id`` in this domain, if any."""
        return self._where.get(user_id)

    def leave(self, user_id: str) -> Optional[str]:
        """Disassociate ``user_id`` from whichever AP of the domain serves
        them; returns that AP's id, or None when they hold no link here."""
        ap_id = self._where.get(user_id)
        if ap_id is not None:
            self.aps[ap_id].disassociate(user_id)
        return ap_id


class CampusRuntime:
    """The whole campus: every controller, built from a static layout."""

    def __init__(
        self, layout: CampusLayout, social: Optional[SocialModel] = None
    ) -> None:
        self.layout = layout
        self.controllers: Dict[str, ControllerRuntime] = {}
        by_controller: Dict[str, List[APRuntime]] = {}
        for ap_info in layout.aps.values():
            by_controller.setdefault(ap_info.controller_id, []).append(
                APRuntime(ap_info.ap_id, ap_info.bandwidth)
            )
        for controller_id, aps in by_controller.items():
            self.controllers[controller_id] = ControllerRuntime(
                controller_id, aps, social
            )

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
