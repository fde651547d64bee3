"""The ground-truth social world behind the synthetic campus trace.

The paper's key empirical findings are *social*: users attend shared
activities (classes, meetings), arrive and — crucially — leave together,
and users of the same application-usage type co-leave far more often than
cross-type pairs (Table I).  This module models exactly that ground truth:

* :class:`CampusLayout` — buildings, one WLAN controller per building,
  several APs per building, with 2-D positions for the radio model;
* :class:`UserTypeProfile` — the four planted usage types whose centroids
  Fig. 8 recovers (web/IM, P2P, video, music/e-mail mixes);
* :class:`UserInfo` — a user: type, per-user interest vector (a Dirichlet
  perturbation of the type profile), home building, sociality level;
* :class:`SocialGroup` — a recurring activity group: members, venue
  building, weekly schedule slots, arrival / departure jitter (small
  departure jitter is what produces co-leaving events);
* :class:`SocialWorld` — the assembled world plus the
  :func:`build_world` constructor that wires users into groups with
  controllable type homogeneity.

None of the ground truth here is visible to the S³ pipeline: the algorithm
sees only logged records.  The ground truth exists so tests can verify that
the measurement toolkit *recovers* it (clusters ≈ planted types, affinity
matrix ≈ diagonal-dominant, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.sim.rng import RandomStreams
from repro.sim.timeline import HOUR, MINUTE
from repro.trace.apps import N_REALMS


# --------------------------------------------------------------------- layout


@dataclass(frozen=True)
class AccessPointInfo:
    """One light-weight AP: identity, home building, position, capacity."""

    ap_id: str
    building_id: str
    controller_id: str
    position: Tuple[float, float]
    #: Nominal backhaul bandwidth in bytes/second (802.11n-era ~ 20 MB/s).
    bandwidth: float = 20e6


@dataclass(frozen=True)
class BuildingInfo:
    """One campus building: a controller domain with several APs."""

    building_id: str
    controller_id: str
    position: Tuple[float, float]
    ap_ids: Tuple[str, ...]


class CampusLayout:
    """The physical campus: buildings, controllers and APs.

    Mirrors Fig. 1 of the paper: light-weight APs grouped under WLAN
    controllers (one controller per building here), reporting to a central
    data center.
    """

    def __init__(self, buildings: Sequence[BuildingInfo], aps: Sequence[AccessPointInfo]):
        self.buildings: Dict[str, BuildingInfo] = {b.building_id: b for b in buildings}
        self.aps: Dict[str, AccessPointInfo] = {a.ap_id: a for a in aps}
        for ap in aps:
            if ap.building_id not in self.buildings:
                raise ValueError(f"AP {ap.ap_id} references unknown building")
        for building in buildings:
            for ap_id in building.ap_ids:
                if ap_id not in self.aps:
                    raise ValueError(f"building {building.building_id} lists unknown AP")

    @property
    def controller_ids(self) -> List[str]:
        """All controller ids, sorted."""
        return sorted({b.controller_id for b in self.buildings.values()})

    def aps_of_building(self, building_id: str) -> List[AccessPointInfo]:
        """The APs installed in one building."""
        building = self.buildings[building_id]
        return [self.aps[ap_id] for ap_id in building.ap_ids]

    def aps_of_controller(self, controller_id: str) -> List[AccessPointInfo]:
        """The APs of one controller domain, sorted by id."""
        return sorted(
            (a for a in self.aps.values() if a.controller_id == controller_id),
            key=lambda a: a.ap_id,
        )

    def controller_of_ap(self, ap_id: str) -> str:
        """The controller responsible for an AP."""
        return self.aps[ap_id].controller_id

    @staticmethod
    def grid(
        n_buildings: int,
        aps_per_building: int,
        spacing: float = 200.0,
        ap_bandwidth: float = 20e6,
    ) -> "CampusLayout":
        """A regular campus: buildings on a grid, APs on a ring inside each."""
        if n_buildings <= 0 or aps_per_building <= 0:
            raise ValueError("need at least one building and one AP per building")
        buildings: List[BuildingInfo] = []
        aps: List[AccessPointInfo] = []
        cols = int(np.ceil(np.sqrt(n_buildings)))
        for b in range(n_buildings):
            building_id = f"B{b:02d}"
            controller_id = f"ctrl-{building_id}"
            bx = (b % cols) * spacing
            by = (b // cols) * spacing
            ap_ids = []
            for a in range(aps_per_building):
                ap_id = f"ap-{building_id}-{a:02d}"
                angle = 2 * np.pi * a / aps_per_building
                pos = (bx + 30.0 * np.cos(angle), by + 30.0 * np.sin(angle))
                aps.append(
                    AccessPointInfo(
                        ap_id=ap_id,
                        building_id=building_id,
                        controller_id=controller_id,
                        position=pos,
                        bandwidth=ap_bandwidth,
                    )
                )
                ap_ids.append(ap_id)
            buildings.append(
                BuildingInfo(
                    building_id=building_id,
                    controller_id=controller_id,
                    position=(bx, by),
                    ap_ids=tuple(ap_ids),
                )
            )
        return CampusLayout(buildings, aps)


# ---------------------------------------------------------------------- types


@dataclass(frozen=True)
class UserTypeProfile:
    """A planted usage type: a name and a realm-interest mix.

    ``interests`` sums to 1; a user of this type draws a personal interest
    vector from ``Dirichlet(concentration * interests)``, so higher
    ``concentration`` means users hew closer to their type centroid.
    """

    name: str
    interests: Tuple[float, ...]
    concentration: float = 150.0

    def __post_init__(self) -> None:
        if len(self.interests) != N_REALMS:
            raise ValueError(f"expected {N_REALMS} interests, got {len(self.interests)}")
        total = sum(self.interests)
        if not np.isclose(total, 1.0, atol=1e-6):
            raise ValueError(f"interests must sum to 1, got {total}")
        if self.concentration <= 0:
            raise ValueError("concentration must be positive")

    def sample_interest(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one user's personal interest vector."""
        alpha = self.concentration * np.asarray(self.interests)
        # Dirichlet with small floor so no realm is exactly zero (keeps
        # entropies finite in the NMI analysis).
        return rng.dirichlet(alpha + 0.2)


#: The four planted types (Fig. 8 shape: each centroid dominated by a
#: distinct realm mix).  Order: IM, P2P, music, email, video, browsing.
DEFAULT_TYPE_PROFILES: Tuple[UserTypeProfile, ...] = (
    UserTypeProfile("chatty-browser", (0.28, 0.04, 0.07, 0.10, 0.13, 0.38)),
    UserTypeProfile("p2p-downloader", (0.05, 0.50, 0.06, 0.04, 0.18, 0.17)),
    UserTypeProfile("video-streamer", (0.06, 0.09, 0.07, 0.04, 0.54, 0.20)),
    UserTypeProfile("study-mailer", (0.10, 0.04, 0.33, 0.28, 0.05, 0.20)),
)


# ---------------------------------------------------------------------- users


@dataclass(frozen=True)
class UserInfo:
    """One campus user with ground-truth attributes."""

    user_id: str
    type_index: int
    home_building: str
    interest: Tuple[float, ...]
    #: Probability of attending any given scheduled group activity.
    attendance: float = 0.85
    #: Expected number of solo (non-group) sessions per workday.
    solo_rate: float = 0.8

    def interest_vector(self) -> np.ndarray:
        """The user's realm-interest distribution as a numpy vector."""
        return np.asarray(self.interest, dtype=float)


# --------------------------------------------------------------------- groups


@dataclass(frozen=True)
class ScheduleSlot:
    """One weekly recurring activity: weekday + start + duration."""

    weekday: int  # 0 = Monday ... 6 = Sunday
    start: float  # seconds since midnight
    duration: float  # seconds

    def __post_init__(self) -> None:
        if not 0 <= self.weekday <= 6:
            raise ValueError(f"weekday out of range: {self.weekday}")
        if not 0 <= self.start < 24 * HOUR:
            raise ValueError(f"start out of range: {self.start}")
        if self.duration <= 0:
            raise ValueError(f"non-positive duration: {self.duration}")


@dataclass(frozen=True)
class SocialGroup:
    """A recurring activity group (a class, lab meeting, club, ...).

    ``departure_jitter`` is deliberately much smaller than
    ``arrival_jitter``: people trickle in but the activity *ends* for
    everyone at once — that asymmetry is what creates the co-leaving
    events the paper observes.
    """

    group_id: str
    member_ids: Tuple[str, ...]
    building_id: str
    slots: Tuple[ScheduleSlot, ...]
    arrival_jitter: float = 4 * MINUTE
    departure_jitter: float = 75.0  # seconds

    def __post_init__(self) -> None:
        if not self.member_ids:
            raise ValueError(f"group {self.group_id} has no members")
        if not self.slots:
            raise ValueError(f"group {self.group_id} has no schedule")
        if not (self.arrival_jitter >= 0 and self.departure_jitter >= 0):
            raise ValueError(f"group {self.group_id}: jitter must be non-negative")


#: Standard campus slot templates.  End times are aligned with the paper's
#: departure peaks (12:00-13:00, 16:00-17:50, 21:00-22:00) so the synthetic
#: trace exhibits bulk departures where the paper reports them.
CLASS_SLOT_TEMPLATES: Tuple[Tuple[float, float], ...] = (
    (8 * HOUR, 2 * HOUR),  # 08:00-10:00
    (10 * HOUR, 2 * HOUR),  # 10:00-12:00 -> ends in the 12-13 departure peak
    (13 * HOUR, 2 * HOUR),  # 13:00-15:00
    (15 * HOUR + 30 * MINUTE, 1.75 * HOUR),  # 15:30-17:15 -> 16:00-17:50 peak
    (19 * HOUR, 2.5 * HOUR),  # 19:00-21:30 -> 21-22 departure peak
)


# ---------------------------------------------------------------------- world


@dataclass
class SocialWorld:
    """The assembled ground truth: layout, users, types and groups."""

    layout: CampusLayout
    type_profiles: Tuple[UserTypeProfile, ...]
    users: Dict[str, UserInfo]
    groups: Dict[str, SocialGroup]

    def groups_of_user(self, user_id: str) -> List[SocialGroup]:
        """Every group the user belongs to."""
        return [g for g in self.groups.values() if user_id in g.member_ids]

    def type_of(self, user_id: str) -> int:
        """Ground-truth planted type of a user (validation only)."""
        return self.users[user_id].type_index

    def ground_truth_types(self) -> Dict[str, int]:
        """user id -> planted type index, for validation only."""
        return {uid: u.type_index for uid, u in self.users.items()}

    def summary(self) -> str:
        """One-line description of the world's scale."""
        return (
            f"SocialWorld(buildings={len(self.layout.buildings)}, "
            f"aps={len(self.layout.aps)}, users={len(self.users)}, "
            f"groups={len(self.groups)}, types={len(self.type_profiles)})"
        )


@dataclass
class WorldConfig:
    """Knobs for :func:`build_world`."""

    n_buildings: int = 6
    aps_per_building: int = 6
    n_users: int = 240
    n_groups: int = 36
    group_size_mean: float = 9.0
    group_size_min: int = 3
    group_size_max: int = 24
    #: Probability a group member shares the group's dominant type; the
    #: source of Table I's diagonal dominance.
    type_homogeneity: float = 0.85
    #: Fraction of groups with *loose* arrivals: members drift in over tens
    #: of minutes (study rooms, labs) yet still leave together when the
    #: activity ends.  Tight groups (classes) co-arrive within minutes.
    #: Loose groups are where arrival-based balancing fails hardest: the
    #: controller places each member against an unrelated load snapshot,
    #: so the group lands unevenly — and departs in unison.
    loose_group_fraction: float = 0.5
    #: Arrival jitter (std, seconds) for tight and loose groups.
    tight_arrival_jitter: float = 4 * 60.0
    loose_arrival_jitter: float = 28 * 60.0
    slots_per_group: int = 3
    ap_bandwidth: float = 20e6
    attendance: float = 0.85
    solo_rate: float = 0.8

    def __post_init__(self) -> None:
        if self.n_users <= 0 or self.n_groups <= 0:
            raise ValueError("need at least one user and one group")
        if not 0.0 <= self.type_homogeneity <= 1.0:
            raise ValueError("type_homogeneity must be a probability")
        if self.group_size_min < 2:
            raise ValueError("groups need at least two members to be social")


def build_world(
    config: WorldConfig,
    streams: RandomStreams,
    type_profiles: Sequence[UserTypeProfile] = DEFAULT_TYPE_PROFILES,
) -> SocialWorld:
    """Construct a random but reproducible social world.

    Users get a planted type and a personal interest vector; groups get a
    dominant type, members drawn mostly from that type (``type_homogeneity``)
    and a weekly schedule of campus slots in the group's home building.
    """
    rng = streams.get("world")
    layout = CampusLayout.grid(
        config.n_buildings, config.aps_per_building, ap_bandwidth=config.ap_bandwidth
    )
    building_ids = sorted(layout.buildings)
    n_types = len(type_profiles)

    users: Dict[str, UserInfo] = {}
    users_by_type: Dict[int, List[str]] = {t: [] for t in range(n_types)}
    for i in range(config.n_users):
        user_id = f"u{i:05d}"
        type_index = int(rng.integers(n_types))
        profile = type_profiles[type_index]
        interest = tuple(float(x) for x in profile.sample_interest(rng))
        home = building_ids[int(rng.integers(len(building_ids)))]
        users[user_id] = UserInfo(
            user_id=user_id,
            type_index=type_index,
            home_building=home,
            interest=interest,
            attendance=config.attendance,
            solo_rate=config.solo_rate,
        )
        users_by_type[type_index].append(user_id)

    groups: Dict[str, SocialGroup] = {}
    all_ids = sorted(users)
    for g in range(config.n_groups):
        group_id = f"g{g:04d}"
        dominant = int(rng.integers(n_types))
        size = int(
            np.clip(
                rng.poisson(config.group_size_mean),
                config.group_size_min,
                config.group_size_max,
            )
        )
        members: List[str] = []
        pool = users_by_type[dominant]
        for _ in range(size):
            if rng.random() < config.type_homogeneity and pool:
                candidate = pool[int(rng.integers(len(pool)))]
            else:
                candidate = all_ids[int(rng.integers(len(all_ids)))]
            if candidate not in members:
                members.append(candidate)
        if len(members) < 2:
            # Degenerate draw; force two distinct members.
            members = list(rng.choice(all_ids, size=2, replace=False))
        building = building_ids[int(rng.integers(len(building_ids)))]
        slot_count = max(1, int(rng.poisson(config.slots_per_group)))
        # Groups are staggered: a per-group offset (up to +/- half an hour,
        # five-minute granularity) shifts every slot, and durations vary by
        # +/-20%.  Without the stagger all groups would depart campus-wide
        # at the same instants and their per-AP craters would cancel out —
        # real timetables do not synchronize like that.
        group_offset = 5 * MINUTE * int(rng.integers(-6, 7))
        slots: List[ScheduleSlot] = []
        seen: set = set()
        for _ in range(slot_count):
            weekday = int(rng.integers(5))  # group activities on workdays
            template = CLASS_SLOT_TEMPLATES[int(rng.integers(len(CLASS_SLOT_TEMPLATES)))]
            key = (weekday, template[0])
            if key in seen:
                continue
            seen.add(key)
            start = float(np.clip(template[0] + group_offset, 7 * HOUR, 22 * HOUR))
            duration = float(template[1] * rng.uniform(0.8, 1.2))
            slots.append(
                ScheduleSlot(weekday=weekday, start=start, duration=duration)
            )
        if not slots:
            slots.append(ScheduleSlot(weekday=0, start=10 * HOUR, duration=2 * HOUR))
        loose = rng.random() < config.loose_group_fraction
        groups[group_id] = SocialGroup(
            group_id=group_id,
            member_ids=tuple(members),
            building_id=building,
            slots=tuple(slots),
            arrival_jitter=(
                config.loose_arrival_jitter if loose else config.tight_arrival_jitter
            ),
        )

    return SocialWorld(
        layout=layout,
        type_profiles=tuple(type_profiles),
        users=users,
        groups=groups,
    )
