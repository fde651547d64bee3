"""Shard planning: partition a demand stream by controller domain.

Sharding is *by construction* lossless: ``wlan/replay.py`` buffers
arrivals per controller, fires departures against the owning
controller's APs, and samples each controller's load independently — no
event of controller ``A``'s replay reads or writes controller ``B``'s
state.  The only shared coordinates are the simulator clock and the
periodic sampler/poller grids, which the plan pins for every shard via
one global :class:`~repro.wlan.replay.ReplayWindow`.

Every controller of the layout gets a shard, including controllers with
zero demands: a serial run samples idle controllers too, and the merged
series must carry those (all-idle) rows to stay identical.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.trace.records import DemandSession
from repro.trace.social import CampusLayout
from repro.wlan.replay import (
    ReplayConfig,
    ReplayWindow,
    shard_stream_name,
    window_for,
)


@dataclass(frozen=True)
class ReplayShard:
    """One controller domain's slice of the demand stream."""

    #: Stable shard identifier — also the RNG child-stream name (see
    #: :func:`repro.wlan.replay.shard_stream_name`).
    shard_id: str
    controller_id: str
    #: This controller's demands, sorted by ``(arrival, user_id)``.
    demands: Tuple[DemandSession, ...]


@dataclass(frozen=True)
class ShardPlan:
    """A full partition of one replay run."""

    shards: Tuple[ReplayShard, ...]
    window: ReplayWindow

    @property
    def n_demands(self) -> int:
        """Total demands across all shards."""
        return sum(len(shard.demands) for shard in self.shards)

    @property
    def busy_shards(self) -> int:
        """Shards that actually carry demands."""
        return sum(1 for shard in self.shards if shard.demands)

    def demand_layout(
        self,
    ) -> Tuple[List[DemandSession], Dict[str, Tuple[int, int]]]:
        """The plan's demands flattened shard-by-shard, plus row ranges.

        This is the shape the process engine wants: one flat list to
        transpose once, and a half-open ``[start, stop)`` row range per
        ``shard_id`` to slice each worker group's rows from.  Within
        each range the demands keep their shard order (sorted
        ``(arrival, user_id)``).
        """
        ordered: List[DemandSession] = []
        ranges: Dict[str, Tuple[int, int]] = {}
        for shard in self.shards:
            start = len(ordered)
            ordered.extend(shard.demands)
            ranges[shard.shard_id] = (start, len(ordered))
        return ordered, ranges

    def worker_groups(self, n: int) -> List[Tuple[ReplayShard, ...]]:
        """Partition the shards into at most ``n`` contiguous groups.

        One group per pool worker: a worker replays its whole group in
        a *single* simulator pass (``run_window`` with the group's
        controller list), so one periodic sampler/poller grid serves
        every controller of the group instead of one duplicated grid
        per controller — the dominant decomposition overhead when
        workers are few.  Groups are contiguous in plan order, so each
        group's rows stay one half-open range of the demand layout,
        and are balanced by demand count (a group closes once it
        reaches its fair share of the rows).

        The grouping never changes the merged result: the merge layer
        reassembles outcomes by controller and canonical sort keys, not
        by group shape.
        """
        count = max(1, min(n, len(self.shards)))
        total = self.n_demands
        groups: List[Tuple[ReplayShard, ...]] = []
        current: List[ReplayShard] = []
        cum = 0
        for i, shard in enumerate(self.shards):
            current.append(shard)
            cum += len(shard.demands)
            remaining = len(self.shards) - i - 1
            open_slots = count - len(groups) - 1
            if open_slots and (
                cum * count >= (len(groups) + 1) * total
                or remaining == open_slots
            ):
                groups.append(tuple(current))
                current = []
        if current:
            groups.append(tuple(current))
        return groups

    def fingerprint(self) -> str:
        """A stable digest of the plan's shape, for checkpoint metadata.

        Covers the shard ids, their demand counts and the window, so a
        run directory created for one plan refuses to resume another.
        """
        parts = [f"{self.window.start!r}:{self.window.horizon!r}"]
        parts.extend(
            f"{shard.shard_id}={len(shard.demands)}" for shard in self.shards
        )
        digest = zlib.crc32("|".join(parts).encode("utf-8"))
        return f"shards:{len(self.shards)}:{digest:08x}"


def plan_replay_shards(
    layout: CampusLayout,
    demands: Sequence[DemandSession],
    config: ReplayConfig,
) -> ShardPlan:
    """Partition ``demands`` into one shard per controller of ``layout``.

    Raises :class:`ValueError` for an empty demand stream (there is no
    window to pin — callers short-circuit that case) and :class:`KeyError`
    for a demand in a building the layout does not know, mirroring what
    the serial engine would raise at replay time.
    """
    if not demands:
        raise ValueError("cannot plan shards for an empty demand stream")
    ordered = sorted(demands, key=lambda d: (d.arrival, d.user_id))
    window = window_for(ordered, config)
    by_controller: Dict[str, List[DemandSession]] = {
        controller_id: [] for controller_id in layout.controller_ids
    }
    for demand in ordered:
        building = layout.buildings[demand.building_id]
        by_controller[building.controller_id].append(demand)
    shards = tuple(
        ReplayShard(
            shard_id=shard_stream_name(controller_id),
            controller_id=controller_id,
            demands=tuple(by_controller[controller_id]),
        )
        for controller_id in layout.controller_ids
    )
    return ShardPlan(shards=shards, window=window)
