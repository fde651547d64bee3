"""Per-controller load/user time series sampled during replay.

The collector periodically snapshots every controller's per-AP offered
load and association counts; the resulting :class:`ControllerSeries`
exposes the normalized balance-index series directly (the quantity every
figure in the paper's evaluation is built from).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.balance import normalized_balance_rows
from repro.wlan.entities import CampusRuntime


@dataclass
class ControllerSeries:
    """Sampled time series of one controller domain."""

    controller_id: str
    ap_ids: List[str]
    times: np.ndarray  # (T,)
    loads: np.ndarray  # (T, n_aps) bytes/s
    user_counts: np.ndarray  # (T, n_aps)

    def balance_series(self) -> np.ndarray:
        """Normalized traffic-balance index at every sample."""
        return normalized_balance_rows(self.loads)

    def user_balance_series(self) -> np.ndarray:
        """Normalized user-count-balance index at every sample."""
        return normalized_balance_rows(self.user_counts)

    def mean_balance(self) -> float:
        """Mean normalized balance over every sample (idle samples are 1.0)."""
        series = self.balance_series()
        return float(series.mean()) if series.size else 1.0

    def active_mask(self) -> np.ndarray:
        """Samples where the domain actually carries traffic.

        Idle samples score a trivial 1.0 balance; evaluation statistics
        that average over a whole day should usually restrict to active
        samples so night hours do not wash out the differences.
        """
        return self.loads.sum(axis=1) > 0

    def restrict(self, lo: float, hi: float) -> "ControllerSeries":
        """The sub-series with ``lo <= t < hi``."""
        mask = (self.times >= lo) & (self.times < hi)
        return ControllerSeries(
            controller_id=self.controller_id,
            ap_ids=self.ap_ids,
            times=self.times[mask],
            loads=self.loads[mask],
            user_counts=self.user_counts[mask],
        )


class MetricsCollector:
    """Accumulates samples during a replay run."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._loads: Dict[str, List[List[float]]] = {}
        self._counts: Dict[str, List[List[int]]] = {}
        self._ap_ids: Dict[str, List[str]] = {}

    def sample(
        self,
        now: float,
        campus: CampusRuntime,
        controller_ids: Optional[Sequence[str]] = None,
        changed: Optional[Collection[str]] = None,
    ) -> None:
        """Record one snapshot of every controller (or a fixed subset).

        ``controller_ids`` restricts the snapshot to a subset of
        controllers; it must be sorted and stable across calls, so each
        controller's series lines up sample for sample.  ``changed``,
        when given, names the
        controllers whose association tables may have moved since the
        previous sample: every other controller already sampled repeats
        its previous rows, which are what a fresh read would give.
        """
        self._times.append(now)
        ids = (
            sorted(campus.controllers)
            if controller_ids is None
            else controller_ids
        )
        for controller_id in ids:
            rows = self._loads.get(controller_id)
            if rows and changed is not None and controller_id not in changed:
                rows.append(rows[-1])
                counts = self._counts[controller_id]
                counts.append(counts[-1])
                continue
            controller = campus.controllers[controller_id]
            if rows is None:
                self._ap_ids[controller_id] = controller.ap_ids
                self._loads[controller_id] = []
                self._counts[controller_id] = []
            self._loads[controller_id].append(controller.loads())
            self._counts[controller_id].append(controller.user_counts())

    @property
    def n_samples(self) -> int:
        """Number of snapshots collected."""
        return len(self._times)

    def series(self) -> Dict[str, ControllerSeries]:
        """Freeze the collected samples into per-controller series."""
        times = np.asarray(self._times)
        out: Dict[str, ControllerSeries] = {}
        for controller_id, ap_ids in self._ap_ids.items():
            out[controller_id] = ControllerSeries(
                controller_id=controller_id,
                ap_ids=list(ap_ids),
                times=times.copy(),
                loads=np.asarray(self._loads[controller_id], dtype=float),
                user_counts=np.asarray(self._counts[controller_id], dtype=float),
            )
        return out
