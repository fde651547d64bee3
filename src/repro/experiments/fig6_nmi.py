"""Fig. 6 — how much history captures a user's application interest.

Section III.D.2: for a target day x, compute the NMI between each user's
day-x application profile and the cumulative profile of days x-1 .. x-n,
and average over users.  The curve rises with n and plateaus around
n = 15: two weeks of history suffice, more neither helps nor hurts.  The
paper shows the curve for two target days (7/26 and 7/27); the
reproduction uses the last two workdays of the training stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.profiles import build_daily_profiles, nmi_history_curve
from repro.experiments.config import PAPER, ExperimentConfig
from repro.experiments.reporting import format_series
from repro.experiments.workload import build_workload
from repro.sim.timeline import is_workday, DAY


@dataclass
class Fig6Result:
    """Mean-NMI curves per target day."""

    curves: Dict[int, Tuple[np.ndarray, np.ndarray]]  # day -> (lookbacks, nmi)

    def plateau_ratio(self, day: int, knee: int = 15) -> float:
        """NMI at the knee relative to the curve's final value (~1 at plateau)."""
        lookbacks, nmi = self.curves[day]
        at_knee = nmi[np.searchsorted(lookbacks, min(knee, lookbacks[-1]))]
        return float(at_knee / nmi[-1]) if nmi[-1] > 0 else float("nan")

    def render(self) -> str:
        """The report text the paper's figure/table corresponds to."""
        lines = ["Fig. 6 — mean NMI between day-x profile and n-day history"]
        for day, (lookbacks, nmi) in sorted(self.curves.items()):
            lines.append(
                format_series(
                    lookbacks, nmi, "history_days", "mean_NMI",
                    title=f"target day {day}",
                )
            )
        lines.append(
            "paper: NMI increases until n ~= 15 then plateaus "
            "(older history neither helps nor hurts)"
        )
        return "\n".join(lines)


def run(
    config: ExperimentConfig = PAPER,
    max_lookback: int = None,
) -> Fig6Result:
    """Execute the Fig. 6 measurement on the given preset."""
    workload = build_workload(config)
    store = build_daily_profiles(workload.collected.flow_columns())
    if max_lookback is None:
        max_lookback = max(2, config.train_days - 2)

    # The last two workdays of the training stage (the paper's 7/26, 7/27).
    target_days = [
        day
        for day in range(config.train_days - 1, 0, -1)
        if is_workday(day * DAY)
    ][:2]
    curves: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for day in target_days:
        lookbacks, nmi = nmi_history_curve(
            store, target_day=day, max_lookback=min(max_lookback, day)
        )
        curves[day] = (lookbacks, nmi)
    return Fig6Result(curves=curves)
