"""Fig. 3 — application dynamics barely move the balance index.

Section III.C.1: hold the user population fixed (drop sessions that start
or end inside the analysis hour), split each hour into sub-periods of 5,
10 and 20 minutes, compute the balance index beta_i per sub-period, and
look at the distribution of the relative step
``S_i = (beta_i - beta_{i-1}) / beta_{i-1}``.  The paper finds more than
80% of steps below 0.02 at ten-minute sub-periods: with fixed users the
index is essentially static, so application-level traffic dynamics are not
what unbalances APs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.analysis.balance import (
    churn_filtered_sessions,
    normalized_balance_index,
    variation_series,
)
from repro.analysis.cdf import fraction_below
from repro.experiments.config import PAPER, ExperimentConfig
from repro.experiments.reporting import format_cdf_summary
from repro.experiments.workload import build_workload
from repro.sim.timeline import HOUR, MINUTE, Timeline, hour_of_day, is_workday

SUB_PERIODS = (5 * MINUTE, 10 * MINUTE, 20 * MINUTE)


@dataclass
class Fig3Result:
    """|S| samples per sub-period length."""

    variations: Dict[float, np.ndarray]

    def frac_below(self, sub_period: float, threshold: float = 0.02) -> float:
        """Fraction of |S| steps below the threshold for a sub-period width."""
        return fraction_below(self.variations[sub_period], threshold)

    def render(self) -> str:
        """The report text the paper's figure/table corresponds to."""
        lines = [
            "Fig. 3 — variance of balance index S with fixed users",
        ]
        for width in sorted(self.variations):
            label = f"{width / MINUTE:.0f}-min sub-periods"
            lines.append(
                format_cdf_summary(label, self.variations[width], thresholds=(0.02, 0.05))
            )
        ten = self.frac_below(10 * MINUTE)
        lines.append(
            f"paper: >80% of |S| below 0.02 at 10-minute sub-periods; "
            f"measured: {ten:.0%}"
        )
        return "\n".join(lines)


def run(config: ExperimentConfig = PAPER) -> Fig3Result:
    """Flow-level measurement: per-AP load in a sub-period is the traffic of
    the *flows* of users pinned to that AP.

    Session records attribute bytes uniformly over the whole session, which
    would make the fixed-population index exactly constant; the paper's
    intra-hour dynamics come from applications starting and stopping, which
    lives at flow granularity in the router logs.  So the load of AP ``a``
    in sub-window ``w`` is the byte mass of flows owned by users whose
    (hour-spanning) session sits on ``a``, restricted to ``w``.
    """
    workload = build_workload(config)
    layout = workload.world.layout
    controller_ids = sorted(layout.controller_ids)
    sessions_by_controller = {cid: [] for cid in controller_ids}
    for session in workload.collected.sessions:
        sessions_by_controller[session.controller_id].append(session)
    ap_ids_by_controller = {
        cid: [ap.ap_id for ap in layout.aps_of_controller(cid)]
        for cid in controller_ids
    }
    flows_by_user = workload.collected.flows_by_user()

    variations: Dict[float, List[float]] = {width: [] for width in SUB_PERIODS}
    span = Timeline(0.0, config.train_days * 24 * HOUR)
    for day in span.days():
        if not is_workday(day.start):
            continue
        for hour_window in day.hours():
            if not 8 <= hour_of_day(hour_window.start) < 23:
                continue
            for controller_id in controller_ids:
                # The paper's churn filter: only sessions spanning the whole
                # hour contribute, so the population is fixed within it.
                fixed = churn_filtered_sessions(
                    sessions_by_controller[controller_id],
                    hour_window.start,
                    hour_window.end,
                )
                if len(fixed) < 2:
                    continue
                ap_of_user = {s.user_id: s.ap_id for s in fixed}
                ap_ids = ap_ids_by_controller[controller_id]
                position = {ap_id: i for i, ap_id in enumerate(ap_ids)}
                # The pinned users' flows, user by user in log order: the
                # order each AP's load sums them in.
                owned = [
                    (flows_by_user[user_id], position[ap_id])
                    for user_id, ap_id in ap_of_user.items()
                    if user_id in flows_by_user
                ]
                start = _concat([flows.start for flows, _ in owned])
                end = _concat([flows.end for flows, _ in owned])
                size = _concat([flows.bytes_total for flows, _ in owned])
                ap = _concat([np.full(len(flows), i) for flows, i in owned], np.intp)
                duration = end - start
                live = (
                    (start < hour_window.end) & (end > hour_window.start)
                    & (duration > 0)
                )
                start, end, size, ap = start[live], end[live], size[live], ap[live]
                duration = duration[live]
                for width in SUB_PERIODS:
                    betas = []
                    for lo, hi in hour_window.windows(width):
                        overlap = np.minimum(end, hi) - np.maximum(start, lo)
                        hit = overlap > 0
                        loads = np.zeros(len(ap_ids))
                        np.add.at(
                            loads, ap[hit], size[hit] * overlap[hit] / duration[hit]
                        )
                        betas.append(normalized_balance_index(loads.tolist()))
                    variations[width].extend(variation_series(betas))

    return Fig3Result(
        variations={
            width: np.asarray(values) for width, values in variations.items()
        }
    )


def _concat(columns: List[np.ndarray], dtype: type = np.float64) -> np.ndarray:
    """``np.concatenate`` that also takes no columns (an empty ``dtype``)."""
    return np.concatenate(columns) if columns else np.empty(0, dtype=dtype)
