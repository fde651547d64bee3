"""Fig. 12 — S³ versus LLF.

The paper's headline comparison (Section V.C): train on the learning
stage, replay the evaluation days under S³ and under LLF, and compare

* the mean normalized balance index per controller domain (the bar plot
  with 95% confidence error bars) — paper: ~41.2% average gain and ~72.1%
  error-bar (stability) reduction;
* the gain inside the departure peaks (12:00-13:00, 16:00-17:50,
  21:00-22:00) — paper: ~52.1%, because S³ specifically neutralizes
  co-leavings;
* the hour-of-day profile of both strategies.

The reproduction additionally reports the strongest-signal (RSSI) and
user-count-LLF baselines for context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.experiments.config import PAPER, ExperimentConfig
from repro.experiments.evaluation import (
    departure_peak_samples,
    hourly_means,
    mean_daytime_balance,
    per_controller_stats,
)
from repro.experiments.reporting import format_table, percent_gain
from repro.experiments.workload import build_workload, trained_model
from repro.wlan.replay import ReplayResult
from repro.wlan.strategies import (
    LeastLoadedFirst,
    S3Strategy,
    SelectionStrategy,
    StrongestSignal,
)


@dataclass
class StrategyOutcome:
    """Evaluation summary of one strategy."""
    name: str
    mean_balance: float
    peak_balance: float
    per_controller: Dict[str, Tuple[float, float]]  # mean, CI half-width
    hourly: Tuple[np.ndarray, np.ndarray]


@dataclass
class Fig12Result:
    """All strategy outcomes of the comparison."""
    outcomes: Dict[str, StrategyOutcome]

    @property
    def gain_percent(self) -> float:
        """S³ over LLF, mean daytime balance (paper: ~41.2%)."""
        return percent_gain(
            self.outcomes["s3"].mean_balance, self.outcomes["llf"].mean_balance
        )

    @property
    def peak_gain_percent(self) -> float:
        """S³ over LLF inside departure peaks (paper: ~52.1%)."""
        return percent_gain(
            self.outcomes["s3"].peak_balance, self.outcomes["llf"].peak_balance
        )

    @property
    def errorbar_reduction_percent(self) -> float:
        """Mean per-controller CI half-width reduction (paper: ~72.1%)."""
        llf = np.mean([ci for _, ci in self.outcomes["llf"].per_controller.values()])
        s3 = np.mean([ci for _, ci in self.outcomes["s3"].per_controller.values()])
        if llf <= 0:
            return 0.0
        return float(100.0 * (llf - s3) / llf)

    def render(self) -> str:
        """The report text the paper's figure/table corresponds to."""
        lines = ["Fig. 12 — S3 vs LLF on the evaluation days"]
        rows = [
            (
                outcome.name,
                outcome.mean_balance,
                outcome.peak_balance,
            )
            for outcome in self.outcomes.values()
        ]
        lines.append(
            format_table(
                ["strategy", "mean_balance", "departure_peak_balance"], rows
            )
        )
        controller_rows = []
        for controller_id in sorted(self.outcomes["llf"].per_controller):
            llf_mean, llf_ci = self.outcomes["llf"].per_controller[controller_id]
            s3_mean, s3_ci = self.outcomes["s3"].per_controller[controller_id]
            controller_rows.append(
                (controller_id, llf_mean, llf_ci, s3_mean, s3_ci)
            )
        lines.append(
            format_table(
                ["controller", "LLF_mean", "LLF_ci95", "S3_mean", "S3_ci95"],
                controller_rows,
                title="per-controller means with 95% CI half-widths",
            )
        )
        hours, llf_hourly = self.outcomes["llf"].hourly
        _, s3_hourly = self.outcomes["s3"].hourly
        hour_rows = [
            (int(h), float(l), float(s))
            for h, l, s in zip(hours, llf_hourly, s3_hourly)
        ]
        lines.append(
            format_table(
                ["hour", "LLF", "S3"], hour_rows, title="hour-of-day means"
            )
        )
        lines.append(
            f"S3 gain over LLF: {self.gain_percent:.1f}% overall "
            f"(paper ~41.2%), {self.peak_gain_percent:.1f}% at departure "
            f"peaks (paper ~52.1%), error-bar reduction "
            f"{self.errorbar_reduction_percent:.1f}% (paper ~72.1%)"
        )
        return "\n".join(lines)


def _evaluate(name: str, result: ReplayResult) -> StrategyOutcome:
    peak = departure_peak_samples(result)
    return StrategyOutcome(
        name=name,
        mean_balance=mean_daytime_balance(result),
        peak_balance=float(peak.mean()) if peak.size else float("nan"),
        per_controller=per_controller_stats(result),
        hourly=hourly_means(result),
    )


def run(
    config: ExperimentConfig = PAPER,
    include_extra_baselines: bool = True,
) -> Fig12Result:
    """Execute the Fig. 12 comparison on the given preset."""
    workload = build_workload(config)
    model = trained_model(config)
    strategies: List[Tuple[str, SelectionStrategy]] = [
        ("llf", LeastLoadedFirst()),
        ("s3", S3Strategy(model.selector())),
    ]
    if include_extra_baselines:
        strategies.append(("llf-users", LeastLoadedFirst(metric="users")))
        strategies.append(("rssi", StrongestSignal()))
    outcomes: Dict[str, StrategyOutcome] = {}
    for name, strategy in strategies:
        result = workload.replay_test(strategy)
        outcomes[name] = _evaluate(name, result)
    return Fig12Result(outcomes=outcomes)
