"""Fig. 7 — the gap statistic selects k = 4 user types.

Section III.D.2 clusters users' normalized application-usage vectors with
k-means and chooses k via the gap statistic: the smallest k with
``Gap(k) >= Gap(k+1) - s_{k+1}``.  The paper observes the rule firing at
k = 4.  The synthetic campus plants exactly four usage types, so the
reproduction should recover the same selection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.gap import GapResult, gap_statistic
from repro.core.profiles import build_daily_profiles
from repro.experiments.config import PAPER, ExperimentConfig
from repro.experiments.reporting import format_table
from repro.experiments.workload import build_workload


@dataclass
class Fig7Result:
    """Gap-statistic curve plus the selected k."""
    gap: GapResult
    n_users: int

    @property
    def selected_k(self) -> int:
        """The k chosen by the gap-statistic rule."""
        return self.gap.selected_k

    def render(self) -> str:
        """The report text the paper's figure/table corresponds to."""
        rows = [
            (row["k"], row["gap"], row["s_k"], row["log_wk"])
            for row in self.gap.as_rows()
        ]
        table = format_table(
            ["k", "Gap(k)", "s_k", "log W_k"],
            rows,
            title=f"Fig. 7 — gap statistic over {self.n_users} user profiles",
        )
        return (
            f"{table}\n"
            f"selected k = {self.selected_k} (paper: k = 4, matching the "
            f"four planted usage types)"
        )


def run(
    config: ExperimentConfig = PAPER,
    k_max: int = 10,
    n_references: int = 10,
) -> Fig7Result:
    """Execute the Fig. 7 selection on the given preset."""
    workload = build_workload(config)
    store = build_daily_profiles(workload.collected.flow_columns())
    lookback = min(config.training.lookback_days, config.train_days)
    users, matrix = store.profile_matrix(
        end_day=config.train_days, lookback=lookback
    )
    rng = np.random.default_rng(config.training.seed)
    gap = gap_statistic(matrix, k_max=k_max, n_references=n_references, rng=rng)
    return Fig7Result(gap=gap, n_users=len(users))
