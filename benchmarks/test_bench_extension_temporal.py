"""Extension bench: temporal usage profiles (the paper's future work).

Adds *when users are online* (hour-of-day activity vectors) to the typing
features and re-derives the Table-I affinity matrix.  Since co-leaving is
driven by shared schedules, conditioning the type prior on schedule
similarity should sharpen the diagonal-vs-off-diagonal contrast relative
to app-only types — the quantitative version of the paper's conjecture
that richer usage profiles yield "more accurate sociality information".
"""

import numpy as np

from conftest import run_once

from repro.analysis.churn import extract_churn
from repro.core.profiles import build_daily_profiles
from repro.core.temporal import fit_extended_type_model
from repro.experiments.config import PAPER
from repro.experiments.reporting import format_table


def dominance(affinity: np.ndarray) -> float:
    k = affinity.shape[0]
    off = (affinity.sum() - affinity.trace()) / (k * k - k)
    return float(affinity.diagonal().mean() / off) if off > 0 else float("inf")


def test_extension_temporal_profiles(
    benchmark, paper_workload, paper_model, report_writer
):
    def run_extension():
        store = build_daily_profiles(paper_workload.collected.flow_columns())
        churn = extract_churn(paper_workload.collected.sessions)
        extended = fit_extended_type_model(
            store,
            paper_workload.collected.sessions,
            churn,
            k=4,
            temporal_weight=0.5,
            rng=np.random.default_rng(7),
            end_day=PAPER.train_days,
            lookback=PAPER.training.lookback_days,
        )
        return {
            "app-only dominance": dominance(paper_model.types.affinity),
            "app+temporal dominance": dominance(extended.affinity),
            "typed users": float(len(extended.assignments)),
        }

    rows = run_once(benchmark, run_extension)
    report_writer(
        "extension_temporal",
        format_table(
            ["metric", "value"],
            list(rows.items()),
            title="Extension — temporal usage profiles",
        ),
        benchmark=benchmark,
        metrics={name.replace(" ", "_"): value for name, value in rows.items()},
    )

    # Both priors are diagonal-dominant; the schedule-aware one must not
    # be weaker (on the synthetic campus it is typically sharper, since
    # schedules are the actual cause of co-leaving).
    assert rows["app-only dominance"] > 1.3
    assert rows["app+temporal dominance"] > rows["app-only dominance"] - 0.15
    assert rows["typed users"] > 500
