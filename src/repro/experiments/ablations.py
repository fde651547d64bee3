"""Ablation studies of the design choices DESIGN.md §5 calls out.

Each function retrains / re-replays the evaluation days with one design
element altered and reports mean daytime balance:

* :func:`run_terms` — knock out each term of the social relation index;
* :func:`run_batching` — clique-based batch distribution vs purely online
  selection with the same scoring;
* :func:`run_threshold` — sweep the 0.3 social-graph edge threshold;
* :func:`run_staleness` — sweep the controller's load-polling interval
  for LLF and S³ (the mechanism that makes arrival-based least-loaded
  selection herd, and the sharpest demonstration of why S³ is steady).

These back both the benchmark harness (``benchmarks/test_bench_ablation_
*.py``) and the command-line runner.

Each sweep is expressed as a :class:`~repro.runtime.SweepPlan` (one task
per variant, built by the ``plan_*`` twins) and executed serially
through :func:`repro.runtime.run_sweep` — task-for-task the same call
sequence as the original loops.  ``python -m repro.runtime sweep`` runs
the same plans on a process pool and/or checkpoints them to a run
directory for resume.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.selection import Candidates, S3Selector, SelectionConfig
from repro.experiments.config import PAPER, ExperimentConfig
from repro.experiments.reporting import format_table
from repro.runtime.sweep import SweepPlan, balance_task, make_task, run_sweep
from repro.sim.timeline import MINUTE
from repro.wlan.strategies import SelectionStrategy


@dataclass
class AblationResult:
    """A labeled set of mean-balance outcomes."""

    title: str
    rows: List[Tuple[object, ...]]
    headers: List[str]

    def as_dict(self) -> Dict[object, Tuple[object, ...]]:
        """Rows keyed by their first column."""
        return {row[0]: row[1:] for row in self.rows}

    def render(self) -> str:
        """The report text the paper's figure/table corresponds to."""
        return format_table(self.headers, self.rows, title=self.title)


class OnlineOnlyS3(SelectionStrategy):
    """S³ scoring applied one user at a time — no clique batches.

    The engine's sequential fallback (triggered by ``assign_batch``
    returning ``None``) feeds arrivals through ``select`` with live state
    updates, which is exactly an online-only controller.
    """

    name = "s3-online-only"

    def __init__(self, selector: S3Selector) -> None:
        self.selector = selector
        self.social = selector.social

    def select(
        self,
        user_id: str,
        aps: Candidates,
        rssi: Optional[Mapping[str, float]] = None,
    ) -> str:
        """One-at-a-time S3 selection (no batch hook)."""
        return self.selector.select(user_id, aps)


_TERM_VARIANTS = ("full", "no-type-prior", "type-prior-only", "llf-baseline")


def plan_terms(config: ExperimentConfig = PAPER) -> SweepPlan:
    """The term-knockout sweep as an executable task graph."""
    base = config.training
    return SweepPlan(
        [
            make_task(
                "terms/full", balance_task, config=config, strategy="s3",
                training=base,
            ),
            make_task(
                "terms/no-type-prior", balance_task, config=config,
                strategy="s3", training=replace(base, alpha=0.0),
            ),
            make_task(
                "terms/type-prior-only", balance_task, config=config,
                strategy="s3", training=replace(base, min_encounters=10**9),
            ),
            make_task(
                "terms/llf-baseline", balance_task, config=config,
                strategy="llf",
            ),
        ]
    )


def run_terms(config: ExperimentConfig = PAPER) -> AblationResult:
    """Social-index term knockout: full vs alpha=0 vs conditional-off."""
    values = run_sweep(plan_terms(config), engine="serial")
    rows: List[Tuple[object, ...]] = [
        (label, values[f"terms/{label}"]) for label in _TERM_VARIANTS
    ]
    return AblationResult(
        title="Ablation — social index terms",
        headers=["variant", "mean_balance"],
        rows=rows,
    )


def plan_batching(config: ExperimentConfig = PAPER) -> SweepPlan:
    """The batching-vs-online sweep as an executable task graph."""
    return SweepPlan(
        [
            make_task(
                "batching/clique-batched", balance_task, config=config,
                strategy="s3",
            ),
            make_task(
                "batching/online-only", balance_task, config=config,
                strategy="s3", online_only=True,
            ),
        ]
    )


def run_batching(config: ExperimentConfig = PAPER) -> AblationResult:
    """Clique-based batch distribution vs online-only selection."""
    values = run_sweep(plan_batching(config), engine="serial")
    rows: List[Tuple[object, ...]] = [
        ("clique-batched", values["batching/clique-batched"]),
        ("online-only", values["batching/online-only"]),
    ]
    return AblationResult(
        title="Ablation — clique batching vs online-only",
        headers=["variant", "mean_balance"],
        rows=rows,
    )


def plan_threshold(
    config: ExperimentConfig = PAPER,
    thresholds: Sequence[float] = (0.05, 0.3, 0.6, 1.5),
) -> SweepPlan:
    """The edge-threshold sweep as an executable task graph."""
    return SweepPlan(
        [
            make_task(
                f"threshold/{threshold!r}", balance_task, config=config,
                strategy="s3",
                training=replace(
                    config.training,
                    selection=SelectionConfig(edge_threshold=threshold),
                ),
            )
            for threshold in thresholds
        ]
    )


def run_threshold(
    config: ExperimentConfig = PAPER,
    thresholds: Sequence[float] = (0.05, 0.3, 0.6, 1.5),
) -> AblationResult:
    """Sweep of the social-graph edge threshold (paper: 0.3)."""
    values = run_sweep(plan_threshold(config, thresholds), engine="serial")
    rows: List[Tuple[object, ...]] = [
        (threshold, values[f"threshold/{threshold!r}"])
        for threshold in thresholds
    ]
    return AblationResult(
        title="Ablation — social-graph edge threshold",
        headers=["edge_threshold", "mean_balance"],
        rows=rows,
    )


@dataclass
class AllAblations:
    """Every ablation, for the command-line runner."""

    results: List[AblationResult]

    def render(self) -> str:
        """The report text the paper's figure/table corresponds to."""
        return "\n\n".join(result.render() for result in self.results)


def run(config: ExperimentConfig = PAPER) -> AllAblations:
    """Run all four ablations (the ``ablations`` runner entry)."""
    return AllAblations(
        results=[
            run_terms(config),
            run_batching(config),
            run_threshold(config),
            run_staleness(config),
        ]
    )


def plan_staleness(
    config: ExperimentConfig = PAPER,
    poll_intervals: Sequence[float] = (1.0, 5 * MINUTE, 15 * MINUTE),
) -> SweepPlan:
    """The staleness sweep as an executable task graph."""
    tasks = []
    for interval in poll_intervals:
        replay = replace(config.replay, load_measurement_interval=interval)
        tasks.append(
            make_task(
                f"staleness/{interval!r}/llf", balance_task, config=config,
                strategy="llf", replay=replay,
            )
        )
        tasks.append(
            make_task(
                f"staleness/{interval!r}/s3", balance_task, config=config,
                strategy="s3", replay=replay,
            )
        )
    return SweepPlan(tasks)


def run_staleness(
    config: ExperimentConfig = PAPER,
    poll_intervals: Sequence[float] = (1.0, 5 * MINUTE, 15 * MINUTE),
) -> AblationResult:
    """Load-measurement staleness sweep for LLF vs S³."""
    values = run_sweep(plan_staleness(config, poll_intervals), engine="serial")
    rows: List[Tuple[object, ...]] = [
        (
            interval,
            values[f"staleness/{interval!r}/llf"],
            values[f"staleness/{interval!r}/s3"],
        )
        for interval in poll_intervals
    ]
    return AblationResult(
        title="Ablation — load-measurement staleness",
        headers=["poll_interval_s", "llf_balance", "s3_balance"],
        rows=rows,
    )
