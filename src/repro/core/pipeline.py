"""End-to-end S³ training: collected trace -> deployable model.

Mirrors the paper's methodology (Section V.A): a learning stage over the
collected trace establishes application profiles, user types and pairwise
social relationships; the resulting model then drives AP selection during
the experiment stage.  All knobs default to the operating point the paper
settles on: five-minute co-leaving extraction window, alpha = 0.3, 15-day
history look-back, k = 4 user types, 0.3 edge threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro import perf
from repro.analysis.churn import ChurnEvents, extract_churn
from repro.core.demand import DemandEstimator
from repro.core.profiles import DailyProfileStore, build_daily_profiles
from repro.core.selection import S3Selector, SelectionConfig
from repro.core.social import SocialModel, build_social_model
from repro.core.typing import TypeModel, fit_type_model
from repro.sim.timeline import MINUTE, day_index
from repro.trace.records import TraceBundle


@dataclass(frozen=True)
class TrainingConfig:
    """Every learning-stage knob, at the paper's defaults."""

    #: Co-leaving extraction window (Fig. 10 optimum: five minutes).
    coleave_window: float = 5 * MINUTE
    #: Co-coming window (same scale; co-comings are informational only).
    cocome_window: float = 5 * MINUTE
    #: Minimum joint time on an AP for an encounter.
    encounter_min_duration: float = 20 * MINUTE
    #: Weight of the type-affinity prior in delta(u, v).
    alpha: float = 0.3
    #: Days of history used for profile aggregation (Fig. 6/11 plateau).
    lookback_days: int = 15
    #: Number of user types; ``None`` re-runs the gap-statistic selection.
    k: Optional[int] = 4
    #: Encounter-count floor below which P(L|E) is not trusted.
    min_encounters: int = 2
    #: Selection-stage tunables (threshold, top-30%, enumeration cap).
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    #: EWMA smoothing of the demand estimator.
    demand_smoothing: float = 0.3
    #: RNG seed for clustering.
    seed: int = 7

    def __post_init__(self) -> None:
        if self.coleave_window <= 0 or self.cocome_window <= 0:
            raise ValueError("extraction windows must be positive")
        if self.lookback_days <= 0:
            raise ValueError("lookback_days must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")


@dataclass
class S3Model:
    """A trained S³ model: everything the controller needs at run time."""

    profiles: DailyProfileStore
    churn: ChurnEvents
    types: TypeModel
    social: SocialModel
    demand: DemandEstimator
    config: TrainingConfig

    def selector(self) -> S3Selector:
        """A fresh decision engine bound to this model."""
        return S3Selector(self.social, self.demand, config=self.config.selection)

    def summary(self) -> str:
        """One-line description of the trained model."""
        sizes = ", ".join(str(int(s)) for s in self.types.type_sizes())
        return (
            f"S3Model(users={len(self.types.assignments)}, types={self.types.k} "
            f"[sizes {sizes}], pairs={self.social.known_pairs()}, "
            f"alpha={self.social.alpha})"
        )


def train_s3(
    bundle: TraceBundle,
    config: Optional[TrainingConfig] = None,
) -> S3Model:
    """Train S³ on a collected trace (sessions + flows required).

    The session log must come from the production strategy (LLF in the
    paper's campus); the flows provide application profiles.  Raises when
    the bundle lacks either record family — a model trained on nothing
    would silently degenerate to LLF.
    """
    config = config if config is not None else TrainingConfig()
    if not bundle.sessions:
        raise ValueError("training bundle has no session records")
    if not bundle.n_flows:
        raise ValueError("training bundle has no flow records")

    rng = np.random.default_rng(config.seed)

    with perf.timer("train.profiles"):
        profiles = build_daily_profiles(bundle.flow_columns())
    # Extract from the bundle's shared columnar view so later consumers
    # (Fig. 5 sweeps, re-training) reuse the same transpose.
    with perf.timer("train.churn"):
        churn = extract_churn(
            bundle.columns(),
            coleave_window=config.coleave_window,
            cocome_window=config.cocome_window,
            encounter_min_duration=config.encounter_min_duration,
        )

    # Profile aggregation window ends on the day after the last session.
    end_day = day_index(max(s.disconnect for s in bundle.sessions)) + 1
    with perf.timer("train.types"):
        types = fit_type_model(
            profiles,
            churn,
            k=config.k,
            rng=rng,
            min_encounters=config.min_encounters,
            end_day=end_day,
            lookback=min(config.lookback_days, end_day),
        )
    with perf.timer("train.social"):
        social = build_social_model(
            churn,
            types,
            alpha=config.alpha,
            min_encounters=config.min_encounters,
        )
    with perf.timer("train.demand"):
        demand = DemandEstimator(smoothing=config.demand_smoothing)
        demand.observe_sessions(bundle.sessions)
        demand.fit_population_default()

    return S3Model(
        profiles=profiles,
        churn=churn,
        types=types,
        social=social,
        demand=demand,
        config=config,
    )
