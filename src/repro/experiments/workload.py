"""Workload materialization and caching.

Every experiment needs the same expensive artifacts: the synthetic campus,
its demand trace, the *collected* training trace (training-period demands
replayed under LLF — the strategy the production network runs, exactly as
in the paper), and a trained S³ model.  This module builds them once per
:class:`~repro.experiments.config.ExperimentConfig` and caches them
in-process, so a benchmark session touching all twelve experiments pays
the generation cost once.

**Fork-safety contract.**  The caches are *per-process* and must never be
inherited across a fork: a forked worker sharing multi-hundred-megabyte
workload objects with its parent defeats copy-on-write the moment either
side touches them, and a cache populated before the fork hides the cost a
worker's first build would otherwise expose.  :mod:`repro.runtime` worker
initializers therefore call :func:`clear_caches` as their first act —
workers rebuild what they need (deterministically, from the config seed)
rather than inherit it.  Anything added to this module must stay safe to
drop and rebuild from its :class:`ExperimentConfig` key alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs, perf
from repro.core.pipeline import S3Model, TrainingConfig, train_s3
from repro.experiments.config import ExperimentConfig
from repro.trace.generator import TraceGenerator
from repro.trace.records import DemandSession, TraceBundle
from repro.trace.social import SocialWorld, build_world
from repro.sim.rng import RandomStreams
from repro.wlan.replay import ReplayConfig, ReplayEngine, ReplayResult, collect_trace
from repro.wlan.strategies import LeastLoadedFirst, SelectionStrategy


@dataclass
class Workload:
    """Everything an experiment consumes."""

    config: ExperimentConfig
    world: SocialWorld
    #: Full-period demands + flows (no sessions — those are strategy-made).
    bundle: TraceBundle
    #: Training-period sessions collected under LLF, plus the matching
    #: flows/demands: the paper's "real trace" stand-in.
    collected: TraceBundle
    #: Evaluation-period demands (the paper's July 25-27).
    test_demands: List[DemandSession]

    def replay_test(
        self,
        strategy: SelectionStrategy,
        config_override: Optional[ReplayConfig] = None,
    ) -> ReplayResult:
        """Replay the evaluation period under ``strategy``."""
        replay_config = (
            config_override if config_override is not None else self.config.replay
        )
        engine = ReplayEngine(self.world.layout, strategy, replay_config)
        return engine.run(self.test_demands)


_WORKLOADS: Dict[Tuple[str, int], Workload] = {}
_MODELS: Dict[Tuple[str, int, str], S3Model] = {}


def build_workload(config: ExperimentConfig) -> Workload:
    """Materialize (or fetch from cache) the workload for ``config``."""
    key = (config.name, config.seed)
    if key in _WORKLOADS:
        return _WORKLOADS[key]
    streams = RandomStreams(config.seed)
    world = build_world(config.world, streams)
    generator = TraceGenerator(world, config.generator_config(), streams=streams)
    with perf.timer("workload.generate"), obs.span(
        "workload.generate", preset=config.name, seed=config.seed
    ):
        bundle = generator.generate()
    split = config.split_time
    # Flows are start-sorted, so the training flows are a prefix view.
    train_source = TraceBundle(
        demands=[d for d in bundle.demands if d.arrival < split],
        flows=bundle.flows_before(split),
    )
    with perf.timer("workload.collect"), obs.span(
        "workload.collect", preset=config.name
    ):
        collected = collect_trace(
            world.layout, train_source, LeastLoadedFirst(), config=config.replay
        )
    test_demands = [d for d in bundle.demands if d.arrival >= split]
    workload = Workload(
        config=config,
        world=world,
        bundle=bundle,
        collected=collected,
        test_demands=test_demands,
    )
    _WORKLOADS[key] = workload
    return workload


def trained_model(
    config: ExperimentConfig,
    training: Optional[TrainingConfig] = None,
) -> S3Model:
    """Train (or fetch from cache) the S³ model for ``config``.

    A non-default ``training`` config bypasses the default-model cache but
    is cached under its own repr, so parameter sweeps that revisit a
    configuration do not retrain.
    """
    training = training if training is not None else config.training
    key = (config.name, config.seed, repr(training))
    if key in _MODELS:
        return _MODELS[key]
    workload = build_workload(config)
    with perf.timer("workload.train"), obs.span(
        "workload.train", preset=config.name
    ):
        model = train_s3(workload.collected, training)
    _MODELS[key] = model
    return model


def clear_caches() -> None:
    """Drop all cached workloads and models.

    Called by tests and — per the module's fork-safety contract — by
    every :mod:`repro.runtime` worker initializer, so worker processes
    rebuild workloads instead of inheriting the parent's cache."""
    _WORKLOADS.clear()
    _MODELS.clear()


def cache_sizes() -> Tuple[int, int]:
    """``(workloads, models)`` entry counts (test/diagnostic hook)."""
    return len(_WORKLOADS), len(_MODELS)
