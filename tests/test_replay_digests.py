"""Pinned bytes of the replay engine's output.

The digests in ``tests/fixtures/replay_digests.json`` are the SHA-256 of
what :meth:`ReplayEngine.run` returns for the TINY and SMALL evaluation
days under ``llf``, ``llf-users``, ``rssi``, ``s3`` and ``s3-online``,
of the LLF collection replay of their training days (``<preset>_collect``,
and ``paper_collect`` for PAPER's), of PAPER's evaluation days under the
four Fig. 12 strategies (``paper_<strategy>``: the only replays that reach
five-AP cliques of six and draw PAPER's radio streams), and of one SMALL
LLF run with a fault plan armed (AP down and up, a controller outage,
stale load reports).
Each digest covers:

* every :class:`SessionRecord` in result order, one line each, floats
  written with :meth:`float.hex`;
* every controller's series: its AP ids, then the ``times``, ``loads``
  and ``user_counts`` arrays as their dtype and raw bytes;
* ``events_processed``.

They fail on any change to what a replay decides, records or samples,
and on any change to how many kernel events it processes.  A change that
moves replay output on purpose regenerates them
(``PYTHONPATH=src python tests/test_replay_digests.py``) and says why.
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

import numpy as np
import pytest

from repro.core.online import OnlineS3Strategy
from repro.experiments import workload
from repro.experiments.config import PAPER, SMALL, TINY, ExperimentConfig
from repro.faults import FaultPlan, generate_plan
from repro.faults.schedule import ChaosConfig
from repro.sim.rng import RandomStreams
from repro.wlan.replay import ReplayEngine, ReplayResult, window_for
from repro.wlan.strategies import (
    LeastLoadedFirst,
    S3Strategy,
    SelectionStrategy,
    StrongestSignal,
)

DIGESTS = Path(__file__).parent / "fixtures" / "replay_digests.json"

PRESETS = {"tiny": TINY, "small": SMALL}

STRATEGIES: Dict[str, Callable[[ExperimentConfig], SelectionStrategy]] = {
    "llf": lambda config: LeastLoadedFirst(),
    "llf-users": lambda config: LeastLoadedFirst(metric="users"),
    "rssi": lambda config: StrongestSignal(),
    "s3": lambda config: S3Strategy(workload.trained_model(config).selector()),
    # The online learner writes to its model: it gets a copy, so the
    # cached model other tests read stays as trained.
    "s3-online": lambda config: OnlineS3Strategy(
        copy.deepcopy(workload.trained_model(config)).selector()
    ),
}

#: PAPER's evaluation replays: the strategies Fig. 12 compares.
PAPER_STRATEGIES = ("llf", "llf-users", "rssi", "s3")

#: The armed run: every replay fault kind, on SMALL's evaluation days.
CHAOS = ChaosConfig(ap_outages=2, controller_outages=1, stale_reports=4)


def result_digest(result: ReplayResult) -> str:
    """SHA-256 of sessions (floats as hex), series bytes and event count."""
    digest = hashlib.sha256()
    for s in result.sessions:
        line = ",".join(
            [
                s.user_id,
                s.ap_id,
                s.controller_id,
                s.connect.hex(),
                s.disconnect.hex(),
                s.bytes_total.hex(),
            ]
        )
        digest.update(line.encode("utf-8") + b"\n")
    for controller_id in sorted(result.series):
        series = result.series[controller_id]
        digest.update(controller_id.encode("utf-8"))
        digest.update(json.dumps(series.ap_ids).encode("utf-8"))
        for column in (series.times, series.loads, series.user_counts):
            digest.update(column.dtype.str.encode("ascii"))
            digest.update(repr(column.shape).encode("ascii"))
            digest.update(np.ascontiguousarray(column).tobytes())
    digest.update(str(result.events_processed).encode("ascii"))
    return digest.hexdigest()


def fault_plan(config: ExperimentConfig) -> FaultPlan:
    """The armed run's plan over ``config``'s evaluation window."""
    built = workload.build_workload(config)
    window = window_for(built.test_demands, config.replay)
    return generate_plan(
        built.world.layout,
        window.start,
        window.horizon,
        RandomStreams(config.seed),
        CHAOS,
    )


def replay(
    config: ExperimentConfig, strategy: str, plan: Optional[FaultPlan] = None
) -> ReplayResult:
    """One evaluation-day replay of ``config`` under ``strategy``."""
    built = workload.build_workload(config)
    engine = ReplayEngine(
        built.world.layout,
        STRATEGIES[strategy](config),
        config.replay,
        fault_plan=plan,
    )
    return engine.run(built.test_demands)


def collect(config: ExperimentConfig) -> ReplayResult:
    """The LLF collection replay of ``config``'s training days."""
    built = workload.build_workload(config)
    engine = ReplayEngine(built.world.layout, LeastLoadedFirst(), config.replay)
    return engine.run(built.collected.demands)


def compute_digests(
    presets: Sequence[str] = tuple(PRESETS), paper: bool = True
) -> Dict[str, str]:
    """The pinned digests of each preset's replays, and with ``paper``
    PAPER's collection and evaluation replays."""
    digests: Dict[str, str] = {}
    if paper:
        digests["paper_collect"] = result_digest(collect(PAPER))
        for strategy in PAPER_STRATEGIES:
            digests[f"paper_{strategy}"] = result_digest(replay(PAPER, strategy))
    for name in presets:
        config = PRESETS[name]
        for strategy in STRATEGIES:
            digests[f"{name}_{strategy}"] = result_digest(replay(config, strategy))
        digests[f"{name}_collect"] = result_digest(collect(config))
        if name == "small":
            digests["small_llf_faults"] = result_digest(
                replay(config, "llf", fault_plan(config))
            )
    return digests


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_replays_match_the_pinned_digests(preset: str) -> None:
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    expected = {key: value for key, value in pinned.items() if key.startswith(f"{preset}_")}
    assert compute_digests([preset], paper=False) == expected


def test_paper_collection_matches_the_pinned_digest() -> None:
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert result_digest(collect(PAPER)) == pinned["paper_collect"]


@pytest.mark.parametrize("strategy", PAPER_STRATEGIES)
def test_paper_evaluation_replay_matches_the_pinned_digest(strategy: str) -> None:
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert result_digest(replay(PAPER, strategy)) == pinned[f"paper_{strategy}"]


def test_armed_plan_covers_every_replay_fault_kind() -> None:
    kinds = {event.kind for event in fault_plan(SMALL).events}
    assert {"ap-down", "ap-up", "controller-outage", "stale-load-report"} <= kinds


if __name__ == "__main__":
    digests = compute_digests()
    text = json.dumps(digests, indent=2, sort_keys=True) + "\n"
    DIGESTS.write_text(text, encoding="utf-8")
    print(text, end="")
