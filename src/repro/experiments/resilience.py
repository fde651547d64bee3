"""Resilience — balance degradation and recovery under an AP outage.

The robustness companion to the steady-state comparisons: take the
busiest AP of the evaluation period off the air exactly at its peak
(a deterministic, worst-case fault — no random draws), replay the same
demands under LLF and S³, and measure from the run journals alone

* how far the balance index drops while the AP is down (the forced
  co-leaving burst re-herds its users elsewhere), and
* how long after the AP returns the balance needs to recover to 95 % of
  its pre-fault mean.

Everything is computed from :class:`~repro.obs.journal.Journal` records
(fault firings + balance samples), never from the in-memory replay
result — the same analysis works on a journal file from any past run,
which is the point of journaling faults in the first place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.experiments.config import PAPER, ExperimentConfig
from repro.experiments.workload import Workload, build_workload, trained_model
from repro.faults.model import FaultPlan
from repro.faults.schedule import targeted_ap_outage
from repro.obs.journal import Journal, parse_journal, render_journal
from repro.obs.tracer import get_tracer
from repro.trace.records import DemandSession
from repro.trace.social import CampusLayout
from repro.wlan.replay import ReplayConfig, ReplayEngine, window_for
from repro.wlan.strategies import LeastLoadedFirst, S3Strategy, SelectionStrategy

#: A post-restore sample at or above this fraction of the pre-fault mean
#: balance counts as recovered.
RECOVERY_FRACTION = 0.95


@dataclass
class StrategyResilience:
    """One strategy's journal-derived fault response."""

    strategy: str
    controller_id: str
    #: Users force-evicted by the ap-down event (the co-leaving burst).
    evicted: int
    #: Mean balance of the samples strictly before the fault fired.
    pre_fault_balance: float
    #: Worst balance sampled while the AP was down.
    min_balance_during: float
    #: Seconds after the ap-up event until balance first reached
    #: ``RECOVERY_FRACTION`` of the pre-fault mean; None = never did.
    recovery_time: Optional[float]

    @property
    def drop(self) -> float:
        """Absolute balance-index degradation at the worst sample."""
        return self.pre_fault_balance - self.min_balance_during


@dataclass
class ResilienceResult:
    """The LLF-vs-S³ fault response, plus the plan that caused it."""

    target_ap: str
    fault_start: float
    fault_duration: float
    by_strategy: Dict[str, StrategyResilience]

    def render(self) -> str:
        """The report text for the resilience comparison."""
        lines = [
            "Resilience — targeted AP outage, LLF vs S³",
            f"  target: {self.target_ap} down at t={self.fault_start:.0f} "
            f"for {self.fault_duration:.0f}s",
        ]
        for name in sorted(self.by_strategy):
            entry = self.by_strategy[name]
            recovered = (
                f"{entry.recovery_time:.0f}s"
                if entry.recovery_time is not None
                else "not within horizon"
            )
            lines.append(
                f"  {name}: evicted={entry.evicted} "
                f"pre-fault balance={entry.pre_fault_balance:.3f} "
                f"min during outage={entry.min_balance_during:.3f} "
                f"(drop {entry.drop:.3f}), recovery after restore: {recovered}"
            )
        lines.append(
            "paper: S³ places the forced co-leaving burst by social group, "
            "so it degrades less and re-converges at least as fast as LLF"
        )
        return "\n".join(lines)


def pick_target(
    layout: CampusLayout, demands: Sequence[DemandSession]
) -> Tuple[str, float]:
    """The worst-case outage target: first AP of the building with the
    highest peak concurrency, at the instant that peak is first reached.

    Pure arithmetic over the demand trace — no draws — so every run of a
    preset attacks the same AP at the same time.
    """
    if not demands:
        raise ValueError("cannot pick an outage target from zero demands")
    deltas: Dict[str, List[Tuple[float, int]]] = {}
    for demand in demands:
        deltas.setdefault(demand.building_id, []).append((demand.arrival, 1))
        deltas[demand.building_id].append((demand.departure, -1))
    best: Optional[Tuple[int, float, str]] = None
    for building_id in sorted(deltas):
        concurrency = 0
        peak = 0
        peak_time = 0.0
        # Departures before arrivals at the same instant, so touching
        # sessions do not overcount.
        for time, delta in sorted(deltas[building_id], key=lambda d: (d[0], d[1])):
            concurrency += delta
            if concurrency > peak:
                peak = concurrency
                peak_time = time
        candidate = (peak, -peak_time, building_id)
        if best is None or candidate > best:
            best = candidate
    assert best is not None  # demands is non-empty
    peak, neg_peak_time, building_id = best
    ap_id = sorted(layout.buildings[building_id].ap_ids)[0]
    return ap_id, -neg_peak_time


def outage_plan(
    layout: CampusLayout,
    demands: Sequence[DemandSession],
    replay_config: ReplayConfig,
) -> FaultPlan:
    """The experiment's deterministic one-AP outage plan."""
    ap_id, peak_time = pick_target(layout, demands)
    window = window_for(demands, replay_config)
    start = max(peak_time, window.start)
    remaining = window.horizon - start
    if remaining <= 0:
        raise ValueError(
            f"peak at t={peak_time:.0f} leaves no room before the horizon"
        )
    # Long enough to straddle several balance samples, short enough to
    # leave most of the remaining window for the recovery measurement.
    duration = min(2.0 * replay_config.sample_interval, remaining / 2.0)
    return targeted_ap_outage(ap_id, start, duration)


def journaled_replay(
    layout: CampusLayout,
    strategy: SelectionStrategy,
    demands: Sequence[DemandSession],
    replay_config: ReplayConfig,
    fault_plan: FaultPlan,
) -> Journal:
    """One serial fault-injected replay, returned as a parsed journal.

    When the global tracer is already enabled (``--journal`` runs) the
    records stay in the outer journal too; otherwise the tracer is
    enabled only for the duration of the replay and reset afterwards.
    """
    tracer = get_tracer()
    owned = not tracer.enabled
    if owned:
        obs.enable(reset=True)
    start = len(tracer.records)
    try:
        ReplayEngine(
            layout, strategy, replay_config, fault_plan=fault_plan
        ).run(list(demands))
        text = render_journal(list(tracer.records[start:]))
    finally:
        if owned:
            obs.disable()
            tracer.reset()
    return parse_journal(text)


def analyze_journal(journal: Journal, strategy: str) -> StrategyResilience:
    """Fault response metrics from journal records alone."""
    downs = [f for f in journal.faults if f.kind == "ap-down"]
    ups = [f for f in journal.faults if f.kind == "ap-up"]
    if not downs or not ups:
        raise ValueError(
            f"journal holds no ap-down/ap-up pair (faults={len(journal.faults)})"
        )
    down, up = downs[0], ups[0]
    assert down.sim_time is not None and up.sim_time is not None
    controller_id = down.controller_id
    if controller_id is None:
        raise ValueError("ap-down record carries no controller id")
    samples = sorted(
        (s for s in journal.samples if s.controller_id == controller_id),
        key=lambda s: s.sim_time,
    )
    if not samples:
        raise ValueError(f"no balance samples for controller {controller_id}")
    pre = [s.balance for s in samples if s.sim_time < down.sim_time]
    pre_fault = sum(pre) / len(pre) if pre else samples[0].balance
    during = [
        s.balance
        for s in samples
        if down.sim_time <= s.sim_time < up.sim_time
    ]
    min_during = min(during) if during else pre_fault
    recovery: Optional[float] = None
    for sample in samples:
        if sample.sim_time < up.sim_time:
            continue
        if sample.balance >= RECOVERY_FRACTION * pre_fault:
            recovery = sample.sim_time - up.sim_time
            break
    return StrategyResilience(
        strategy=strategy,
        controller_id=controller_id,
        evicted=int(down.detail["evicted"]),
        pre_fault_balance=pre_fault,
        min_balance_during=min_during,
        recovery_time=recovery,
    )


def run(config: ExperimentConfig = PAPER) -> ResilienceResult:
    """Execute the resilience comparison on the given preset."""
    workload: Workload = build_workload(config)
    plan = outage_plan(
        workload.world.layout, workload.test_demands, config.replay
    )
    down = plan.events[0]
    up = plan.events[-1]
    strategies: Dict[str, SelectionStrategy] = {
        "llf": LeastLoadedFirst(),
        "s3": S3Strategy(trained_model(config).selector()),
    }
    by_strategy: Dict[str, StrategyResilience] = {}
    for name in sorted(strategies):
        journal = journaled_replay(
            workload.world.layout,
            strategies[name],
            workload.test_demands,
            config.replay,
            plan,
        )
        by_strategy[name] = analyze_journal(journal, name)
    return ResilienceResult(
        target_ap=down.target,
        fault_start=down.time,
        fault_duration=up.time - down.time,
        by_strategy=by_strategy,
    )
