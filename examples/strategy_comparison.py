#!/usr/bin/env python
"""Compare every AP-selection strategy on the same evaluation workload.

Runs the four strategies the evaluation section discusses — the 802.11
RSSI default, load-based LLF, count-based LLF and S³ — over the same
held-out demand trace, and prints the mean normalized balance index
overall, inside the departure peaks, and per controller domain.

Run:  python examples/strategy_comparison.py
"""

import numpy as np

from repro.core import train_s3
from repro.sim.timeline import DAY, HOUR, in_departure_peak
from repro.trace import GeneratorConfig, generate_trace
from repro.trace.records import TraceBundle
from repro.trace.social import WorldConfig
from repro.wlan import ReplayEngine, collect_trace
from repro.wlan.strategies import (
    LeastLoadedFirst,
    RandomSelection,
    S3Strategy,
    StrongestSignal,
)


def evaluate(result):
    """(mean, departure-peak mean) over active daytime samples."""
    day_values, peak_values = [], []
    for series in result.series.values():
        mask = series.active_mask()
        betas = series.balance_series()
        for t, beta, active in zip(series.times, betas, mask):
            if not active or not 8 * HOUR <= t % DAY < 24 * HOUR:
                continue
            day_values.append(beta)
            if in_departure_peak(t):
                peak_values.append(beta)
    return float(np.mean(day_values)), float(np.mean(peak_values))


def main() -> None:
    config = GeneratorConfig(
        world=WorldConfig(
            n_buildings=3, aps_per_building=4, n_users=300, n_groups=32,
            group_size_mean=12.0,
        ),
        n_days=17,
        seed=11,
    )
    world, bundle = generate_trace(config)
    split = 14 * DAY
    train_source = TraceBundle(
        demands=[d for d in bundle.demands if d.arrival < split],
        flows=bundle.flows_before(split),
    )
    collected = collect_trace(world.layout, train_source, LeastLoadedFirst())
    model = train_s3(collected)
    test_demands = [d for d in bundle.demands if d.arrival >= split]
    print(f"evaluating {len(test_demands)} demand sessions over 3 days\n")

    strategies = [
        StrongestSignal(),
        RandomSelection(np.random.default_rng(0)),
        LeastLoadedFirst(),
        LeastLoadedFirst(metric="users"),
        S3Strategy(model.selector()),
    ]
    rows = []
    for strategy in strategies:
        result = ReplayEngine(world.layout, strategy).run(test_demands)
        mean, peak = evaluate(result)
        rows.append((strategy.name, mean, peak))

    print(f"{'strategy':<12} {'mean balance':>13} {'departure peaks':>16}")
    print("-" * 43)
    llf_mean = next(mean for name, mean, _ in rows if name == "llf")
    for name, mean, peak in rows:
        marker = ""
        if name == "s3":
            marker = f"  <- {100 * (mean - llf_mean) / llf_mean:+.1f}% vs llf"
        print(f"{name:<12} {mean:>13.4f} {peak:>16.4f}{marker}")


if __name__ == "__main__":
    main()
