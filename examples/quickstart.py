#!/usr/bin/env python
"""Quickstart: generate a campus, train S³, and beat LLF.

This walks the full public API in five steps on a small synthetic campus
(runs in well under a minute):

1. build a social world and generate its demand trace;
2. replay the training period under LLF — the production strategy — to
   obtain the *collected* trace (session log + router flows);
3. train the S³ model (profiles -> types -> social relations -> demand);
4. replay the held-out evaluation days under LLF and under S³;
5. compare the normalized balance index.

Run:  python examples/quickstart.py
"""

from repro.core import train_s3
from repro.sim.timeline import DAY
from repro.trace import GeneratorConfig, generate_trace
from repro.trace.records import TraceBundle
from repro.trace.social import WorldConfig
from repro.wlan import ReplayEngine, collect_trace
from repro.wlan.strategies import LeastLoadedFirst, S3Strategy


def main() -> None:
    # 1. A small campus: 2 buildings x 4 APs, 150 users, 18 social groups,
    #    12 simulated days (9 for training, 3 for evaluation).
    config = GeneratorConfig(
        world=WorldConfig(
            n_buildings=2, aps_per_building=4, n_users=150, n_groups=18
        ),
        n_days=12,
        seed=42,
    )
    world, bundle = generate_trace(config)
    print(f"world: {world.summary()}")
    print(f"trace: {bundle}")

    # 2. Collect the production trace: training-period demands under LLF.
    split = 9 * DAY
    train_source = TraceBundle(
        demands=[d for d in bundle.demands if d.arrival < split],
        flows=bundle.flows_before(split),
    )
    collected = collect_trace(world.layout, train_source, LeastLoadedFirst())
    print(f"collected training trace: {len(collected.sessions)} sessions")

    # 3. Train S³ on the collected trace.
    model = train_s3(collected)
    print(f"trained: {model.summary()}")

    # 4. Replay the evaluation days under both strategies.
    test_demands = [d for d in bundle.demands if d.arrival >= split]
    llf_result = ReplayEngine(world.layout, LeastLoadedFirst()).run(test_demands)
    s3_result = ReplayEngine(
        world.layout, S3Strategy(model.selector())
    ).run(test_demands)

    # 5. Compare.
    llf_balance = llf_result.mean_balance()
    s3_balance = s3_result.mean_balance()
    gain = 100.0 * (s3_balance - llf_balance) / llf_balance
    print()
    print(f"mean normalized balance index, evaluation days:")
    print(f"  LLF : {llf_balance:.4f}")
    print(f"  S3  : {s3_balance:.4f}")
    print(f"  gain: {gain:+.1f}%  (the paper reports +41.2% on its campus)")


if __name__ == "__main__":
    main()
