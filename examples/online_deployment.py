#!/usr/bin/env python
"""Deploying S³ without any training data (online learning).

The paper's future work (§VII) is deploying S³ on a live campus.  An
operator's first question: *do I need weeks of trace before the scheme is
safe to turn on?*  This example answers it: a cold-start online S³ —
empty social model, learning encounters, co-leavings and demand from the
association stream it manages — is compared against LLF and against an
offline-pretrained S³ on the same evaluation days.

Run:  python examples/online_deployment.py
"""

import numpy as np

from repro.core import train_s3
from repro.core.demand import DemandEstimator
from repro.core.online import OnlineS3Strategy
from repro.core.selection import S3Selector
from repro.core.social import SocialModel
from repro.core.typing import TypeModel
from repro.sim.timeline import DAY
from repro.trace import GeneratorConfig, generate_trace
from repro.trace.records import TraceBundle
from repro.trace.social import WorldConfig
from repro.wlan import ReplayEngine, collect_trace
from repro.wlan.strategies import LeastLoadedFirst, S3Strategy


def cold_start_strategy() -> OnlineS3Strategy:
    """An S³ controller that knows nothing yet."""
    types = TypeModel(
        centroids=np.full((4, 6), 1 / 6),
        assignments={},
        affinity=np.full((4, 4), 0.25),
    )
    selector = S3Selector(SocialModel({}, types), DemandEstimator())
    return OnlineS3Strategy(selector)


def main() -> None:
    config = GeneratorConfig(
        world=WorldConfig(
            n_buildings=2, aps_per_building=4, n_users=200, n_groups=24
        ),
        n_days=15,
        seed=23,
    )
    world, bundle = generate_trace(config)
    split = 12 * DAY
    test_demands = [d for d in bundle.demands if d.arrival >= split]

    # Offline path: three weeks of collected trace, then train.
    train_source = TraceBundle(
        demands=[d for d in bundle.demands if d.arrival < split],
        flows=bundle.flows_before(split),
    )
    collected = collect_trace(world.layout, train_source, LeastLoadedFirst())
    pretrained = train_s3(collected)

    print(f"evaluation: {len(test_demands)} demands over 3 days\n")

    llf = ReplayEngine(world.layout, LeastLoadedFirst()).run(test_demands)
    offline = ReplayEngine(
        world.layout, S3Strategy(pretrained.selector())
    ).run(test_demands)
    online = cold_start_strategy()
    online_result = ReplayEngine(world.layout, online).run(test_demands)

    print(f"{'deployment':<22} {'mean balance':>13}")
    print("-" * 37)
    print(f"{'LLF (production)':<22} {llf.mean_balance():>13.4f}")
    print(f"{'S3 pretrained':<22} {offline.mean_balance():>13.4f}")
    print(f"{'S3 cold-start online':<22} {online_result.mean_balance():>13.4f}")
    print()
    print("knowledge the cold-start controller accumulated in 3 days:")
    print(f"  pair statistics : {online.selector.social.known_pairs()}")
    print(f"  encounters      : {online.learner.encounters_recorded}")
    print(f"  co-leavings     : {online.learner.co_leavings_recorded}")
    print(f"  demand profiles : {len(online.selector.demand.known_users)}")
    print()
    print(
        "Turn-on is safe: with no data the online controller behaves like "
        "demand-aware load balancing and converges toward the pretrained "
        "model as relations accumulate."
    )


if __name__ == "__main__":
    main()
