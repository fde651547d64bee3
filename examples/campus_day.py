#!/usr/bin/env python
"""Section III in miniature: mine a collected campus trace.

Reproduces the paper's measurement methodology on one synthetic campus:

* the balance-index time series of one controller over a workday, with a
  text sparkline showing the co-leaving craters;
* the per-user co-leaving fraction (Fig. 5 statistic);
* the application-profile clustering (user types) and the type-pair
  co-leaving affinity (Table I).

Run:  python examples/campus_day.py
"""

import numpy as np

from repro.analysis.balance import balance_series
from repro.analysis.churn import coleaving_fraction_per_user, extract_churn
from repro.core.profiles import build_daily_profiles
from repro.core.typing import fit_type_model
from repro.sim.timeline import DAY, HOUR, MINUTE, Timeline, format_clock
from repro.trace import GeneratorConfig, generate_trace
from repro.trace.apps import REALMS
from repro.trace.records import TraceBundle
from repro.trace.social import WorldConfig
from repro.wlan import collect_trace
from repro.wlan.strategies import LeastLoadedFirst

SPARK = " .:-=+*#%@"


def sparkline(values) -> str:
    chars = []
    for value in values:
        index = min(len(SPARK) - 1, int(value * (len(SPARK) - 1) + 0.5))
        chars.append(SPARK[index])
    return "".join(chars)


def main() -> None:
    config = GeneratorConfig(
        world=WorldConfig(
            n_buildings=2, aps_per_building=4, n_users=160, n_groups=20
        ),
        n_days=10,
        seed=7,
    )
    world, bundle = generate_trace(config)
    source = TraceBundle(demands=bundle.demands, flows=bundle.flow_columns())
    collected = collect_trace(world.layout, source, LeastLoadedFirst())
    print(f"collected {len(collected.sessions)} sessions under LLF\n")

    # --- one controller's workday balance series -------------------------
    controller_id = sorted(world.layout.controller_ids)[0]
    ap_ids = [ap.ap_id for ap in world.layout.aps_of_controller(controller_id)]
    sessions = [s for s in collected.sessions if s.controller_id == controller_id]
    day = 8  # a mid-trace workday (day 8 is a Tuesday)
    timeline = Timeline(day * DAY + 8 * HOUR, day * DAY + 24 * HOUR)
    times, betas = balance_series(sessions, ap_ids, timeline, 20 * MINUTE)
    print(f"{controller_id}, day {day}, 8:00-24:00, 20-minute windows")
    print(f"  balance |{sparkline(betas)}|")
    print(f"          8:00{' ' * (len(betas) - 9)}24:00")
    worst = int(np.argmin(betas))
    print(
        f"  worst window at {format_clock(times[worst])} "
        f"(index {betas[worst]:.2f}) — look for a departure peak there\n"
    )

    # --- sociality of departures (Fig. 5) --------------------------------
    fractions = coleaving_fraction_per_user(collected.sessions, 10 * MINUTE)
    values = np.array(sorted(fractions.values()))
    print("co-leaving fraction per user (10-minute window):")
    print(f"  median {np.median(values):.2f}, "
          f"75th percentile {np.percentile(values, 75):.2f} — "
          f"most departures are shared\n")

    # --- user types and Table I ------------------------------------------
    profiles = build_daily_profiles(collected.flow_columns())
    churn = extract_churn(collected.sessions)
    types = fit_type_model(profiles, churn, k=4)
    print("cluster centroids over the six application realms:")
    header = "  ".join(f"{realm.label:>9s}" for realm in REALMS)
    print(f"           {header}")
    for i, centroid in enumerate(types.centroids):
        row = "  ".join(f"{v:9.3f}" for v in centroid)
        print(f"  type{i + 1}   {row}")
    affinity = types.affinity
    diag = affinity.diagonal().mean()
    off = (affinity.sum() - affinity.trace()) / 12
    print(
        f"\nco-leaving affinity: same-type {diag:.2f} vs cross-type "
        f"{off:.2f} — the paper's Table I diagonal dominance"
    )

    # --- the social graph itself --------------------------------------
    from repro.core.social import build_social_model
    from repro.graph.metrics import average_clustering, density, summarize

    social = build_social_model(churn, types)
    graph = social.build_graph(sorted(types.assignments), threshold=0.3)
    print(f"\nsocial graph (delta > 0.3): {summarize(graph)}")
    print(
        f"clustering {average_clustering(graph):.2f} vs density "
        f"{density(graph):.3f}: far above random — edges come from real "
        f"groups, not coincidence"
    )


if __name__ == "__main__":
    main()
