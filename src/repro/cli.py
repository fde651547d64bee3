"""Command-line interface for the full S³ workflow.

    python -m repro generate --out trace/ --preset small
    python -m repro collect  --trace trace/ --out collected/ --train-days 9
    python -m repro train    --trace collected/ --model model.pkl
    python -m repro evaluate --trace trace/ --model model.pkl --from-day 9
    python -m repro experiments small fig12

`generate` writes a demand trace (demands.csv, flows.csv, layout.json);
`collect` replays the demands under a production strategy and writes the
resulting session log next to the inputs; `train` fits an S³ model and
pickles it; `evaluate` replays a span of demands under several strategies
and prints the balance comparison.
"""

from __future__ import annotations

import argparse
import pickle
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.core.pipeline import S3Model, train_s3
from repro.sim.rng import RandomStreams
from repro.sim.timeline import DAY
from repro.trace.generator import GeneratorConfig, TraceGenerator
from repro.trace.io import (
    load_bundle,
    read_layout,
    save_bundle,
    write_layout,
    write_sessions,
)
from repro.trace.records import TraceBundle
from repro.trace.social import WorldConfig, build_world
from repro.wlan.replay import ReplayEngine
from repro.wlan.strategies import (
    LeastLoadedFirst,
    RandomSelection,
    S3Strategy,
    SelectionStrategy,
    StrongestSignal,
)
from repro.wlan.baselines import BestHeadroom, CellBreathing

WORLD_PRESETS = {
    "tiny": WorldConfig(n_buildings=1, aps_per_building=3, n_users=48, n_groups=6),
    "small": WorldConfig(n_buildings=2, aps_per_building=4, n_users=150, n_groups=18),
    "paper": WorldConfig(
        n_buildings=4,
        aps_per_building=5,
        n_users=700,
        n_groups=70,
        group_size_mean=14.0,
        solo_rate=0.5,
        loose_group_fraction=0.6,
    ),
}


def make_strategy(name: str, model: Optional[S3Model] = None) -> SelectionStrategy:
    """Strategy factory for CLI arguments."""
    if name == "llf":
        return LeastLoadedFirst()
    if name == "llf-users":
        return LeastLoadedFirst(metric="users")
    if name == "rssi":
        return StrongestSignal()
    if name == "random":
        return RandomSelection(np.random.default_rng(0))
    if name == "cell-breathing":
        return CellBreathing()
    if name == "best-headroom":
        return BestHeadroom()
    if name == "s3":
        if model is None:
            raise SystemExit("strategy 's3' needs --model <file>")
        return S3Strategy(model.selector())
    raise SystemExit(f"unknown strategy {name!r}")


def cmd_generate(args: argparse.Namespace) -> int:
    """``repro generate``: build a world and write its demand trace."""
    world_config = WORLD_PRESETS[args.preset]
    config = GeneratorConfig(world=world_config, n_days=args.days, seed=args.seed)
    streams = RandomStreams(config.seed)
    world = build_world(world_config, streams)
    bundle = TraceGenerator(world, config, streams=streams).generate()
    out = Path(args.out)
    save_bundle(out, bundle)
    write_layout(out / "layout.json", world.layout)
    print(f"wrote {len(bundle.demands)} demands, {bundle.n_flows} flows, "
          f"layout with {len(world.layout.aps)} APs to {out}/")
    return 0


def cmd_collect(args: argparse.Namespace) -> int:
    """``repro collect``: replay demands under a production strategy."""
    trace_dir = Path(args.trace)
    bundle = load_bundle(trace_dir)
    layout = read_layout(trace_dir / "layout.json")
    split = args.train_days * DAY if args.train_days else float("inf")
    demands = [d for d in bundle.demands if d.arrival < split]
    strategy = make_strategy(args.strategy)
    result = ReplayEngine(layout, strategy).run(demands)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_sessions(out / "sessions.csv", result.sessions)
    # Carry the matching flows/demands so the directory is trainable.
    train_bundle = TraceBundle(
        sessions=result.sessions,
        flows=bundle.flows_before(split),
        demands=demands,
    )
    save_bundle(out, train_bundle)
    write_layout(out / "layout.json", layout)
    print(
        f"collected {len(result.sessions)} sessions under {strategy.name} "
        f"into {out}/"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    """``repro train``: fit an S3 model on a collected trace and pickle it."""
    bundle = load_bundle(Path(args.trace))
    model = train_s3(bundle)
    with open(args.model, "wb") as handle:
        pickle.dump(model, handle)
    print(f"trained {model.summary()}")
    print(f"model written to {args.model}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    """``repro evaluate``: compare strategies on a span of demands."""
    trace_dir = Path(args.trace)
    bundle = load_bundle(trace_dir)
    layout = read_layout(trace_dir / "layout.json")
    start = args.from_day * DAY
    demands = [d for d in bundle.demands if d.arrival >= start]
    if not demands:
        raise SystemExit(f"no demands at or after day {args.from_day}")
    model: Optional[S3Model] = None
    if args.model:
        with open(args.model, "rb") as handle:
            model = pickle.load(handle)
    print(f"evaluating {len(demands)} demands (day {args.from_day}+)\n")
    print(f"{'strategy':<15} {'mean balance':>13}")
    print("-" * 29)
    for name in args.strategies:
        strategy = make_strategy(name, model)
        result = ReplayEngine(layout, strategy).run(demands)
        print(f"{strategy.name:<15} {result.mean_balance():>13.4f}")
    return 0


def cmd_describe(args: argparse.Namespace) -> int:
    """``repro describe``: print summary statistics of a trace directory."""
    from repro.analysis.sessions import describe_bundle

    bundle = load_bundle(Path(args.trace))
    print(describe_bundle(bundle))
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    """``repro experiments``: delegate to the experiment runner."""
    from repro.experiments.__main__ import main as experiments_main

    return experiments_main(args.rest)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro", description="S3 reproduction workflow"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic campus trace")
    generate.add_argument("--out", required=True)
    generate.add_argument("--preset", choices=sorted(WORLD_PRESETS), default="small")
    generate.add_argument("--days", type=int, default=12)
    generate.add_argument("--seed", type=int, default=20120704)
    generate.set_defaults(func=cmd_generate)

    collect = sub.add_parser(
        "collect", help="replay demands under a production strategy"
    )
    collect.add_argument("--trace", required=True)
    collect.add_argument("--out", required=True)
    collect.add_argument("--strategy", default="llf")
    collect.add_argument(
        "--train-days", type=int, default=None,
        help="only replay demands before this day",
    )
    collect.set_defaults(func=cmd_collect)

    train = sub.add_parser("train", help="train an S3 model on a collected trace")
    train.add_argument("--trace", required=True)
    train.add_argument("--model", required=True)
    train.set_defaults(func=cmd_train)

    evaluate = sub.add_parser("evaluate", help="compare strategies on a demand trace")
    evaluate.add_argument("--trace", required=True)
    evaluate.add_argument("--model", default=None)
    evaluate.add_argument("--from-day", type=int, default=0)
    evaluate.add_argument(
        "--strategies", nargs="+",
        default=["llf", "llf-users", "rssi", "s3"],
    )
    evaluate.set_defaults(func=cmd_evaluate)

    describe = sub.add_parser("describe", help="summarize a trace directory")
    describe.add_argument("--trace", required=True)
    describe.set_defaults(func=cmd_describe)

    experiments = sub.add_parser(
        "experiments", help="run paper experiments (see python -m repro.experiments)"
    )
    experiments.add_argument("rest", nargs=argparse.REMAINDER)
    experiments.set_defaults(func=cmd_experiments)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
