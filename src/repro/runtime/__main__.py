"""Drive the sharded execution engine from the command line.

    python -m repro.runtime replay [paper|small|tiny]
        [--strategy llf|s3] [--engine auto|serial|process]
        [--workers N] [--run-dir PATH] [--journal PATH]

    python -m repro.runtime sweep {terms,threshold,staleness,batching}
        [paper|small|tiny] [--engine auto|serial|process]
        [--workers N] [--run-dir PATH]

``replay`` replays the preset's evaluation demands under one strategy
through :func:`repro.runtime.engine.replay` and prints the result shape
plus the mean daytime balance; ``--journal`` additionally records the
run's structured journal (byte-identical across engines after
``strip_wall``).  ``sweep`` executes one of the ablation planners
through :func:`repro.runtime.sweep.run_sweep` and prints each task's
value.  ``--run-dir`` makes either mode resumable: a re-invocation after
a mid-run kill re-executes only the unfinished shards/tasks.  Only the
process engine checkpoints and retries, so for ``replay`` ``--engine
auto`` with ``--run-dir`` or ``--retries`` runs it, ``--engine serial``
rejects them, and the engine printed and journalled is the one that ran.

Fault injection (``replay`` only): ``--fault-seed N`` generates a
deterministic chaos plan (one AP outage by default) from seed ``N`` over
the run's window; ``--fault-plan PATH`` replays a plan saved as JSON
(see :mod:`repro.faults`).  Same seed or same file, same faults — the
journal stays byte-identical across engines.  ``--retries N`` retries
crashed shard workers up to ``N`` times before giving up (both modes).
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.runtime.options import ENGINES

_USAGE = (
    "usage: python -m repro.runtime replay [preset] [--strategy llf|s3]\n"
    "           [--engine auto|serial|process] [--workers N]\n"
    "           [--run-dir PATH] [--journal PATH]\n"
    "           [--fault-seed N | --fault-plan PATH] [--retries N]\n"
    "       python -m repro.runtime sweep {terms,threshold,staleness,"
    "batching}\n"
    "           [preset] [--engine auto|serial|process] [--workers N]\n"
    "           [--run-dir PATH] [--retries N]"
)

_SWEEPS = ("terms", "threshold", "staleness", "batching")


def _pop_option(args: List[str], flag: str) -> Optional[str]:
    """Remove ``flag VALUE`` from ``args``; None when absent.

    Raises :class:`ValueError` when the flag is present without a value.
    """
    if flag not in args:
        return None
    index = args.index(flag)
    if index + 1 >= len(args):
        raise ValueError(f"{flag} requires a value")
    value = args[index + 1]
    del args[index : index + 2]
    return value


def _parse_common(
    args: List[str],
) -> Tuple[str, Optional[int], Optional[str], int]:
    """Extract ``--engine/--workers/--run-dir/--retries`` in place."""
    engine = _pop_option(args, "--engine") or "auto"
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    raw_workers = _pop_option(args, "--workers")
    workers: Optional[int] = None
    if raw_workers is not None:
        workers = int(raw_workers)
        if workers < 1:
            raise ValueError("--workers must be a positive integer")
    run_dir = _pop_option(args, "--run-dir")
    raw_retries = _pop_option(args, "--retries")
    retries = 0
    if raw_retries is not None:
        retries = int(raw_retries)
        if retries < 0:
            raise ValueError("--retries must be a non-negative integer")
    return engine, workers, run_dir, retries


def _pop_preset(args: List[str]) -> str:
    from repro.experiments.__main__ import PRESETS

    if args and args[0] in PRESETS:
        return args.pop(0)
    return "paper"


def _cmd_replay(args: List[str]) -> int:
    from repro import obs
    from repro.experiments.__main__ import PRESETS
    from repro.experiments.evaluation import mean_daytime_balance
    from repro.experiments.workload import build_workload, trained_model
    from repro.runtime.engine import engine_for_replay, replay
    from repro.wlan.strategies import LeastLoadedFirst, S3Strategy, SelectionStrategy

    engine, workers, run_dir, retries = _parse_common(args)
    journal_path = _pop_option(args, "--journal")
    strategy_name = _pop_option(args, "--strategy") or "llf"
    fault_seed = _pop_option(args, "--fault-seed")
    fault_plan_path = _pop_option(args, "--fault-plan")
    if fault_seed is not None and fault_plan_path is not None:
        raise ValueError("--fault-seed and --fault-plan are mutually exclusive")
    preset_key = _pop_preset(args)
    if args:
        raise ValueError(f"unexpected arguments: {args}")
    config = PRESETS[preset_key]
    workload = build_workload(config)
    strategy: SelectionStrategy
    if strategy_name == "llf":
        strategy = LeastLoadedFirst()
    elif strategy_name == "s3":
        strategy = S3Strategy(trained_model(config).selector())
    else:
        raise ValueError(f"unknown strategy {strategy_name!r}; choose llf or s3")
    fault_plan = _fault_plan(
        fault_seed, fault_plan_path, workload, config.replay
    )
    engine = engine_for_replay(
        workload.world.layout, strategy, workload.test_demands, config.replay,
        engine, run_dir=run_dir, max_task_retries=retries,
    )
    if journal_path is not None:
        obs.enable(reset=True)
    try:
        result = replay(
            workload.world.layout,
            strategy,
            workload.test_demands,
            config.replay,
            engine=engine,
            workers=workers,
            run_dir=run_dir,
            fault_plan=fault_plan,
            max_task_retries=retries,
        )
        if journal_path is not None:
            meta = {
                "preset": preset_key,
                "strategy": strategy.name,
                "engine": engine,
            }
            if fault_plan is not None:
                meta["faults"] = fault_plan.fingerprint()
            obs.write_journal(journal_path, meta=meta)
    finally:
        if journal_path is not None:
            obs.disable()
    print(
        f"replay preset={preset_key} strategy={strategy.name} "
        f"engine={engine}"
    )
    print(
        f"  sessions={len(result.sessions)} events={result.events_processed} "
        f"controllers={len(result.series)}"
    )
    if fault_plan is not None:
        print(
            f"  faults: {len(fault_plan.events)} event(s), "
            f"{fault_plan.fingerprint()}"
        )
    print(f"  mean daytime balance: {mean_daytime_balance(result):.4f}")
    if journal_path is not None:
        print(f"  journal: {journal_path}")
    return 0


def _fault_plan(
    fault_seed: Optional[str],
    fault_plan_path: Optional[str],
    workload: Any,
    replay_config: Any,
) -> Optional[Any]:
    """Resolve ``--fault-seed``/``--fault-plan`` into a FaultPlan (or None)."""
    if fault_plan_path is not None:
        from repro.faults import FaultPlan

        return FaultPlan.load(fault_plan_path)
    if fault_seed is None:
        return None
    from repro.faults import generate_plan
    from repro.sim.rng import RandomStreams
    from repro.wlan.replay import window_for

    window = window_for(workload.test_demands, replay_config)
    return generate_plan(
        workload.world.layout,
        window.start,
        window.horizon,
        RandomStreams(int(fault_seed)),
    )


def _cmd_sweep(args: List[str]) -> int:
    from repro.experiments import ablations
    from repro.experiments.__main__ import PRESETS
    from repro.runtime.sweep import run_sweep

    if not args or args[0] not in _SWEEPS:
        raise ValueError(f"sweep needs one of {_SWEEPS}")
    sweep_name = args.pop(0)
    engine, workers, run_dir, retries = _parse_common(args)
    preset_key = _pop_preset(args)
    if args:
        raise ValueError(f"unexpected arguments: {args}")
    config = PRESETS[preset_key]
    planners = {
        "terms": ablations.plan_terms,
        "threshold": ablations.plan_threshold,
        "staleness": ablations.plan_staleness,
        "batching": ablations.plan_batching,
    }
    plan = planners[sweep_name](config)
    values: Dict[str, Any] = run_sweep(
        plan, engine=engine, workers=workers, run_dir=run_dir,
        max_task_retries=retries,
    )
    print(
        f"sweep {sweep_name} preset={preset_key} engine={engine} "
        f"tasks={len(plan)}"
    )
    for task in plan.tasks:
        value = values[task.task_id]
        rendered = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"  {task.task_id}: {rendered}")
    return 0


def main(argv: Sequence[str]) -> int:
    args = list(argv)
    if not args or args[0] in ("-h", "--help"):
        print(_USAGE)
        return 0 if args else 2
    command = args.pop(0)
    try:
        if command == "replay":
            return _cmd_replay(args)
        if command == "sweep":
            return _cmd_sweep(args)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    print(f"unknown command {command!r}\n{_USAGE}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
