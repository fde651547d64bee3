"""Run sweeps, or one journaled replay, from the command line.

    python -m repro.runtime replay [paper|small|tiny]
        [--strategy llf|s3] [--journal PATH]
        [--fault-seed N | --fault-plan PATH]

    python -m repro.runtime sweep {terms,threshold,staleness,batching}
        [paper|small|tiny] [--engine auto|serial|process]
        [--workers N] [--run-dir PATH] [--retries N]

``replay`` replays the preset's evaluation demands under one strategy
through :meth:`repro.wlan.replay.ReplayEngine.run` and prints the result
shape plus the mean daytime balance; ``--journal`` streams the run's
structured journal to ``PATH`` as the run goes.  A replay runs in this
process, so ``replay`` refuses the sweep's ``--engine``, ``--workers``,
``--run-dir`` and ``--retries``.

``sweep`` executes one of the ablation planners through
:func:`repro.runtime.sweep.run_sweep` and prints each task's value.
``--run-dir`` makes it resumable: a re-invocation after a mid-run kill
re-executes only the unfinished tasks; ``--retries N`` retries a failed
task up to ``N`` times before giving up.

Fault injection (``replay`` only): ``--fault-seed N`` generates a
deterministic chaos plan (one AP outage by default) from seed ``N`` over
the run's window; ``--fault-plan PATH`` replays a plan saved as JSON
(see :mod:`repro.faults`).  Same seed or same file, same faults — the
journal stays byte-identical after ``strip_wall``.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.runtime.options import ENGINES

_USAGE = (
    "usage: python -m repro.runtime replay [preset] [--strategy llf|s3]\n"
    "           [--journal PATH] [--fault-seed N | --fault-plan PATH]\n"
    "       python -m repro.runtime sweep {terms,threshold,staleness,"
    "batching}\n"
    "           [preset] [--engine auto|serial|process] [--workers N]\n"
    "           [--run-dir PATH] [--retries N]"
)

_SWEEPS = ("terms", "threshold", "staleness", "batching")

#: Sweep options ``replay`` refuses: a replay runs in this process.
_SWEEP_ONLY = ("--engine", "--workers", "--run-dir", "--retries")


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


def _parse_sweep_options(
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
    from repro.wlan.replay import ReplayEngine
    from repro.wlan.strategies import LeastLoadedFirst, S3Strategy, SelectionStrategy

    for flag in _SWEEP_ONLY:
        if flag in args:
            raise ValueError(
                f"replay takes no {flag}: a replay runs in this process "
                "(the option belongs to sweep)"
            )
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
    engine = ReplayEngine(
        workload.world.layout, strategy, config.replay, fault_plan=fault_plan
    )
    if journal_path is None:
        result = engine.run(workload.test_demands)
    else:
        meta = {"preset": preset_key, "strategy": strategy.name}
        if fault_plan is not None:
            meta["faults"] = fault_plan.fingerprint()
        obs.enable(reset=True)
        try:
            with obs.streamed_journal(journal_path, meta):
                result = engine.run(workload.test_demands)
        finally:
            obs.disable()
    print(f"replay preset={preset_key} strategy={strategy.name}")
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
    engine, workers, run_dir, retries = _parse_sweep_options(args)
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
        print(f"error: {exc}\n{_USAGE}")
        return 2
    print(f"unknown command {command!r}\n{_USAGE}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
