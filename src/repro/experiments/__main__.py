"""Run every experiment and print its rendered report.

    python -m repro.experiments [paper|small|tiny] [--perf] [--trace]
                                [--journal PATH] [--metrics] [--workers N]
                                [fig2 fig5 ...]

Without experiment names, all twelve run in paper order.  ``--workers N``
(N > 1) fans the named experiments out over a process pool via
:mod:`repro.runtime` — each worker rebuilds its workload from the preset
seed, so results are identical to the serial path; it cannot be combined
with ``--trace``/``--journal`` (those observe one in-process run).  ``--perf``
appends a :mod:`repro.perf` timer/counter table after each experiment
(reset in between, so each table covers exactly one experiment — note the
in-process workload cache means only the first experiment pays generation
and training).  ``--journal PATH`` enables the :mod:`repro.obs` tracer
and streams the whole run's structured journal — spans, association
decisions, balance samples, perf footer — to ``PATH`` as the run goes
(render it with ``python -m repro.obs.report PATH``).  ``--metrics``
additionally turns on the :mod:`repro.obs.metrics` registry, so the
journal carries the windowed metric series and rollup (export them with
``python -m repro.obs.metrics PATH``).  ``--trace`` enables the tracer
and prints the aggregated span table (read back from the journal when
one is streamed).  With
either flag the perf registry is reset once up front rather than between
experiments, so the journal footer covers the full run.  This is the
human-facing sibling of the benchmark harness (``pytest benchmarks/``),
which runs the same code and asserts the qualitative shapes.
"""

from __future__ import annotations

import sys
from contextlib import nullcontext
from typing import ContextManager, Optional, Sequence

from repro import obs, perf
from repro.obs import report as obs_report
from repro.experiments import config as config_module
from repro.experiments import (
    fig2_balance,
    fig3_appdyn,
    fig4_userload,
    fig5_coleave,
    fig6_nmi,
    fig7_gap,
    fig8_centroids,
    table1,
    fig10_window,
    fig11_history,
    fig12_compare,
    forecast,
    ablations,
    resilience,
)

EXPERIMENTS = {
    "fig2": fig2_balance,
    "fig3": fig3_appdyn,
    "fig4": fig4_userload,
    "fig5": fig5_coleave,
    "fig6": fig6_nmi,
    "fig7": fig7_gap,
    "fig8": fig8_centroids,
    "table1": table1,
    "fig10": fig10_window,
    "fig11": fig11_history,
    "fig12": fig12_compare,
    "forecast": forecast,
    "ablations": ablations,
    "resilience": resilience,
}

PRESETS = {
    "paper": config_module.PAPER,
    "small": config_module.SMALL,
    "tiny": config_module.TINY,
}


def _run_parallel(
    names: Sequence[str], preset_key: str, workers: int, show_perf: bool
) -> int:
    """Fan the named experiments out over a process pool.

    Each task re-runs one experiment in a worker that rebuilds the
    workload from the preset seed; the parent merges worker perf
    snapshots, so ``--perf`` prints one table covering the whole fleet.
    """
    from repro.runtime.sweep import SweepPlan, experiment_task, make_task, run_sweep

    perf.reset()
    plan = SweepPlan(
        [
            make_task(name, experiment_task, name=name, preset=preset_key)
            for name in names
        ]
    )
    with perf.timer("experiment.total"):
        rendered = run_sweep(plan, engine="process", workers=workers)
    for name in names:
        print(f"\n=== {name} (preset {preset_key}, workers={workers}) " + "=" * 20)
        print(rendered[name])
    if show_perf:
        print()
        print(perf.report(title=f"--- perf: {len(names)} experiments ---"))
    return 0


def main(argv: Sequence[str]) -> int:
    """Run the named experiments on the chosen preset; returns exit code."""
    args = list(argv)
    show_perf = "--perf" in args
    if show_perf:
        args.remove("--perf")
    show_trace = "--trace" in args
    if show_trace:
        args.remove("--trace")
    with_metrics = "--metrics" in args
    if with_metrics:
        args.remove("--metrics")
    journal_path: Optional[str] = None
    if "--journal" in args:
        index = args.index("--journal")
        if index + 1 >= len(args):
            print("--journal requires a path argument")
            return 2
        journal_path = args[index + 1]
        del args[index : index + 2]
    workers: Optional[int] = None
    if "--workers" in args:
        index = args.index("--workers")
        if index + 1 >= len(args):
            print("--workers requires a positive integer argument")
            return 2
        try:
            workers = int(args[index + 1])
        except ValueError:
            print(f"--workers requires an integer, got {args[index + 1]!r}")
            return 2
        if workers < 1:
            print("--workers requires a positive integer argument")
            return 2
        del args[index : index + 2]
    preset_key = "paper"
    if args and args[0] in PRESETS:
        preset_key = args.pop(0)
    preset = PRESETS[preset_key]
    names = args if args else list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; choose from {sorted(EXPERIMENTS)}")
        return 2
    if with_metrics and journal_path is None:
        print("--metrics requires --journal (metrics land in the journal)")
        return 2
    if workers is not None and workers > 1:
        if show_trace or journal_path is not None:
            print(
                "--workers cannot be combined with --trace/--journal: "
                "the fan-out runs experiments in worker processes whose "
                "tracers are not merged (use python -m repro.runtime for "
                "journaled parallel replays)"
            )
            return 2
        return _run_parallel(names, preset_key, workers, show_perf)

    observing = show_trace or journal_path is not None
    if observing:
        obs.enable(reset=True)
        perf.reset()
    if with_metrics:
        obs.metrics.enable(reset=True)
    streaming: ContextManager[object] = nullcontext()
    if journal_path is not None:
        streaming = obs.streamed_journal(
            journal_path,
            {
                "preset": preset.name,
                "seed": preset.seed,
                "experiments": list(names),
            },
        )
    try:
        with streaming:
            for name in names:
                if not observing:
                    perf.reset()
                before = perf.PERF.total("experiment.total")
                with perf.timer("experiment.total"):
                    with obs.span(f"experiment.{name}", preset=preset.name):
                        result = EXPERIMENTS[name].run(preset)
                elapsed = perf.PERF.total("experiment.total") - before
                print(
                    f"\n=== {name} (preset {preset.name}, {elapsed:.1f}s) "
                    + "=" * 20
                )
                print(result.render())
                if show_perf:
                    print()
                    print(perf.report(title=f"--- perf: {name} ---"))
        if journal_path is not None:
            print(f"\njournal: {journal_path}")
        if show_trace:
            # A streamed run keeps no records in memory: read them back.
            spans = (
                obs.get_tracer().spans()
                if journal_path is None
                else obs.read_journal(journal_path).spans
            )
            print()
            print("--- spans ---")
            print(obs_report.format_top_spans(spans))
    finally:
        if observing:
            obs.disable()
        if with_metrics:
            obs.metrics.disable()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
