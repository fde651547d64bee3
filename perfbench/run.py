"""Benchmark entry point: one workload, one fresh single-threaded process.

    python3 perfbench/run.py --workload paper-fig12 --seed 1 --seconds 5 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched;
``--trace 1`` wraps the layers' public functions and reports the
per-layer metrics and the waterfall instead.  The last line of standard
output is the result object; the lines before it record the host, the
code and the workload's named detail metrics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere: one thread, so set-up and peak RSS
# are those of a single-threaded process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
# The checkout must stay as the driver made it: no bytecode caches in src/.
sys.dont_write_bytecode = True

#: Declares the workloads and the metrics every run must report.
SPEC = HERE.parent / "BENCHMARK.json"

WORKLOADS = ("paper-fig12", "service-stream", "service-crash")


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny: the self-test's sizes (TINY preset, ~1k service events)",
    )
    return parser.parse_args(argv)


def _emit(obj: object) -> None:
    print(json.dumps(obj, sort_keys=True), flush=True)


def _declared(trace: int) -> Dict[str, str]:
    """Metric name -> unit that a run with ``--trace trace`` must report."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import common

    if args.workload == "paper-fig12":
        import paper as module
    elif args.workload == "service-stream":
        import stream as module
    else:
        import crash as module

    started = time.perf_counter()
    try:
        out = module.run(args.seed, args.seconds, bool(args.trace), args.size)
    except Exception:
        traceback.print_exc()
        print(f"perfbench: workload {args.workload} raised", file=sys.stderr)
        return 2
    wanted = _declared(args.trace)
    wrong = sorted(n for n, (_, unit) in out.metrics.items() if wanted.get(n) != unit)
    if wrong:
        print(f"perfbench: metrics not declared with these units: {wrong}", file=sys.stderr)
        return 2
    # A layer the workload never enters reads 0.
    metrics = {
        name: {"value": float(out.metrics.get(name, (0.0, unit))[0]), "unit": unit}
        for name, unit in wanted.items()
    }
    _emit(
        {
            "provenance": common.provenance(
                workload=args.workload,
                seed=args.seed,
                seconds=args.seconds,
                trace=args.trace,
                size=args.size,
                run_s=time.perf_counter() - started,
            )
        }
    )
    _emit({"detail": {k: {"value": v, "unit": u} for k, (v, u) in out.detail.items()}})
    if out.waterfall:
        _print_waterfall(out.waterfall)
    for problem in out.problems:
        print(f"perfbench: {args.workload}: check failed: {problem}", file=sys.stderr)
    _emit(
        {
            "correct": not out.problems,
            "attempted": int(out.attempted),
            "failed": int(out.failed),
            "metrics": metrics,
        }
    )
    return 0 if not out.problems else 1


def _print_waterfall(rows: List[Dict[str, object]]) -> None:
    print("layer                                   calls      total_s       self_s")
    for row in rows:
        print(
            f"{row['layer']:<36} {row['calls']:>9} {row['total_s']:>12.4f} "
            f"{row['self_s']:>12.4f}"
        )


if __name__ == "__main__":
    sys.exit(main())
