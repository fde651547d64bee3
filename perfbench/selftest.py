"""Self-test of the benchmark harness at tiny sizes (well under a minute).

    python3 perfbench/selftest.py

Runs every workload untraced and traced at ``--size tiny`` (the TINY
preset, ~1k service events, 2 crashes) and checks that:

* each run exits 0 and its last line is a correct result whose metric
  names and units are exactly those ``BENCHMARK.json`` declares;
* nothing under ``src/`` or ``benchmarks/out/`` was created or changed,
  and every WAL, snapshot and journal went to a scratch directory that
  is gone afterwards;
* without the program source next to it (a directory holding only
  ``BENCHMARK.json`` and ``perfbench/``) the benchmark exits non-zero
  and prints no result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"
WORKLOADS = ("paper-fig12", "service-stream", "service-crash")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
TIMEOUT_S = 120


def _tree(path: Path) -> Dict[str, Tuple[int, int]]:
    if not path.exists():
        return {}
    return {
        str(p.relative_to(path)): (p.stat().st_size, p.stat().st_mtime_ns)
        for p in path.rglob("*")
    }


def _declared() -> Dict[str, Dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _run(cwd: Path, workload: str, trace: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "3", "--seconds", "0.5", "--trace", trace, "--size", "tiny",
        ],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )


def _check_result(label: str, done: subprocess.CompletedProcess, units: Dict[str, str]) -> List[str]:
    if done.returncode != 0:
        return [f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}"]
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"{label}: last line is not a JSON result"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != units:
        problems.append(
            f"{label}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(got))}, extra {sorted(set(got) - set(units))}, "
            f"units {sorted(n for n in got if n in units and got[n] != units[n])}"
        )
    for name, m in metrics.items():
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{label}: {name} = {m.get('value')!r}")
    return problems


def _check_bare() -> List[str]:
    """The benchmark alone, without ``src/``, must fail without a result."""
    SCRATCH.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=SCRATCH))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(bare, WORKLOADS[0], "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 or (lines and '"correct"' in lines[-1]):
        return [f"bare checkout: exit {done.returncode}, last line {lines[-1:]}"]
    return []


def main() -> int:
    declared = _declared()
    watched = {p: _tree(ROOT / p) for p in ("src", "benchmarks/out")}
    problems: List[str] = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            label = f"{workload} --trace {trace}"
            problems += _check_result(label, _run(ROOT, workload, trace), declared[trace])
            print(f"selftest: ran {label}", flush=True)
    for path, before in watched.items():
        if _tree(ROOT / path) != before:
            problems.append(f"the benchmark wrote under {path}/")
    if SCRATCH.exists():
        problems.append(f"scratch directory {SCRATCH.name}/ left behind")
    problems += _check_bare()
    for problem in problems:
        print(f"selftest: FAIL {problem}", file=sys.stderr)
    print(f"selftest: {'FAIL' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
