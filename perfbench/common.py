"""Shared plumbing of the benchmark workloads: results, scratch space, host facts."""

from __future__ import annotations

import gc
import hashlib
import itertools
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

from layers import LayerTracer

#: The checkout the benchmark runs from (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent

#: Every WAL, snapshot and journal a run writes lives under here, inside
#: a per-run directory that is removed before the run exits.
SCRATCH = ROOT / ".perfbench_tmp"

#: Set-ups per run unless a workload says otherwise; ``setup_s`` is
#: their median.
SETUP_REPS = 3


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: name -> (value, unit): the end-to-end metrics, or the per-layer
    #: ones in a traced run.
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Metrics named as in the benchmark notes, printed but not gated.
    detail: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Failed output checks, one line each.
    problems: List[str] = field(default_factory=list)
    #: Waterfall rows of the traced run.
    waterfall: List[Dict[str, Any]] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    from repro import perf

    return perf.peak_rss_bytes() / 1e6


#: Wall seconds one :func:`_probe_unit` takes on the reference host (a
#: 2-core x86-64 VM running CPython 3.11).  Sets the unit of the scaled
#: times; any constant would do.
PROBE_REF_S = 0.0035
#: Probe units run back to back before and after a measured call.
PROBE_EDGE = 10
#: Seconds between the probe units sampled during a measured call.
PROBE_INTERVAL_S = 0.1


def _probe_unit() -> float:
    """Wall seconds of a fixed loop in the program's own style (tuples,
    lists, float sums and comparisons, as in the S³ and fast-path
    scoring loops) that calls nothing in the program.  The collector is
    off while it runs, so it never collects the program's objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        loads = [0.25 * i for i in range(6)]
        best: Any = None
        for combo in itertools.product(range(6), repeat=4):
            added = [0.0] * 6
            for i, ap in enumerate(combo):
                added[ap] += 0.5 + i
            key = (max(a + b for a, b in zip(loads, added)), combo)
            if best is None or key < best:
                best = key
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


@dataclass
class Timing:
    """One measured call: its wall time and the host speed during it."""

    wall: float
    #: Mean seconds of one probe unit around and during the call.
    probe: float
    result: Any = None
    #: ``(perf_counter at start, seconds)`` of each probe run during the call.
    ticks: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def ref(self) -> float:
        """The wall time scaled to the reference host's speed."""
        return self.wall * PROBE_REF_S / self.probe


def _trimmed_mean(values: List[float]) -> float:
    ordered = sorted(values)
    cut = len(ordered) // 10
    kept = ordered[cut : len(ordered) - cut]
    return sum(kept) / len(kept)


def measure(fn: Any, *args: Any, **kwargs: Any) -> Timing:
    """Time one call and the host's speed while it ran.

    The hosts this runs on share their cores: the same fixed loop can
    run 20% faster or slower from one ten-second stretch to the next.
    So a probe unit runs before and after the call and, from a timer
    signal, every :data:`PROBE_INTERVAL_S` during it; the probe time
    spent inside the call is taken out of its wall time, and the gated
    metrics scale the wall time by the probe's trimmed mean
    (:attr:`Timing.ref`).  The raw wall times are reported beside them.
    """
    samples = [_probe_unit() for _ in range(PROBE_EDGE)]
    ticks: List[Tuple[float, float]] = []

    def tick(signum: int, frame: Any) -> None:
        ticks.append((time.perf_counter(), _probe_unit()))

    previous = signal.signal(signal.SIGALRM, tick)
    try:
        gc.collect()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    inside = [seconds for _, seconds in ticks]
    samples += inside + [_probe_unit() for _ in range(PROBE_EDGE)]
    return Timing(
        wall=wall - sum(inside), probe=_trimmed_mean(samples), result=result, ticks=ticks
    )


def measure_setups(fn: Any, *args: Any, reps: int = SETUP_REPS) -> List[Timing]:
    """``reps`` measured set-ups; only the last keeps its result, so
    earlier inputs are freed before the next set-up builds its own."""
    done: List[Timing] = []
    for _ in range(reps):
        if done:
            done[-1].result = None
        done.append(measure(fn, *args))
    return done


def timed(fn: Any, *args: Any, **kwargs: Any) -> Timing:
    """Time one call, after a full collection, with no probes (traced
    runs report raw wall times; their :attr:`Timing.ref` is the wall)."""
    gc.collect()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return Timing(wall=time.perf_counter() - start, probe=PROBE_REF_S, result=result)


@contextmanager
def scratch_dir() -> Iterator[Path]:
    """A fresh directory under :data:`SCRATCH`, removed on exit."""
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it


#: How far the layer self times may fall short of the traced wall time.
RESIDUAL_LIMIT_PCT = 5.0


def reconcile(out: Outcome, regions: List[Tuple[float, LayerTracer]]) -> None:
    """Fold traced regions into the waterfall and its residual.

    Each region is ``(wall seconds, tracer)``: a stretch of the traced
    run timed from outside, and the layers timed inside it.  The
    residual is the share of that wall time no layer accounts for.
    """
    wall = sum(w for w, _ in regions)
    covered = sum(t.self_sum() for _, t in regions)
    residual = 100.0 * (wall - covered) / wall
    out.metrics["bench.wall_s"] = (wall, "s")
    out.metrics["bench.waterfall.residual_pct"] = (residual, "%")
    for _, tracer in regions:
        out.waterfall.extend(tracer.table())
    out.check(
        abs(residual) <= RESIDUAL_LIMIT_PCT,
        f"layer self times cover {covered:.3f}s of {wall:.3f}s traced wall "
        f"(residual {residual:.2f}% > {RESIDUAL_LIMIT_PCT}%)",
    )


def _source_digest() -> str:
    """SHA-256 over ``src/`` (paths and bytes): the code this run measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(**run: Any) -> Dict[str, Any]:
    """Host and code facts recorded beside every result."""
    import numpy

    affinity = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    )
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": affinity,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "source_digest": _source_digest(),
        "argv": sys.argv[1:],
        **run,
    }
