"""Sharded multiprocess execution for replays and experiment sweeps.

The replay engine buffers arrivals, fires departures and samples load
strictly per controller domain, so a campus replay decomposes into one
independent shard per controller; ablation and figure sweeps decompose
into independent tasks per parameter point.  This package executes
either decomposition across a :mod:`concurrent.futures` process pool
while preserving **byte-identical** results:

* :func:`plan_replay_shards` partitions a demand stream by controller
  and pins the global sampler/poller grid (:class:`ReplayWindow`);
* :func:`replay` dispatches ``engine="serial"|"process"|"auto"`` between
  the single-process :class:`~repro.wlan.replay.ReplayEngine` and the
  sharded pool, merging per-shard results, obs-journal fragments and
  perf snapshots deterministically (see :mod:`repro.runtime.merge`);
* :func:`run_sweep` executes a :class:`SweepPlan` task graph with the
  same engine contract;
* :class:`RunDirectory` checkpoints completed shards/tasks so an
  interrupted run resumes with only the unfinished pieces;
* :mod:`repro.runtime.shm` moves a replay's demand rows through
  ``multiprocessing.shared_memory`` — published once per run by a
  :class:`SegmentSet`, sliced by row range in the workers — so nothing
  heavier than an :class:`ShmHandle` crosses the pool boundary.

Determinism rests on two invariants: named RNG streams are derived by
content (``RandomStreams.child`` is stable across processes), and every
shard of one run samples on the same :class:`ReplayWindow` grid.  See
``docs/runtime.md`` for the full contract.
"""

from repro.runtime.checkpoint import RunDirectory
from repro.runtime.engine import replay, replay_process, replay_serial
from repro.runtime.options import RuntimeOptions
from repro.runtime.resilience import TaskFailure, shutdown_pools
from repro.runtime.shards import ReplayShard, ShardPlan, plan_replay_shards
from repro.runtime.shm import (
    SegmentSet,
    ShmHandle,
    ShmSlice,
    attach_demands,
    reap_orphans,
)
from repro.runtime.sweep import (
    SweepPlan,
    SweepTask,
    run_sweep,
    run_sweep_process,
    run_sweep_serial,
)
from repro.wlan.replay import ReplayWindow

__all__ = [
    "ReplayShard",
    "ReplayWindow",
    "RunDirectory",
    "RuntimeOptions",
    "SegmentSet",
    "ShardPlan",
    "ShmHandle",
    "ShmSlice",
    "SweepPlan",
    "SweepTask",
    "TaskFailure",
    "attach_demands",
    "plan_replay_shards",
    "reap_orphans",
    "replay",
    "replay_process",
    "replay_serial",
    "run_sweep",
    "run_sweep_process",
    "run_sweep_serial",
    "shutdown_pools",
]
