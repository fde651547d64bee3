"""``service-crash``: the supervised service, writing while it decides.

``run_supervised`` drives 10k events of 64 users over 8 APs with the
journal and metrics on (the soak configuration).  Every delivery is
appended to a write-ahead log, every 100 deliveries the whole service is
snapshotted, and a loss-free ``generate_service_plan`` kills the
controller 12 times; each kill restores the newest snapshot and replays
the WAL past it.  Decisions take the same loop and fast path as
``service-stream``; what this workload adds is the write side: WAL
appends, snapshot capture and store, restore and replay, journal write.

Snapshot and recovery counts come from the wrappers and from the run's
summary, never from ``repro.perf``: a restore rolls the perf registry
back to the snapshot, so its counters undercount.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import (
    Outcome,
    Timing,
    measure,
    measure_setups,
    median,
    peak_rss_mb,
    reconcile,
    scratch_dir,
    timed,
)
from layers import LayerTracer, percentile
from stream import make_stamps, wrap_service

SIZES = {"full": (64, 8, 10_000, 12), "tiny": (32, 8, 1_000, 2)}
SNAPSHOT_EVERY = 100
#: Supervised runs per measurement, at the least (each in a fresh
#: directory); ``ops_per_s`` is the median of their rates.
PASSES = 3


def _setup(size: str, seed: int) -> Tuple[Any, List[Any], Any, Any]:
    """Spec, stream, crash plan and the crash-free reference service."""
    from repro.faults import ServiceChaosConfig, generate_service_plan
    from repro.service import WorkloadSpec, make_service, synthetic_events
    from repro.sim.rng import RandomStreams

    users, aps, events, crashes = SIZES[size]
    spec = WorkloadSpec(users=users, aps=aps, events=events, seed=seed)
    stream = synthetic_events(spec)
    plan = generate_service_plan(
        spec.events,
        0.0,
        stream[-1].time + 1.0,
        RandomStreams(seed),
        ServiceChaosConfig(controller_crashes=crashes),
    )
    return spec, stream, plan, make_service(spec)


def _reference(service: Any, stream: List[Any]) -> List[Tuple[str, str]]:
    """The crash-free run's ``(user, AP)`` decisions, in commit order."""
    stamps = make_stamps(len(stream))
    service.apps.append(stamps)
    for event in stream:
        service.submit(event)
    service.drain()
    return [(stream[seq].user_id, ap) for seq, ap in stamps.choices()]


def _supervised(
    spec: Any, plan: Any, workdir: Path, timer: Any = measure
) -> Tuple[Timing, Dict[str, Any]]:
    """One timed ``run_supervised``; returns its timing and its files."""
    from repro import obs
    from repro.obs import metrics as obs_metrics
    from repro.service import run_supervised

    journal = workdir / "journal.jsonl"
    try:
        timing = timer(
            run_supervised,
            spec,
            plan,
            workdir / "run",
            journal=journal,
            metrics=True,
            snapshot_every=SNAPSHOT_EVERY,
        )
    finally:
        obs.disable()
        obs_metrics.disable()
    snapshots = [p.stat().st_size for p in (workdir / "run" / "snapshots").glob("*") if p.is_file()]
    files = {
        "decisions": [(d.user_id, d.chosen) for d in obs.read_journal(journal).decisions],
        "journal_bytes": journal.stat().st_size,
        "wal_bytes": (workdir / "run" / "wal.jsonl").stat().st_size,
        "snapshot_bytes_max": max(snapshots),
    }
    return timing, files


@dataclass
class _Expected:
    """What a correct supervised run reproduces: the crash-free run's
    decisions and final population, with every planned crash recovered."""

    events: int
    crashes: int
    decisions: List[Tuple[str, str]]
    users_online: int


def _check(out: Outcome, summary: Dict[str, Any], files: Dict[str, Any], want: _Expected) -> None:
    lost = ("gap_skips", "dropped_events", "sheds", "stale_decisions")
    out.attempted += summary["events"]
    out.failed += sum(summary[key] for key in lost)
    for key in lost:
        out.check(summary[key] == 0, f"{summary[key]} {key}")
    out.check(
        summary["events"] == want.events,
        f"{summary['events']} of {want.events} events processed",
    )
    out.check(
        summary["recoveries"] == want.crashes,
        f"{summary['recoveries']} recoveries for {want.crashes} planned crashes",
    )
    out.check(
        files["decisions"] == want.decisions,
        "supervised decisions differ from the crash-free run's",
    )
    out.check(
        summary["users_online"] == want.users_online,
        f"{summary['users_online']} users online, crash-free run has {want.users_online}",
    )


def _crashes(plan: Any) -> int:
    from repro.faults import ControllerCrash

    return sum(isinstance(e, ControllerCrash) for e in plan.events)


def run(seed: int, seconds: float, trace: bool, size: str) -> Outcome:
    out = Outcome()
    setups = measure_setups(_setup, size, seed)
    spec, stream, plan, service = setups[-1].result
    want = _Expected(
        events=spec.events,
        crashes=_crashes(plan),
        decisions=_reference(service, stream),
        users_online=service.associator.total_users(),
    )
    if trace:
        _traced(spec, plan, out, want)
        return out
    runs: List[Timing] = []
    events = 0
    while len(runs) < PASSES or sum(r.wall for r in runs) < seconds:
        with scratch_dir() as workdir:
            timing, files = _supervised(spec, plan, workdir)
        runs.append(timing)
        summary = timing.result
        events += summary["events"]
        _check(out, summary, files, want)
    wall = sum(r.wall for r in runs)
    out.metrics.update(
        setup_s=(median([t.ref for t in setups]), "s"),
        peak_rss_mb=(peak_rss_mb(), "MB"),
        ops_per_s=(median([r.result["events"] / r.ref for r in runs]), "1/s"),
    )
    out.detail.update(
        supervised_events_per_s=(events / wall, "1/s"),
        supervised_s=(wall / len(runs), "s"),
        setup_wall_s=(median([t.wall for t in setups]), "s"),
        host_probe_s=(median([t.probe for t in setups + runs]), "s"),
        recoveries=(summary["recoveries"], "count"),
        snapshots=(summary["snapshots"], "count"),
        replayed_events=(summary["replayed_events"], "count"),
        decisions=(summary["decisions"], "count"),
        wal_bytes=(files["wal_bytes"], "bytes"),
        journal_bytes=(files["journal_bytes"], "bytes"),
        snapshot_bytes_max=(files["snapshot_bytes_max"], "bytes"),
        passes=(len(runs), "count"),
        setups=(len(setups), "count"),
    )
    return out


def _wrap_supervisor(tracer: LayerTracer, recovery_ms: List[float]) -> None:
    """Time the supervisor's write side; group recovery work per crash."""
    import repro.service
    from repro import obs
    from repro.runtime.checkpoint import RunDirectory
    from repro.service import supervisor

    # A live delivery carries a new seq; a WAL replay re-delivers one.
    state = {"max_seq": -1, "replaying": False, "pending": 0.0}

    def submit_name(service: Any, event: Any) -> str:
        state["replaying"] = event.seq <= state["max_seq"]
        if state["replaying"]:
            return "service.supervisor.replay_submit"
        state["max_seq"] = event.seq
        return "service.loop.submit"

    def submitted(elapsed: float, *_: Any) -> None:
        if state["replaying"]:
            recovery_ms[-1] += 1e3 * elapsed

    def loaded(elapsed: float, *_: Any) -> None:
        state["pending"] += 1e3 * elapsed

    def restored(elapsed: float, *_: Any) -> None:
        recovery_ms.append(state["pending"] + 1e3 * elapsed)
        state["pending"] = 0.0

    def wal_read(elapsed: float, *_: Any) -> None:
        recovery_ms[-1] += 1e3 * elapsed

    tracer.wrap(repro.service, "run_supervised", "service.supervisor.run")
    wrap_service(tracer, submit_name, submitted)
    tracer.wrap(supervisor, "synthetic_events", "service.workload.generate")
    tracer.wrap(supervisor, "make_service", "service.workload.make_service")
    tracer.wrap(supervisor, "capture_checkpoint", "service.checkpoint.capture", samples=True)
    tracer.wrap(RunDirectory, "store", "service.checkpoint.store")
    tracer.wrap(RunDirectory, "try_load", "service.checkpoint.load", on_exit=loaded)
    tracer.wrap(supervisor, "restore_checkpoint", "service.checkpoint.restore", on_exit=restored)
    tracer.wrap(supervisor, "read_wal", "service.supervisor.read_wal", on_exit=wal_read)
    tracer.wrap(obs, "write_journal", "obs.journal.write")


def _traced(spec: Any, plan: Any, out: Outcome, want: _Expected) -> None:
    with scratch_dir() as workdir:
        untraced, files = _supervised(spec, plan, workdir, timed)
    _check(out, untraced.result, files, want)

    tracer = LayerTracer()
    recovery_ms: List[float] = []
    _wrap_supervisor(tracer, recovery_ms)
    with scratch_dir() as workdir, tracer.installed():
        traced, files = _supervised(spec, plan, workdir, timed)
    wall, summary = traced.wall, traced.result
    untraced_s = untraced.wall
    _check(out, summary, files, want)
    t = tracer
    capture = t.layers["service.checkpoint.capture"]
    out.check(
        capture.calls == summary["snapshots"],
        f"{capture.calls} snapshot captures timed, summary says {summary['snapshots']}",
    )
    out.check(
        t.calls("service.checkpoint.restore") == summary["recoveries"],
        f"{t.calls('service.checkpoint.restore')} restores timed, "
        f"summary says {summary['recoveries']} recoveries",
    )
    out.check(
        t.calls("service.supervisor.replay_submit") == summary["replayed_events"],
        f"{t.calls('service.supervisor.replay_submit')} replayed submits timed, "
        f"summary says {summary['replayed_events']}",
    )
    reconcile(out, [(wall, tracer)])
    submit = t.layers["service.loop.submit"]
    out.metrics.update(
        {
            "bench.trace_overhead_s": (wall - untraced_s, "s"),
            "service.workload.generate_s": (t.total("service.workload.generate"), "s"),
            "service.loop.submit_s": (submit.total, "s"),
            "service.loop.submit_p99_us": (1e6 * percentile(submit.samples or [], 0.99), "us"),
            "service.admission.flush_self_s": (t.self_time("service.admission.flush"), "s"),
            "service.fastpath.select_s": (t.total("service.fastpath.select"), "s"),
            "service.fastpath.select_calls": (t.calls("service.fastpath.select"), "count"),
            "service.fastpath.apply_s": (t.total("service.fastpath.apply"), "s"),
            "core.online.learn_s": (t.total("core.online.learn"), "s"),
            "service.apps.monitor_s": (t.total("service.apps.monitor"), "s"),
            "service.checkpoint.capture_s": (capture.total, "s"),
            "service.checkpoint.capture_p99_ms": (1e3 * percentile(capture.samples or [], 0.99), "ms"),
            "service.checkpoint.snapshots": (capture.calls, "count"),
            "service.checkpoint.store_s": (t.total("service.checkpoint.store"), "s"),
            "service.checkpoint.snapshot_bytes_max": (files["snapshot_bytes_max"], "bytes"),
            "service.checkpoint.restore_s": (t.total("service.checkpoint.restore"), "s"),
            "service.recovery_ms_p50": (median(recovery_ms) if recovery_ms else 0.0, "ms"),
            "service.supervisor.replayed_events": (t.calls("service.supervisor.replay_submit"), "count"),
            "service.supervisor.recoveries": (t.calls("service.checkpoint.restore"), "count"),
            "service.supervisor.wal_bytes": (files["wal_bytes"], "bytes"),
            "service.supervisor.self_s": (t.self_time("service.supervisor.run"), "s"),
            "obs.journal.write_s": (t.total("obs.journal.write"), "s"),
            "obs.journal.bytes": (files["journal_bytes"], "bytes"),
        }
    )
    out.detail.update(
        untraced_supervised_s=(untraced_s, "s"),
        traced_supervised_s=(wall, "s"),
        recovery_ms=(sum(recovery_ms), "ms"),
    )
