"""Kill-and-restore parity, WAL replay, checkpoints, degraded mode."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Any, List, Tuple

import pytest

from repro import obs, perf
from repro.core.online import OnlineLearner
from repro.faults import (
    ControllerCrash,
    EventDuplicate,
    EventLoss,
    FaultPlan,
    ProducerStall,
)
from repro.obs import metrics as obs_metrics
from repro.obs.journal import (
    JournalWriter,
    read_journal,
    streamed_journal,
    strip_wall,
)
from repro.obs.tracer import get_tracer
from repro.service.admission import STALE_NOTE
from repro.service.checkpoint import (
    CHECKPOINT_VERSION,
    SNAPSHOT_PREFIX,
    capture_checkpoint,
    latest_snapshot_seq,
    restore_checkpoint,
    snapshot_seqs,
)
from repro.service.fastpath import FastAssociator
from repro.wlan.entities import APRuntime
from repro.service.loop import ControllerService
from repro.service.soak import run_soak
from repro.service.supervisor import (
    Supervisor,
    read_wal,
    run_fingerprint,
    run_supervised,
    wal_line,
)
from repro.service.workload import (
    WorkloadSpec,
    make_service,
    run_journaled_service,
    synthetic_events,
)
from tests.social_oracle import per_pair_departure

_SPEC = WorkloadSpec(users=24, aps=6, events=300, seed=13)


def _horizon() -> float:
    return synthetic_events(_SPEC)[-1].time


def _crashes_at(*fractions: float) -> Tuple[ControllerCrash, ...]:
    span = _horizon()
    return tuple(
        ControllerCrash(time=round(span * f, 3), controller_id="svc")
        for f in fractions
    )


def _supervised_pair(
    tmp_path: Path, plan: FaultPlan, baseline_plan: FaultPlan, **kwargs: object
) -> Tuple[str, str]:
    """Post-strip journal texts for a crashed run and its baseline."""
    crashed = tmp_path / "crashed.jsonl"
    baseline = tmp_path / "baseline.jsonl"
    run_supervised(
        _SPEC, plan, tmp_path / "crashed", journal=crashed, **kwargs
    )
    run_supervised(
        _SPEC,
        baseline_plan,
        tmp_path / "baseline",
        journal=baseline,
        **kwargs,
    )
    return (
        strip_wall(crashed.read_text(encoding="utf-8")),
        strip_wall(baseline.read_text(encoding="utf-8")),
    )


# ----------------------------------------------------------------- #
# Kill-and-restore parity (registered in devtools.parity_registry)  #
# ----------------------------------------------------------------- #


def test_kill_and_restore_byte_identical(tmp_path: Path) -> None:
    plan = FaultPlan(_crashes_at(0.4))
    crashed, baseline = _supervised_pair(
        tmp_path, plan, FaultPlan(), snapshot_every=40
    )
    assert crashed == baseline


def test_multi_crash_with_stall_and_duplicate_byte_identical(
    tmp_path: Path,
) -> None:
    span = _horizon()
    extras = (
        ProducerStall(time=round(span * 0.2, 3), duration=10.0),
        EventDuplicate(time=round(span * 0.4, 3), seq=120),
    )
    plan = FaultPlan(_crashes_at(0.35, 0.7, 0.95) + extras)
    crashed, baseline = _supervised_pair(
        tmp_path,
        plan,
        FaultPlan(extras),
        gap_horizon=5.0,
        snapshot_every=40,
    )
    assert crashed == baseline


def test_metrics_on_same_plan_runs_byte_identical(tmp_path: Path) -> None:
    # Recovery metrics differ between crashed and crash-free runs by
    # design; determinism with metrics ON is proven run-vs-rerun of the
    # *same* plan instead.
    plan = FaultPlan(_crashes_at(0.3, 0.8))
    texts = []
    for name in ("one", "two"):
        journal = tmp_path / f"{name}.jsonl"
        run_supervised(
            _SPEC,
            plan,
            tmp_path / name,
            journal=journal,
            metrics=True,
            snapshot_every=40,
        )
        texts.append(journal.read_text(encoding="utf-8"))
    assert strip_wall(texts[0]) == strip_wall(texts[1])
    obs_metrics.disable()


def test_supervised_empty_plan_matches_plain_service_run(
    tmp_path: Path,
) -> None:
    supervised = tmp_path / "supervised.jsonl"
    plain = tmp_path / "plain.jsonl"
    summary = run_supervised(
        _SPEC, FaultPlan(), tmp_path / "work", journal=supervised
    )
    run_journaled_service(_SPEC, journal=plain)
    assert strip_wall(supervised.read_text(encoding="utf-8")) == strip_wall(
        plain.read_text(encoding="utf-8")
    )
    assert summary["recoveries"] == 0 and summary["snapshots"] >= 1


_SMALL = WorkloadSpec(users=12, aps=4, events=120, seed=13)


def _stripped_run(spec: WorkloadSpec, plan: FaultPlan, workdir: Path) -> str:
    journal = workdir / "journal.jsonl"
    run_supervised(spec, plan, workdir, journal=journal, snapshot_every=16)
    return strip_wall(journal.read_text(encoding="utf-8"))


def test_crash_at_every_event_time_byte_identical(tmp_path: Path) -> None:
    # Exhaustive on a small stream: one crash planted at each distinct
    # event time (so before each delivery, including the first and just
    # after a cadence snapshot) must leave no deterministic trace.
    baseline = _stripped_run(_SMALL, FaultPlan(), tmp_path / "baseline")
    times = sorted({event.time for event in synthetic_events(_SMALL)})
    assert len(times) == _SMALL.events
    for index, time in enumerate(times):
        plan = FaultPlan((ControllerCrash(time=time, controller_id="svc"),))
        crashed = _stripped_run(_SMALL, plan, tmp_path / f"crash-{index}")
        assert crashed == baseline, f"journal diverged for a crash at {time}"


def test_torn_journal_tail_is_truncated_on_restore(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    # Bytes past the last snapshot's offset stand in for the unflushed or
    # torn tail a real kill leaves; the restore must cut them off.
    journal = tmp_path / "crashed.jsonl"
    tails: List[int] = []
    recover = Supervisor._crash_and_recover

    def torn_then_recover(self: Supervisor, crash: ControllerCrash) -> None:
        sink = get_tracer().sink
        assert isinstance(sink, JournalWriter)
        sink.flush()
        with journal.open("ab") as handle:
            handle.write(b'\x00{"type":"decision","data":{"us')
        tails.append(journal.stat().st_size)
        recover(self, crash)

    monkeypatch.setattr(Supervisor, "_crash_and_recover", torn_then_recover)
    summary = run_supervised(
        _SPEC, FaultPlan(_crashes_at(0.3, 0.75)), tmp_path / "crashed",
        journal=journal, snapshot_every=40,
    )
    monkeypatch.undo()
    assert summary["recoveries"] == len(tails) == 2
    text = journal.read_text(encoding="utf-8")
    assert "\x00" not in text
    read_journal(journal)  # every line parses
    baseline = tmp_path / "baseline.jsonl"
    run_supervised(
        _SPEC, FaultPlan(), tmp_path / "baseline", journal=baseline,
        snapshot_every=40,
    )
    assert strip_wall(text) == strip_wall(baseline.read_text(encoding="utf-8"))


def test_streamed_run_keeps_no_records_in_memory(tmp_path: Path) -> None:
    summary = run_supervised(
        _SPEC, FaultPlan(_crashes_at(0.5)), tmp_path / "work",
        journal=tmp_path / "j.jsonl", snapshot_every=40,
    )
    tracer = get_tracer()
    assert summary["decisions"] > 0 and tracer.records == []
    assert tracer.sink is None and not tracer.enabled
    assert len(read_journal(tmp_path / "j.jsonl").decisions) > 0


def test_failed_run_detaches_and_closes_its_journal(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    submit = ControllerService.submit
    writers: List[Any] = []
    closed_wal: List[bool] = []
    close = Supervisor.close

    def failing_submit(self: ControllerService, event: Any) -> None:
        if event.seq == 150:
            writers.append(get_tracer().sink)
            raise RuntimeError("controller bug")
        submit(self, event)

    def recording_close(self: Supervisor) -> None:
        close(self)
        closed_wal.append(self._wal is None)

    monkeypatch.setattr(ControllerService, "submit", failing_submit)
    monkeypatch.setattr(Supervisor, "close", recording_close)
    dead = tmp_path / "dead.jsonl"
    with pytest.raises(RuntimeError, match="controller bug"):
        run_supervised(
            _SPEC, FaultPlan(), tmp_path / "dead", journal=dead,
            snapshot_every=40,
        )
    monkeypatch.undo()
    (writer,) = writers
    assert isinstance(writer, JournalWriter) and writer._handle.closed
    assert closed_wal == [True]
    tracer = get_tracer()
    assert tracer.sink is None and not tracer.enabled
    # The dead run's journal stops where it died: no footer, and a later
    # run writes its own journal, never into this one.
    size = dead.stat().st_size
    assert read_journal(dead).perf is None
    run_supervised(
        _SPEC, FaultPlan(), tmp_path / "next", journal=tmp_path / "next.jsonl",
        snapshot_every=40,
    )
    assert dead.stat().st_size == size
    assert read_journal(tmp_path / "next.jsonl").perf is not None


# ----------------------------------------------------------------- #
# Recovery trail                                                    #
# ----------------------------------------------------------------- #


def test_recovery_records_journaled_and_stripped(tmp_path: Path) -> None:
    plan = FaultPlan(_crashes_at(0.25, 0.6, 0.9))
    journal_path = tmp_path / "crashed.jsonl"
    summary = run_supervised(
        _SPEC, plan, tmp_path / "work", journal=journal_path, snapshot_every=40
    )
    assert summary["recoveries"] == 3
    journal = read_journal(journal_path)
    assert len(journal.recoveries) == 3
    times = [r.sim_time for r in journal.recoveries]
    assert times == sorted(times)
    for record in journal.recoveries:
        assert record.downtime >= 0.0
        assert record.replayed_events >= 0
        assert record.rederived_decisions >= 0
        assert record.snapshot_seq >= 0
    assert summary["replayed_events"] == sum(
        r.replayed_events for r in journal.recoveries
    )
    # The whole recovery payload lives under "wall": stripping the
    # journal removes every trace of the crashes.
    stripped = strip_wall(journal_path.read_text(encoding="utf-8"))
    assert '"recovery"' not in stripped
    assert "downtime" not in stripped


def test_recovery_ledger_survives_restores_past_earlier_crashes(
    tmp_path: Path,
) -> None:
    # Only the genesis snapshot exists, so every restore truncates the
    # journal back past the earlier crashes' recovery records; the
    # ledger must re-journal each of them exactly once per restore.
    journal_path = tmp_path / "ledger.jsonl"
    summary = run_supervised(
        _SPEC, FaultPlan(_crashes_at(0.2, 0.5, 0.8)), tmp_path / "work",
        journal=journal_path, metrics=True, snapshot_every=10_000,
    )
    assert summary["snapshots"] == 1
    journal = read_journal(journal_path)
    assert [r.sim_time for r in journal.recoveries] == [
        c.time for c in _crashes_at(0.2, 0.5, 0.8)
    ]
    assert [r.snapshot_seq for r in journal.recoveries] == [0, 0, 0]
    snapshot = {s.name: s for s in obs_metrics.REGISTRY.snapshot().series}
    assert sum(snapshot["service.recoveries"].counter_windows.values()) == 3.0


def test_recovery_written_at_the_snapshot_offset_is_rejournaled(
    tmp_path: Path,
) -> None:
    # A crash just after the 16th delivery's snapshot replays nothing, so
    # its recovery record lands exactly at the snapshot's offset; the
    # next crash restores that same snapshot and must re-journal it.
    times = [event.time for event in synthetic_events(_SMALL)]
    crashes = tuple(
        ControllerCrash(time=times[i], controller_id="svc") for i in (16, 20)
    )
    journal_path = tmp_path / "boundary.jsonl"
    summary = run_supervised(
        _SMALL, FaultPlan(crashes), tmp_path / "work",
        journal=journal_path, snapshot_every=16,
    )
    journal = read_journal(journal_path)
    assert [r.replayed_events for r in journal.recoveries] == [0, 4]
    assert [r.snapshot_seq for r in journal.recoveries] == [16, 16]
    assert [r.sim_time for r in journal.recoveries] == [c.time for c in crashes]
    assert summary["recoveries"] == 2


def test_stale_degraded_mode_after_lossy_recovery(tmp_path: Path) -> None:
    span = _horizon()
    plan = FaultPlan(
        (
            EventLoss(time=round(span * 0.1, 3), seq=25),
            ControllerCrash(time=round(span * 0.5, 3), controller_id="svc"),
        )
    )
    journal_path = tmp_path / "lossy.jsonl"
    summary = run_supervised(
        _SPEC,
        plan,
        tmp_path / "work",
        journal=journal_path,
        gap_horizon=5.0,
        snapshot_every=40,
    )
    assert summary["gap_skips"] == 1
    assert summary["stale_decisions"] >= 1
    journal = read_journal(journal_path)
    skips = [f for f in journal.faults if f.kind == "gap-skip"]
    assert [f.target for f in skips] == ["seq:25-25"]
    stale = [d for d in journal.decisions if d.note == STALE_NOTE]
    assert len(stale) == summary["stale_decisions"]
    assert all(d.strategy == "llf" for d in stale)


def test_lossy_plan_requires_gap_horizon(tmp_path: Path) -> None:
    plan = FaultPlan((EventLoss(time=1.0, seq=3),) + _crashes_at(0.5))
    with pytest.raises(ValueError, match="gap_horizon"):
        run_supervised(_SPEC, plan, tmp_path)


# ----------------------------------------------------------------- #
# Checkpoint capture/restore                                        #
# ----------------------------------------------------------------- #


def _run_prefix(n: int) -> Tuple[object, str]:
    service = make_service(_SPEC, gap_horizon=5.0)
    for event in synthetic_events(_SPEC)[:n]:
        service.submit(event)
    return service, run_fingerprint(_SPEC, FaultPlan())


def _rebuilt(associator: FastAssociator) -> FastAssociator:
    """A fresh associator replaying ``associator``'s joins, AP by AP."""
    fresh = FastAssociator(
        associator.social,
        associator.demand,
        [
            APRuntime(ap.ap_id, ap.bandwidth)
            for ap in map(associator.ap, associator.ap_ids)
        ],
    )
    for ap_id in associator.ap_ids:
        for user in associator.ap(ap_id).users:
            fresh.apply_join(user, ap_id)
    return fresh


def test_checkpoint_roundtrip_restores_world() -> None:
    service, fingerprint = _run_prefix(80)
    checkpoint = capture_checkpoint(service, fingerprint)
    assert checkpoint.slot == f"{SNAPSHOT_PREFIX}80"
    assert checkpoint.next_seq == 80
    captured = service.events_processed
    # The live service keeps going; the checkpoint must stay frozen.
    for event in synthetic_events(_SPEC)[80:120]:
        service.submit(event)
    restored = restore_checkpoint(checkpoint, fingerprint)
    assert restored.events_processed == captured
    assert restored.events_processed < service.events_processed
    # Restores are independent copies: driving one leaves the other be.
    again = restore_checkpoint(checkpoint, fingerprint)
    assert again is not restored and again.associator is not restored.associator
    # The social model stays one shared object across the object graph.
    assert restored.learner is not None
    assert restored.learner.social is restored.associator.social
    # The pickled cost index scores every user as an associator
    # rebuilt from the same joins does.
    rebuilt = _rebuilt(restored.associator)
    for user in sorted({event.user_id for event in synthetic_events(_SPEC)}):
        assert [c.score for c in restored.associator.candidates(user)] == [
            c.score for c in rebuilt.candidates(user)
        ]
    # Replaying the missing suffix converges to the live state.
    for event in synthetic_events(_SPEC)[80:120]:
        restored.submit(event)
    assert restored.events_processed == service.events_processed
    assert restored.associator.loads() == service.associator.loads()
    assert again.events_processed == captured


def _snapshot_pickles(spec: WorkloadSpec, every: int) -> List[bytes]:
    """The service pickle a checkpoint would hold, every ``every`` events."""
    service = make_service(spec)
    pickles: List[bytes] = []
    for index, event in enumerate(synthetic_events(spec), start=1):
        service.submit(event)
        if index % every == 0:
            pickles.append(capture_checkpoint(service, "fp").service_pickle)
    return pickles


def test_folded_learner_snapshots_match_per_pair_oracle(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # Pending joins carry their host enqueue time whenever a latency
    # reader exists, so raw snapshot bytes are a function of the stream
    # only with that clock pinned.
    monkeypatch.setattr(perf, "wall_seconds", lambda: 0.0)
    spec = WorkloadSpec(users=64, aps=8, events=4000, seed=5)
    folded = _snapshot_pickles(spec, 100)
    with monkeypatch.context() as patch:
        patch.setattr(OnlineLearner, "on_departure", per_pair_departure)
        oracle = _snapshot_pickles(spec, 100)
    assert len(folded) == len(oracle) == 40
    for index, (got, want) in enumerate(zip(folded, oracle), start=1):
        assert got == want, f"snapshot after {100 * index} events differs"


def test_checkpoint_guards_version_and_fingerprint() -> None:
    service, fingerprint = _run_prefix(10)
    checkpoint = capture_checkpoint(service, fingerprint)
    with pytest.raises(RuntimeError, match="refusing to restore"):
        restore_checkpoint(checkpoint, fingerprint + ":other")
    # Version 1 checkpoints deep-copied the service and the tracer's
    # records, version 2 associators lack the cost caches and join
    # stamps, version 3 ones hold them instead of the core cost index,
    # version 4 ones have no WAL offset and pickle the social model's
    # pairs one object at a time, version 5 ones keep the associator's
    # own AP table instead of a controller domain, version 6 ones carry
    # the social model's per-user generation stamps, version 7 services
    # have no event-time bound; their pickles must be refused, never
    # mis-restored.
    assert CHECKPOINT_VERSION == 8
    for version in (1, 2, 3, 4, 5, 6, 7, CHECKPOINT_VERSION + 1):
        stale = replace(checkpoint, version=version)
        with pytest.raises(RuntimeError, match="version"):
            restore_checkpoint(stale, fingerprint)


def test_checkpoint_holds_state_not_history(tmp_path: Path) -> None:
    # An enabled tracer with its records in memory cannot be captured.
    obs.enable(reset=True)
    service, fingerprint = _run_prefix(10)
    with pytest.raises(RuntimeError, match="journal sink"):
        capture_checkpoint(service, fingerprint)
    # Streaming, the tracer's part is a byte offset into the journal.
    with streamed_journal(tmp_path / "j.jsonl") as writer:
        checkpoint = capture_checkpoint(service, fingerprint)
        assert checkpoint.tracer.offset == writer.tell() > 0
    assert isinstance(checkpoint.service_pickle, bytes)
    assert not hasattr(checkpoint.tracer, "records")


def test_corrupt_snapshot_quarantined_with_fallback(tmp_path: Path) -> None:
    supervisor = Supervisor(
        _SPEC, FaultPlan(), tmp_path, gap_horizon=5.0, snapshot_every=30
    )
    for event in synthetic_events(_SPEC)[:70]:
        supervisor._produce(event)
    seqs = snapshot_seqs(supervisor.store)
    assert len(seqs) >= 2 and latest_snapshot_seq(supervisor.store) == seqs[-1]
    # Tear the newest snapshot, as a crash mid-write would.
    pattern = f"task-snapshot-{seqs[-1]}-*.pkl"
    (newest,) = supervisor.store.path.glob(pattern)
    newest.write_bytes(b"not a pickle")
    checkpoint = supervisor._load_latest_checkpoint()
    assert checkpoint.next_seq == seqs[-2]  # fell back one snapshot
    quarantined = list(supervisor.store.path.glob("*.corrupt"))
    assert len(quarantined) == 1
    supervisor.close()


# ----------------------------------------------------------------- #
# WAL                                                               #
# ----------------------------------------------------------------- #


def test_wal_round_trip_and_torn_tail(tmp_path: Path) -> None:
    events = synthetic_events(WorkloadSpec(users=8, aps=3, events=40, seed=5))
    wal = tmp_path / "wal.jsonl"
    wal.write_text(
        "".join(wal_line(e) + "\n" for e in events), encoding="utf-8"
    )
    assert read_wal(wal) == events
    # A kill mid-append leaves a torn final line; the parsed prefix is
    # exactly what was durably written.
    text = wal.read_text(encoding="utf-8")
    wal.write_text(text + wal_line(events[0])[: 10], encoding="utf-8")
    assert read_wal(wal) == events
    assert read_wal(tmp_path / "missing.jsonl") == []


def test_wal_replay_is_exactly_once(tmp_path: Path) -> None:
    plan = FaultPlan(_crashes_at(0.5))
    summary = run_supervised(
        _SPEC, plan, tmp_path / "work", snapshot_every=40
    )
    # Replay re-submits every WAL suffix event; re-deliveries of seqs the
    # snapshot already consumed are dropped, never double-processed.
    assert summary["events"] == _SPEC.events
    assert summary["replayed_events"] > 0
    wal = read_wal(tmp_path / "work" / "wal.jsonl")
    assert [e.seq for e in wal] == list(range(_SPEC.events))


# ----------------------------------------------------------------- #
# Soak                                                              #
# ----------------------------------------------------------------- #


def test_soak_report_deterministic(tmp_path: Path) -> None:
    spec = WorkloadSpec(users=16, aps=4, events=150, seed=11)
    reports = [
        run_soak(spec, tmp_path / name, crashes=2, snapshot_every=30)
        for name in ("a", "b")
    ]
    assert reports[0] == reports[1]
    report = reports[0]
    assert report["byte_identical"] is True
    assert report["recoveries"] == 2
    assert report["divergence"] == 0.0


def test_soak_quantifies_lossy_divergence(tmp_path: Path) -> None:
    spec = WorkloadSpec(users=16, aps=4, events=150, seed=11)
    report = run_soak(
        spec,
        tmp_path,
        crashes=2,
        losses=2,
        fault_seed=7,
        gap_horizon=5.0,
        snapshot_every=30,
    )
    assert report["gap_skips"] >= 1
    assert report["recoveries"] == 2
    # Losses surface in the report even when decisions happen to agree.
    assert report["plan_events"] == 4
    with pytest.raises(ValueError, match="at least one crash"):
        run_soak(spec, tmp_path / "x", crashes=0)


def test_supervisor_counts_land_in_metrics(tmp_path: Path) -> None:
    plan = FaultPlan(_crashes_at(0.5))
    journal_path = tmp_path / "m.jsonl"
    summary = run_supervised(
        _SPEC,
        plan,
        tmp_path / "work",
        journal=journal_path,
        metrics=True,
        snapshot_every=40,
    )
    snapshot = {s.name: s for s in obs_metrics.REGISTRY.snapshot().series}
    obs_metrics.disable()
    recoveries = sum(snapshot["service.recoveries"].counter_windows.values())
    replayed = sum(
        snapshot["service.replayed_events"].counter_windows.values()
    )
    assert recoveries == float(summary["recoveries"]) == 1.0
    assert replayed == float(summary["replayed_events"]) > 0.0
