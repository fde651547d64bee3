"""WAL tail reads: recovery parses only what was delivered after its snapshot.

Every :class:`~repro.service.checkpoint.ServiceCheckpoint` records the
write-ahead log's byte offset at capture, and recovery reads the WAL
from there (``read_wal(path, checkpoint.wal_offset)``) instead of
re-parsing the whole log.  The ``seq >= next_seq`` filter stays, so the
tail replays exactly the events the full read would have replayed —
except re-deliveries of events already parked in the snapshot's reorder
buffer, which the full read re-submitted only for the buffer to drop
them.  These tests pin that equivalence against a full-read recovery,
plus the supervisor freeing each controller it replaces.
"""

from __future__ import annotations

import gc
import weakref
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

from repro.faults import (
    ControllerCrash,
    EventDuplicate,
    EventLoss,
    FaultPlan,
    ProducerStall,
)
from repro.obs.journal import read_journal, strip_wall
from repro.service import supervisor as supervisor_module
from repro.service.checkpoint import (
    SNAPSHOT_PREFIX,
    ServiceCheckpoint,
    snapshot_seqs,
)
from repro.service.supervisor import (
    Supervisor,
    read_wal,
    run_supervised,
    wal_line,
)
from repro.service.workload import WorkloadSpec, synthetic_events

_SPEC = WorkloadSpec(users=24, aps=6, events=300, seed=13)
_EVENTS = synthetic_events(_SPEC)
_SPAN = _EVENTS[-1].time


def _crash(fraction: float) -> ControllerCrash:
    return ControllerCrash(time=round(_SPAN * fraction, 3), controller_id="svc")


#: Loss-free chaos: a stall, two duplicates and three crashes.
_LOSS_FREE = FaultPlan(
    (
        ProducerStall(time=round(_SPAN * 0.2, 3), duration=10.0),
        EventDuplicate(time=_EVENTS[60].time, seq=60),
        EventDuplicate(time=_EVENTS[201].time, seq=201),
        _crash(0.35),
        _crash(0.7),
        _crash(0.95),
    )
)


def _checkpoints(supervisor: Supervisor) -> List[ServiceCheckpoint]:
    found = []
    for seq in snapshot_seqs(supervisor.store):
        hit, value = supervisor.store.try_load(f"{SNAPSHOT_PREFIX}{seq}")
        assert hit and isinstance(value, ServiceCheckpoint)
        found.append(value)
    return found


def test_tail_from_every_snapshot_equals_filtered_full_read(
    tmp_path: Path,
) -> None:
    supervisor = Supervisor(
        _SPEC, _LOSS_FREE, tmp_path, gap_horizon=5.0, snapshot_every=16
    )
    supervisor.run()
    assert supervisor.recoveries == 3
    full = read_wal(supervisor.wal_path)
    checkpoints = _checkpoints(supervisor)
    assert len(checkpoints) > 10
    assert checkpoints[0].next_seq == 0 and checkpoints[0].wal_offset == 0
    for checkpoint in checkpoints:
        tail = read_wal(supervisor.wal_path, checkpoint.wal_offset)
        # The offset is a line boundary: the tail is a suffix of the log.
        assert tail == full[len(full) - len(tail):]
        assert [e for e in tail if e.seq >= checkpoint.next_seq] == [
            e for e in full if e.seq >= checkpoint.next_seq
        ]


def test_torn_tail_past_the_offset_and_offset_at_eof(tmp_path: Path) -> None:
    events = synthetic_events(WorkloadSpec(users=8, aps=3, events=40, seed=5))
    wal = tmp_path / "wal.jsonl"
    lines = [(wal_line(e) + "\n").encode("utf-8") for e in events]
    wal.write_bytes(b"".join(lines))
    offset = sum(len(line) for line in lines[:25])
    assert read_wal(wal, offset) == events[25:]
    end = wal.stat().st_size
    assert read_wal(wal, end) == []
    assert read_wal(wal, end + 100) == []
    # A kill mid-append tears the last line; the parsed tail stops there.
    with wal.open("ab") as handle:
        handle.write(lines[0][:10])
    assert read_wal(wal, offset) == events[25:]
    assert read_wal(wal, end) == []
    assert read_wal(tmp_path / "missing.jsonl", offset) == []


def test_quarantined_snapshot_falls_back_to_older_offset(
    tmp_path: Path,
) -> None:
    supervisor = Supervisor(
        _SPEC, FaultPlan(), tmp_path, gap_horizon=5.0, snapshot_every=30
    )
    for event in _EVENTS[:70]:
        supervisor._produce(event)
    seqs = snapshot_seqs(supervisor.store)
    assert seqs == [30, 60]
    (newest,) = supervisor.store.path.glob(f"task-snapshot-{seqs[-1]}-*.pkl")
    newest.write_bytes(b"not a pickle")
    checkpoint = supervisor._load_latest_checkpoint()
    assert checkpoint.next_seq == 30
    # The older snapshot's own offset: its tail starts at its next seq.
    assert checkpoint.wal_offset == sum(
        len(wal_line(e)) + 1 for e in _EVENTS[:30]
    )
    tail = read_wal(supervisor.wal_path, checkpoint.wal_offset)
    assert [e.seq for e in tail] == list(range(30, 70))
    supervisor._crash_and_recover(
        ControllerCrash(time=_EVENTS[70].time, controller_id="svc")
    )
    supervisor.close()
    assert supervisor.replayed_events == 40
    assert supervisor.service.events_processed == 70
    assert len(list(supervisor.store.path.glob("*.corrupt"))) == 1


def _run(plan: FaultPlan, workdir: Path, full_read: bool) -> Dict[str, Any]:
    """One supervised run; ``full_read`` recovers by parsing the whole WAL."""
    patch = pytest.MonkeyPatch()
    if full_read:
        whole = supervisor_module.read_wal
        patch.setattr(
            supervisor_module, "read_wal", lambda path, offset=0: whole(path)
        )
    try:
        return run_supervised(
            _SPEC,
            plan,
            workdir / "run",
            journal=workdir / "journal.jsonl",
            gap_horizon=5.0,
            snapshot_every=8,
        )
    finally:
        patch.undo()


def _tail_and_full(
    plan: FaultPlan, tmp_path: Path
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Summaries of a tail-read and a full-read recovery of ``plan``,
    after requiring the same journal and the same decisions."""
    tail = _run(plan, tmp_path / "tail", False)
    full = _run(plan, tmp_path / "full", True)
    journals = [tmp_path / name / "journal.jsonl" for name in ("tail", "full")]
    texts = [strip_wall(j.read_text(encoding="utf-8")) for j in journals]
    assert texts[0] == texts[1]
    decisions = [
        [(d.user_id, d.chosen) for d in read_journal(j).decisions]
        for j in journals
    ]
    assert decisions[0] == decisions[1]
    return tail, full


def test_loss_free_plan_recovers_as_a_full_read_does(tmp_path: Path) -> None:
    tail, full = _tail_and_full(_LOSS_FREE, tmp_path)
    assert tail == full
    assert tail["recoveries"] == 3 and tail["replayed_events"] > 0


def test_tail_skips_only_events_parked_in_the_snapshot(tmp_path: Path) -> None:
    # Seq 100 is lost, so 101.. park in the reorder buffer until the gap
    # horizon passes; a snapshot is taken while they are parked, and the
    # crash restores it.  A full read re-submits the parked events (the
    # buffer drops them as duplicates); the tail never reads them.
    plan = FaultPlan(
        (
            EventLoss(time=_EVENTS[100].time, seq=100),
            EventDuplicate(time=_EVENTS[60].time, seq=60),
            ProducerStall(time=round(_SPAN * 0.2, 3), duration=10.0),
            ControllerCrash(time=_EVENTS[106].time, controller_id="svc"),
        )
    )
    tail, full = _tail_and_full(plan, tmp_path)
    assert tail["gap_skips"] == full["gap_skips"] == 1
    skipped = full["replayed_events"] - tail["replayed_events"]
    assert skipped > 0
    # Every event the tail did not replay was one the full read's replay
    # dropped as already parked; nothing else moved.
    assert full["dropped_events"] - tail["dropped_events"] == skipped
    for key in ("replayed_events", "dropped_events"):
        del tail[key], full[key]
    assert tail == full


def test_replaced_controller_is_freed_without_the_cycle_collector(
    tmp_path: Path,
) -> None:
    supervisor = Supervisor(
        _SPEC, FaultPlan((_crash(0.5),)), tmp_path, snapshot_every=40
    )
    crashed = weakref.ref(supervisor.service)
    enabled = gc.isenabled()
    gc.disable()
    try:
        supervisor.run()
        assert supervisor.recoveries == 1
        assert crashed() is None
    finally:
        if enabled:
            gc.enable()
