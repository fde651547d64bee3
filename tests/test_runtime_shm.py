"""The zero-copy shared-memory transport: round-trips, lifecycle, parity.

Three contracts under test:

* **Fidelity** — columnar transposes and the publish/attach path
  reproduce the original records field for field, and arrays copied out
  of a segment survive its unmapping.
* **Lifecycle** — a :class:`~repro.runtime.shm.SegmentSet` unlinks its
  segments on every exit path (normal return, exception,
  ``KeyboardInterrupt``, a worker killed hard mid-shard), and
  :func:`~repro.runtime.shm.reap_orphans` collects segments whose
  creator process died without running ``finally`` blocks.
* **Parity** — a shm-backed process replay with a fault plan armed is
  ``strip_wall``-byte-identical to the serial engine (the equivalence
  proof registered for ``repro.runtime.engine.replay``).
"""

from __future__ import annotations

import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import perf
from repro.faults import ChaosConfig, generate_plan
from repro.obs.journal import perf_snapshot, render_journal, strip_wall
from repro.obs.records import MetaRecord
from repro.obs.tracer import get_tracer
from repro.runtime import replay_process, replay_serial
from repro.runtime.shm import (
    SegmentSet,
    ShmSlice,
    attach_demands,
    fetch_demands,
    list_segments,
    reap_orphans,
)
from repro.runtime.workers import run_replay_shard
from repro.sim.rng import RandomStreams
from repro.trace.columnar import DemandArrays, FlowArrays, SessionArrays
from repro.trace.records import DemandSession, FlowRecord, SessionRecord
from repro.wlan.replay import window_for
from repro.wlan.strategies import LeastLoadedFirst

_MARKER_DIR = "REPRO_TEST_MARKER_DIR"
_KILL_SHARD = "REPRO_TEST_KILL_SHARD"


def _demands():
    realms = tuple(float(i) for i in range(6))
    return [
        DemandSession("u-b", "bldg-1", 0.0, 10.5, realms, group_id="g-1"),
        DemandSession("u-a", "bldg-2", 1.25, 2.75, realms, group_id=None),
        DemandSession("u-a", "bldg-1", 3.0, 9.0, realms, group_id="g-0"),
    ]


def _flows():
    return [
        FlowRecord(
            user_id="u-a", start=0.5, end=1.5, src_ip="10.0.0.1",
            dst_ip="10.0.0.9", protocol="udp", src_port=5353, dst_port=53,
            bytes_total=123.0,
        ),
        FlowRecord(
            user_id="u-b", start=2.0, end=7.0, src_ip="10.0.0.2",
            dst_ip="10.0.0.1", protocol="tcp", src_port=40000, dst_port=443,
            bytes_total=9876.5,
        ),
    ]


def _sessions():
    return [
        SessionRecord("u-b", "ap-2", "ctl-1", 0.0, 4.0, 10.0),
        SessionRecord("u-a", "ap-1", "ctl-1", 1.0, 2.0, 20.0),
        SessionRecord("u-a", "ap-2", "ctl-2", 3.0, 8.0, 30.0),
    ]


# ------------------------------------------------------- columnar fidelity


def test_demand_arrays_round_trip_exact():
    demands = _demands()
    arrays = DemandArrays.from_demands(demands)
    assert arrays.to_demands() == demands
    # group -1 encodes "no ground-truth group"
    assert int(arrays.group[1]) == -1
    assert DemandArrays.from_demands([]).to_demands() == []


def test_flow_arrays_round_trip_exact():
    flows = _flows()
    assert FlowArrays.from_flows(flows).to_flows() == flows
    assert FlowArrays.from_flows([]).to_flows() == []


def test_session_arrays_slice_shares_tables():
    arrays = SessionArrays.from_sessions(
        [
            SessionRecord("u-b", "ap-2", "ctl-1", 0.0, 4.0, 10.0),
            SessionRecord("u-a", "ap-1", "ctl-1", 1.0, 2.0, 20.0),
            SessionRecord("u-a", "ap-2", "ctl-1", 3.0, 8.0, 30.0),
        ]
    )
    view = arrays.slice_rows(slice(1, 3))
    assert view.user_ids == arrays.user_ids  # codes stay comparable
    assert view.n_sessions == 2
    assert list(view.connect) == [1.0, 3.0]
    masked = arrays.slice_rows(arrays.user == arrays.user_ids.index("u-a"))
    assert list(masked.connect) == [1.0, 3.0]


def test_group_ap_ids_matches_group_heads():
    arrays = SessionArrays.from_sessions(_sessions())
    order, starts, _ = arrays.by_ap_connect()
    ids = arrays.group_ap_ids(starts, order)
    expected = [arrays.ap_ids[int(arrays.ap[order[s]])] for s in starts]
    assert ids == expected == ["ap-1", "ap-2"]


# -------------------------------------------------------- publish / attach


def test_publish_attach_round_trips_every_family():
    """Demands are the one family the transport publishes."""
    demands = _demands()
    with SegmentSet() as segments:
        handle = segments.publish_demands(DemandArrays.from_demands(demands))
        assert handle.segment in list_segments()
        with attach_demands(handle) as attached:
            assert attached.to_demands() == demands
    assert handle.segment not in list_segments()


def test_publish_empty_family():
    with SegmentSet() as segments:
        handle = segments.publish_demands(DemandArrays.from_demands([]))
        with attach_demands(handle) as attached:
            assert attached.to_demands() == []


def test_fetch_demands_survives_segment_teardown():
    demands = _demands()
    with SegmentSet() as segments:
        handle = segments.publish_demands(DemandArrays.from_demands(demands))
        rows = fetch_demands(ShmSlice(handle, 1, 3))
    # the SegmentSet is gone; the fetched copy must own its memory
    assert rows.to_demands() == demands[1:3]


# ------------------------------------------------------- segment lifecycle


def test_segment_set_unlinks_on_exception():
    with pytest.raises(RuntimeError, match="boom"):
        with SegmentSet() as segments:
            handle = segments.publish_demands(
                DemandArrays.from_demands(_demands())
            )
            assert handle.segment in list_segments()
            raise RuntimeError("boom")
    assert handle.segment not in list_segments()


def test_segment_set_unlinks_on_keyboard_interrupt():
    with pytest.raises(KeyboardInterrupt):
        with SegmentSet() as segments:
            handle = segments.publish_demands(
                DemandArrays.from_demands(_demands())
            )
            raise KeyboardInterrupt
    assert handle.segment not in list_segments()


def test_release_is_idempotent():
    segments = SegmentSet()
    handle = segments.publish_demands(DemandArrays.from_demands(_demands()))
    segments.release()
    segments.release()
    assert handle.segment not in list_segments()
    with pytest.raises(RuntimeError, match="already released"):
        segments.publish_demands(DemandArrays.from_demands(_demands()))


def test_reap_orphans_collects_dead_creators_only(caplog):
    # a segment whose embedded creator pid no longer exists
    probe = subprocess.Popen([sys.executable, "-c", "pass"])
    probe.wait()
    orphan = f"repro-shm-{probe.pid}-0"
    Path("/dev/shm", orphan).write_bytes(b"\x00")
    with SegmentSet() as segments:
        live = segments.publish_demands(DemandArrays.from_demands(_demands()))
        with caplog.at_level(logging.WARNING, logger="repro.runtime.shm"):
            reaped = reap_orphans()
        assert orphan in reaped
        assert orphan not in list_segments()
        assert any(orphan in record.message for record in caplog.records)
        # the live run's segment is untouched and still attachable
        assert live.segment in list_segments()
        with attach_demands(live) as attached:
            assert attached.to_demands() == _demands()


def test_reap_orphans_mixed_live_and_orphaned_population():
    # several orphans (distinct dead creator pids) among several live
    # segments: one reap sweep collects exactly the orphans
    probes = []
    for _ in range(2):
        probe = subprocess.Popen([sys.executable, "-c", "pass"])
        probe.wait()
        probes.append(probe)
    orphans = [
        f"repro-shm-{probe.pid}-{index}"
        for index, probe in enumerate(probes)
    ]
    for name in orphans:
        Path("/dev/shm", name).write_bytes(b"\x00")
    with SegmentSet() as segments:
        live = [
            segments.publish_demands(DemandArrays.from_demands(rows))
            for rows in (_demands(), _demands()[1:])
        ]
        reaped = reap_orphans()
        assert set(orphans) <= set(reaped)
        remaining = list_segments()
        for name in orphans:
            assert name not in remaining
        for handle in live:
            assert handle.segment in remaining
        # both live segments still attach and round-trip after the sweep
        with attach_demands(live[0]) as attached:
            assert attached.to_demands() == _demands()
        with attach_demands(live[1]) as attached:
            assert attached.to_demands() == _demands()[1:]
    for handle in live:
        assert handle.segment not in list_segments()


# -------------------------------------------------- engine-level lifecycle


def _mark(name: str) -> int:
    marker = Path(os.environ[_MARKER_DIR]) / name
    with marker.open("a", encoding="utf-8") as handle:
        handle.write("run\n")
    return len(marker.read_text(encoding="utf-8").splitlines())


def _kill_once_shard_body(task):
    """Shard body that hard-kills its worker on the chosen shard's first try."""
    count = _mark(task.controller_id)
    if task.controller_id == os.environ[_KILL_SHARD] and count == 1:
        os._exit(1)
    return run_replay_shard(task)


def test_replay_process_leaves_no_segments(small_workload):
    layout = small_workload.world.layout
    demands = small_workload.test_demands
    config = small_workload.config.replay
    perf.reset()
    try:
        result = replay_process(
            layout, LeastLoadedFirst(), demands, config, workers=2
        )
        timers = perf.PERF.timers()
        # the run actually went through the shm transport ...
        assert timers["shm.publish"].calls == 1
        assert timers["shm.attach"].calls >= 1
    finally:
        perf.reset()
    assert result.sessions
    # ... and tore every segment down on the way out
    assert list_segments() == []


def test_killed_worker_leaves_no_segments_and_matches_serial(
    small_workload, tmp_path, monkeypatch
):
    """A worker dying mid-shard must not leak its run's segments."""
    layout = small_workload.world.layout
    demands = small_workload.test_demands
    config = small_workload.config.replay
    victim = layout.controller_ids[0]
    monkeypatch.setenv(_MARKER_DIR, str(tmp_path))
    monkeypatch.setenv(_KILL_SHARD, victim)
    import repro.runtime.engine as engine_module

    monkeypatch.setattr(
        engine_module, "run_replay_shard", _kill_once_shard_body
    )
    result = replay_process(
        layout, LeastLoadedFirst(), demands, config, workers=2,
        max_task_retries=1,
    )
    # the victim shard ran twice: the killed attempt plus the retry
    assert _marker_runs(tmp_path, victim) == 2
    serial = replay_serial(layout, LeastLoadedFirst(), demands, config)
    assert result.sessions == serial.sessions
    assert result.events_processed == serial.events_processed
    assert list_segments() == []


def _marker_runs(tmp_path: Path, name: str) -> int:
    marker = tmp_path / name
    return len(marker.read_text(encoding="utf-8").splitlines())


# ------------------------------------------------------------------ parity


def journal_text() -> str:
    records = [MetaRecord(fields={"test": "shm-parity"})]
    records.extend(get_tracer().records)
    records.append(perf_snapshot())
    return render_journal(records)


def test_shm_replay_byte_identical_with_faults_armed(small_workload):
    """The transport is invisible: chaos replay journals byte-match serial."""
    layout = small_workload.world.layout
    demands = small_workload.test_demands
    config = small_workload.config.replay
    window = window_for(demands, config)
    plan = generate_plan(
        layout, window.start, window.horizon, RandomStreams(7),
        ChaosConfig(ap_outages=2, controller_outages=1, stale_reports=2),
    )
    assert not plan.is_empty
    tracer = get_tracer()
    was_enabled = tracer.enabled
    try:
        tracer.enabled = True

        tracer.reset()
        perf.reset()
        serial = replay_serial(
            layout, LeastLoadedFirst(), demands, config, fault_plan=plan
        )
        serial_journal = journal_text()

        tracer.reset()
        perf.reset()
        process = replay_process(
            layout, LeastLoadedFirst(), demands, config, workers=2,
            fault_plan=plan,
        )
        process_journal = journal_text()
    finally:
        tracer.enabled = was_enabled
        tracer.reset()
        perf.reset()
    assert process.sessions == serial.sessions
    assert process.events_processed == serial.events_processed
    assert strip_wall(process_journal) == strip_wall(serial_journal)
    assert list_segments() == []
