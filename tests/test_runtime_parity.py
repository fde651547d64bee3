"""Serial/process parity for the sharded replay engine.

These are the equivalence proofs registered for
``repro.runtime.engine.replay`` in the parity registry: for a fixed
seed the process engine must reproduce the serial engine *exactly* —
equal sessions, equal per-controller series, equal event counts, and a
``strip_wall``-byte-identical journal.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import perf
from repro.obs.journal import perf_snapshot, render_journal, strip_wall
from repro.obs.records import MetaRecord
from repro.obs.tracer import get_tracer
from repro.runtime import replay, replay_process, replay_serial
from repro.runtime.engine import AUTO_PROCESS_MIN_DEMANDS, resolve_engine
from repro.wlan.strategies import LeastLoadedFirst, RandomSelection, S3Strategy


def assert_results_identical(serial, process):
    assert process.strategy_name == serial.strategy_name
    assert process.events_processed == serial.events_processed
    assert process.sessions == serial.sessions
    assert sorted(process.series) == sorted(serial.series)
    for controller_id, expected in serial.series.items():
        actual = process.series[controller_id]
        assert actual.ap_ids == expected.ap_ids
        assert np.array_equal(actual.times, expected.times)
        assert np.array_equal(actual.loads, expected.loads)
        assert np.array_equal(actual.user_counts, expected.user_counts)


def test_replay_engines_identical_llf(small_workload):
    layout = small_workload.world.layout
    demands = small_workload.test_demands
    config = small_workload.config.replay
    serial = replay_serial(layout, LeastLoadedFirst(), demands, config)
    process = replay_process(
        layout, LeastLoadedFirst(), demands, config, workers=2
    )
    assert_results_identical(serial, process)
    # Each worker reports its own peak; a serial run has no workers.
    assert serial.worker_peak_rss_bytes == ()
    assert len(process.worker_peak_rss_bytes) == 2
    assert all(peak > 0 for peak in process.worker_peak_rss_bytes)


def test_replay_engines_identical_s3(small_workload, small_model):
    layout = small_workload.world.layout
    demands = small_workload.test_demands
    config = small_workload.config.replay
    serial = replay_serial(
        layout, S3Strategy(small_model.selector()), demands, config
    )
    process = replay_process(
        layout, S3Strategy(small_model.selector()), demands, config, workers=2
    )
    assert_results_identical(serial, process)


def journal_text() -> str:
    """The journal the current tracer/perf state would serialize to."""
    records = [MetaRecord(fields={"test": "runtime-parity"})]
    records.extend(get_tracer().records)
    records.append(perf_snapshot())
    return render_journal(records)


def test_merged_journal_byte_identical(small_workload):
    """The merged worker fragments replay the serial record stream."""
    layout = small_workload.world.layout
    demands = small_workload.test_demands
    config = small_workload.config.replay
    tracer = get_tracer()
    was_enabled = tracer.enabled
    try:
        tracer.enabled = True

        tracer.reset()
        perf.reset()
        serial = replay_serial(layout, LeastLoadedFirst(), demands, config)
        serial_journal = journal_text()

        tracer.reset()
        perf.reset()
        process = replay_process(
            layout, LeastLoadedFirst(), demands, config, workers=2
        )
        process_journal = journal_text()
    finally:
        tracer.enabled = was_enabled
        tracer.reset()
        perf.reset()
    assert_results_identical(serial, process)
    assert strip_wall(process_journal) == strip_wall(serial_journal)


def test_auto_prefers_process_only_when_shardable(small_workload, small_model):
    """``engine='auto'`` must be safe for every strategy."""
    layout = small_workload.world.layout
    demands = small_workload.test_demands
    config = small_workload.config.replay
    # RandomSelection shares one rng across controllers: not shard-safe,
    # auto falls back to serial instead of changing the draws.
    rng = np.random.default_rng(0)
    assert not RandomSelection(rng).shard_safe
    auto = replay(layout, RandomSelection(rng), demands, config, engine="auto")
    expected = replay_serial(
        layout, RandomSelection(np.random.default_rng(0)), demands, config
    )
    assert_results_identical(expected, auto)


def test_auto_resolution_follows_measured_size():
    """A PAPER-sized stream replays serially, a 4x PAPER campus on the
    pool; checkpointing always needs the pool."""
    paper = dict(shard_safe=True, n_demands=2_012, busy_shards=4)
    campus = dict(shard_safe=True, n_demands=7_820, busy_shards=8)
    assert resolve_engine("auto", **paper) == "serial"
    assert resolve_engine("auto", **campus) == "process"
    at_bar = dict(campus, n_demands=AUTO_PROCESS_MIN_DEMANDS)
    assert resolve_engine("auto", **at_bar) == "process"
    below = dict(campus, n_demands=AUTO_PROCESS_MIN_DEMANDS - 1)
    assert resolve_engine("auto", **below) == "serial"
    assert resolve_engine("auto", **dict(campus, busy_shards=1)) == "serial"
    assert resolve_engine("auto", **dict(campus, shard_safe=False)) == "serial"
    assert resolve_engine("auto", **paper, checkpointing=True) == "process"
    assert resolve_engine("process", **paper) == "process"
    assert resolve_engine("serial", **campus) == "serial"
    with pytest.raises(ValueError, match="cannot checkpoint"):
        resolve_engine("serial", **paper, checkpointing=True)


def test_process_engine_rejects_unsafe_strategy(small_workload):
    layout = small_workload.world.layout
    demands = small_workload.test_demands
    config = small_workload.config.replay
    strategy = RandomSelection(np.random.default_rng(0))
    with pytest.raises(ValueError, match="not shard-safe"):
        replay(layout, strategy, demands, config, engine="process")


def test_dispatcher_rejects_unknown_engine(small_workload):
    layout = small_workload.world.layout
    with pytest.raises(ValueError, match="unknown engine"):
        replay(
            layout,
            LeastLoadedFirst(),
            small_workload.test_demands,
            small_workload.config.replay,
            engine="threads",
        )


def test_empty_demands_match_serial_shape(small_workload):
    layout = small_workload.world.layout
    config = small_workload.config.replay
    serial = replay_serial(layout, LeastLoadedFirst(), [], config)
    process = replay(
        layout, LeastLoadedFirst(), [], config, engine="process", workers=2
    )
    assert process.sessions == serial.sessions == []
    assert process.series == serial.series == {}
    assert process.events_processed == serial.events_processed == 0
