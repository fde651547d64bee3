"""Serial/process parity under an injected fault plan.

Same contract as ``tests/test_runtime_parity.py``, with chaos switched
on: for a fixed seed and a fixed :class:`FaultPlan`, the sharded process
engine must reproduce the serial engine exactly — equal evictions, equal
forced co-leave batches, equal series, and a ``strip_wall``-byte
identical journal including the fault records.  These are the
equivalence proofs the parity registry lists for fault replays.
"""

from __future__ import annotations

import numpy as np

from repro import perf
from repro.faults import REPLAY_KINDS, ChaosConfig, generate_plan
from repro.obs.journal import parse_journal, perf_snapshot, render_journal, strip_wall
from repro.obs.records import MetaRecord
from repro.obs.tracer import get_tracer
from repro.runtime import replay_process, replay_serial
from repro.sim.rng import RandomStreams
from repro.wlan.replay import window_for
from repro.wlan.strategies import LeastLoadedFirst


def chaos_plan(workload):
    """A multi-kind plan drawn from a fixed seed over the test window."""
    window = window_for(workload.test_demands, workload.config.replay)
    return generate_plan(
        workload.world.layout,
        window.start,
        window.horizon,
        RandomStreams(7),
        ChaosConfig(ap_outages=2, controller_outages=1, stale_reports=2),
    )


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


def test_fault_replay_engines_identical(small_workload):
    layout = small_workload.world.layout
    demands = small_workload.test_demands
    config = small_workload.config.replay
    plan = chaos_plan(small_workload)
    assert not plan.is_empty
    serial = replay_serial(
        layout, LeastLoadedFirst(), demands, config, fault_plan=plan
    )
    process = replay_process(
        layout, LeastLoadedFirst(), demands, config, workers=2,
        fault_plan=plan,
    )
    assert_results_identical(serial, process)
    # The plan changed the run: chaos actually exercised the engines.
    clean = replay_serial(layout, LeastLoadedFirst(), demands, config)
    assert serial.sessions != clean.sessions


def journal_text() -> str:
    records = [MetaRecord(fields={"test": "faults-parity"})]
    records.extend(get_tracer().records)
    records.append(perf_snapshot())
    return render_journal(records)


def test_fault_journal_byte_identical(small_workload):
    """Merged worker fragments replay the serial fault record stream."""
    layout = small_workload.world.layout
    demands = small_workload.test_demands
    config = small_workload.config.replay
    plan = chaos_plan(small_workload)
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
    assert_results_identical(serial, process)
    assert strip_wall(process_journal) == strip_wall(serial_journal)
    # Every planned replay event fired and surfaced as a fault record.
    journal = parse_journal(serial_journal)
    assert len(journal.faults) == len(plan.of_kinds(REPLAY_KINDS))


def test_process_replay_byte_identical_with_faults_armed(small_workload):
    """Chaos replay journals from the process engine byte-match serial."""
    layout = small_workload.world.layout
    demands = small_workload.test_demands
    config = small_workload.config.replay
    plan = chaos_plan(small_workload)
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
