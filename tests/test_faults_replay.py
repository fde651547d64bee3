"""Fault injection in the replay engine: eviction, exclusion, fallback.

A tiny hand-built campus (one building, two APs) makes every effect of
an injected fault checkable by hand: which users an ``ApDown`` evicts,
where their prorated remainders land, when the downed AP rejoins the
candidate set, and how the engine degrades when the controller is out.
A seeded multi-kind chaos plan over the SMALL campus then checks the
whole-run contract: the plan changes the run, every planned event
journals once, and a same-seed rerun journals the same bytes.
"""

from __future__ import annotations

import pytest

from repro import obs, perf
from repro.faults import (
    REPLAY_KINDS,
    ApDown,
    ApUp,
    ChaosConfig,
    ControllerOutage,
    FaultPlan,
    StaleLoadReport,
    generate_plan,
    targeted_ap_outage,
)
from repro.obs.journal import (
    parse_journal,
    perf_snapshot,
    render_journal,
    strip_wall,
)
from repro.obs.records import MetaRecord
from repro.obs.tracer import get_tracer
from repro.sim.rng import RandomStreams
from repro.trace.records import DemandSession
from repro.trace.social import CampusLayout
from repro.wlan.replay import ReplayConfig, ReplayEngine, window_for
from repro.wlan.strategies import LeastLoadedFirst

CONFIG = ReplayConfig(batch_window=60.0, shadowing_sigma_db=0.0)

DOWN_AT = 2000.0
UP_AT = 3000.0


def demand(user_id: str, arrival: float, departure: float, mb: float = 1000.0):
    return DemandSession(
        user_id=user_id,
        building_id="B00",
        arrival=arrival,
        departure=departure,
        realm_bytes=(mb, 0.0, 0.0, 0.0, 0.0, 0.0),
    )


def run_engine(layout, demands, plan):
    engine = ReplayEngine(layout, LeastLoadedFirst(), CONFIG, fault_plan=plan)
    return engine.run(demands)


@pytest.fixture()
def outage_run():
    """One traced run: 4 long sessions, one AP down mid-session."""
    layout = CampusLayout.grid(1, 2)
    demands = [demand(f"u{i}", 0.0, 4000.0) for i in range(4)]
    plan = targeted_ap_outage("ap-B00-00", DOWN_AT, UP_AT - DOWN_AT)
    tracer = obs.enable(reset=True)
    perf.reset()
    try:
        result = run_engine(layout, demands, plan)
        yield result, list(tracer.records)
    finally:
        obs.disable()
        get_tracer().reset()
        perf.reset()


def test_ap_down_evicts_into_forced_coleave_batch(outage_run):
    result, records = outage_run
    downs = [
        r for r in records
        if type(r).__name__ == "FaultRecord" and r.kind == "ap-down"
    ]
    assert len(downs) == 1
    evicted = downs[0].detail["evicted"]
    assert downs[0].target == "ap-B00-00"
    assert downs[0].controller_id == "ctrl-B00"
    assert evicted >= 1  # LLF spread 4 users over 2 APs
    # Each evicted user's session splits at the outage instant: a
    # truncated leg ending at DOWN_AT and a remainder re-arriving *at*
    # DOWN_AT — the forced co-leaving burst lands in one flush batch.
    truncated = [s for s in result.sessions if s.disconnect == DOWN_AT]
    remainders = [s for s in result.sessions if s.connect == DOWN_AT]
    assert len(truncated) == evicted
    assert len(remainders) == evicted
    assert {s.user_id for s in truncated} == {s.user_id for s in remainders}
    # Bytes are conserved across the split (prorated by served fraction).
    for user in {s.user_id for s in truncated}:
        total = sum(s.bytes_total for s in result.sessions if s.user_id == user)
        assert total == pytest.approx(1000.0)
    # The remainder cannot land on the AP that just went down.
    assert all(s.ap_id != "ap-B00-00" for s in remainders)


def test_down_ap_excluded_until_matching_up(outage_run):
    result, records = outage_run
    ups = [
        r for r in records
        if type(r).__name__ == "FaultRecord" and r.kind == "ap-up"
    ]
    assert [u.target for u in ups] == ["ap-B00-00"]
    assert ups[0].sim_time == UP_AT
    for session in result.sessions:
        if session.ap_id != "ap-B00-00":
            continue
        # No session on the downed AP overlaps the outage window.
        assert session.disconnect <= DOWN_AT or session.connect >= UP_AT


def test_outage_perf_counters(outage_run):
    counters = perf.snapshot().counters
    assert counters["faults.ap-down"] == 1
    assert counters["faults.ap-up"] == 1
    assert counters["faults.evicted_users"] >= 1


def test_empty_plan_is_byte_equivalent_to_none():
    layout = CampusLayout.grid(1, 2)
    demands = [demand(f"u{i}", 0.0, 2000.0) for i in range(3)]
    clean = run_engine(layout, demands, None)
    empty = run_engine(layout, demands, FaultPlan())
    assert empty.sessions == clean.sessions
    assert empty.events_processed == clean.events_processed
    assert empty.mean_balance() == clean.mean_balance()


def test_beyond_horizon_events_never_fire():
    layout = CampusLayout.grid(1, 2)
    demands = [demand(f"u{i}", 0.0, 2000.0) for i in range(3)]
    window = window_for(demands, CONFIG)
    late = targeted_ap_outage("ap-B00-00", window.horizon + 100.0, 50.0)
    clean = run_engine(layout, demands, None)
    result = run_engine(layout, demands, late)
    assert result.sessions == clean.sessions
    assert result.events_processed == clean.events_processed


def test_stale_load_report_skips_one_poll():
    layout = CampusLayout.grid(1, 2)
    demands = [demand(f"u{i}", 0.0, 2000.0) for i in range(3)]
    plan = FaultPlan((StaleLoadReport(time=100.0, controller_id="ctrl-B00"),))
    perf.reset()
    try:
        run_engine(layout, demands, plan)
        counters = perf.snapshot().counters
        assert counters["faults.stale-load-report"] == 1
        assert counters["faults.stale_polls"] == 1
    finally:
        perf.reset()


def test_controller_outage_degrades_to_strongest_signal():
    layout = CampusLayout.grid(1, 2)
    demands = [demand(f"u{i}", 0.0, 2000.0) for i in range(3)]
    plan = FaultPlan(
        (ControllerOutage(time=0.0, controller_id="ctrl-B00", duration=200.0),)
    )
    tracer = obs.enable(reset=True)
    perf.reset()
    try:
        result = run_engine(layout, demands, plan)
        decisions = [
            r for r in tracer.records if type(r).__name__ == "DecisionRecord"
        ]
        # The flush at t=60 falls inside the outage: every station in the
        # batch is steered by the engine-held strongest-signal fallback.
        outage_notes = [
            d for d in decisions if d.note == "fallback:rssi:controller-outage"
        ]
        assert len(outage_notes) == len(demands)
        assert all(d.strategy == "rssi" for d in outage_notes)
        assert perf.snapshot().counters["faults.outage_fallback"] == 3.0
        assert len(result.sessions) == 3
    finally:
        obs.disable()
        get_tracer().reset()
        perf.reset()


def test_all_aps_down_defers_flush_to_next_up():
    layout = CampusLayout.grid(1, 1)
    demands = [
        demand("anchor", 0.0, 30.0, mb=1.0),  # anchors window.start at 0
        demand("u1", 150.0, 2500.0),
    ]
    plan = FaultPlan(
        (
            ApDown(time=100.0, ap_id="ap-B00-00"),
            ApUp(time=1000.0, ap_id="ap-B00-00"),
        )
    )
    perf.reset()
    try:
        result = run_engine(layout, demands, plan)
        assert perf.snapshot().counters["faults.deferred_flushes"] >= 1
    finally:
        perf.reset()
    served = [s for s in result.sessions if s.user_id == "u1"]
    assert len(served) == 1
    assert served[0].bytes_total == pytest.approx(1000.0)


def test_all_aps_down_with_no_up_is_an_error():
    layout = CampusLayout.grid(1, 1)
    demands = [
        demand("anchor", 0.0, 30.0, mb=1.0),
        demand("u1", 150.0, 2500.0),
    ]
    plan = FaultPlan((ApDown(time=100.0, ap_id="ap-B00-00"),))
    with pytest.raises(RuntimeError, match="can never be served"):
        run_engine(layout, demands, plan)


def test_plan_rejects_unknown_targets_and_early_events():
    layout = CampusLayout.grid(1, 2)
    demands = [demand("u1", 100.0, 2000.0)]
    with pytest.raises(KeyError, match="unknown AP"):
        run_engine(layout, demands, targeted_ap_outage("ap-nope", 200.0, 50.0))
    with pytest.raises(KeyError, match="unknown controller"):
        run_engine(
            layout,
            demands,
            FaultPlan(
                (StaleLoadReport(time=200.0, controller_id="ctrl-nope"),)
            ),
        )
    # Window starts at the first arrival (t=100): an earlier fault is a
    # plan/trace mismatch, not a silently reinterpreted instant.
    with pytest.raises(ValueError, match="precedes the window start"):
        run_engine(layout, demands, targeted_ap_outage("ap-B00-00", 50.0, 10.0))


# ------------------------------------------------- seeded chaos, SMALL campus


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


def chaos_replay(workload, plan):
    """One fault-armed LLF replay of the test demands."""
    engine = ReplayEngine(
        workload.world.layout, LeastLoadedFirst(), workload.config.replay,
        fault_plan=plan,
    )
    return engine.run(workload.test_demands)


def journaled_chaos_replay(workload, plan):
    """The replay plus its journal text (meta, records, perf footer)."""
    tracer = obs.enable(reset=True)
    perf.reset()
    try:
        result = chaos_replay(workload, plan)
        records = [MetaRecord(fields={"test": "faults-replay"})]
        records.extend(tracer.records)
        records.append(perf_snapshot())
        return result, render_journal(records)
    finally:
        obs.disable()
        tracer.reset()
        perf.reset()


def test_chaos_plan_changes_the_sessions(small_workload):
    plan = chaos_plan(small_workload)
    assert not plan.is_empty
    armed = chaos_replay(small_workload, plan)
    clean = chaos_replay(small_workload, None)
    assert armed.sessions != clean.sessions


def test_every_planned_event_journals_one_fault_record(small_workload):
    plan = chaos_plan(small_workload)
    _, text = journaled_chaos_replay(small_workload, plan)
    fired = sorted(
        (f.sim_time, f.kind, f.target) for f in parse_journal(text).faults
    )
    planned = plan.of_kinds(REPLAY_KINDS)
    assert planned
    assert fired == sorted((e.time, e.kind, e.target) for e in planned)


def test_same_seed_fault_replays_journal_identically(small_workload):
    plan = chaos_plan(small_workload)
    first, first_text = journaled_chaos_replay(small_workload, plan)
    second, second_text = journaled_chaos_replay(
        small_workload, chaos_plan(small_workload)
    )
    assert second.sessions == first.sessions
    assert second.events_processed == first.events_processed
    assert '"type":"fault"' in first_text
    assert strip_wall(second_text) == strip_wall(first_text)
