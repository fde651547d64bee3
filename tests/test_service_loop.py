"""The controller loop: reorder buffer, dispatch, apps, learner wiring."""

from __future__ import annotations

import asyncio
import math
from typing import List, Optional, Tuple

import numpy as np
import pytest

from repro.core.demand import DemandEstimator
from repro.core.online import OnlineLearner
from repro.core.social import SocialModel
from repro.core.typing import TypeModel
from repro.service.admission import AdmissionConfig
from repro.service.events import (
    ServiceEvent,
    StationJoin,
    StationLeave,
    StatsReport,
)
from repro.service.fastpath import FastAssociator
from repro.wlan.entities import APRuntime
from repro.service.loop import (
    BalanceMonitorApp,
    ControllerService,
    ServiceApp,
    run_events,
)
from repro.service.workload import WorkloadSpec, make_service, synthetic_events


def _service(
    admission: Optional[AdmissionConfig] = None,
    apps: Tuple[ServiceApp, ...] = (),
    learner: bool = False,
    gap_horizon: Optional[float] = None,
) -> ControllerService:
    type_model = TypeModel(
        centroids=np.zeros((2, 6)),
        assignments={},
        affinity=np.full((2, 2), 0.25),
    )
    social = SocialModel({}, type_model)
    associator = FastAssociator(
        social,
        DemandEstimator(),
        [APRuntime(f"ap{i}", 1e7) for i in range(3)],
    )
    return ControllerService(
        associator,
        admission=admission,
        apps=apps,
        learner=OnlineLearner(social) if learner else None,
        gap_horizon=gap_horizon,
    )


class _Recorder(ServiceApp):
    def __init__(self) -> None:
        self.calls: List[Tuple[str, str]] = []

    def on_join(self, event: StationJoin, ap_id: str) -> None:
        self.calls.append(("join", event.user_id))

    def on_leave(self, event: StationLeave, ap_id: Optional[str]) -> None:
        self.calls.append(("leave", event.user_id))

    def on_stats(self, event: StatsReport) -> None:
        self.calls.append(("stats", event.user_id))


def test_out_of_order_submission_processes_in_seq_order() -> None:
    recorder = _Recorder()
    service = _service(
        AdmissionConfig(flush_horizon=0.0), apps=(recorder,)
    )
    events: List[ServiceEvent] = [
        StationJoin(seq=0, time=0.0, user_id="a"),
        StatsReport(seq=1, time=1.0, user_id="a", mean_rate=1e5),
        StationJoin(seq=2, time=2.0, user_id="b"),
        StationLeave(seq=3, time=3.0, user_id="a"),
    ]
    # Submit in scrambled order; nothing processes until seq 0 lands.
    service.submit(events[2])
    service.submit(events[1])
    assert service.events_processed == 0
    service.submit(events[0])
    assert service.events_processed == 3
    service.submit(events[3])
    service.drain()
    assert [c for c in recorder.calls] == [
        ("join", "a"),
        ("stats", "a"),
        ("join", "b"),
        ("leave", "a"),
    ]


def test_duplicate_and_stale_seq_rejected() -> None:
    service = _service()
    service.submit(StationJoin(seq=0, time=0.0, user_id="a"))
    with pytest.raises(ValueError, match="duplicate event seq"):
        service.submit(StationJoin(seq=0, time=0.0, user_id="b"))
    service.submit(StationJoin(seq=2, time=1.0, user_id="c"))
    with pytest.raises(ValueError, match="duplicate event seq"):
        service.submit(StatsReport(seq=2, time=1.0, user_id="c", mean_rate=1.0))


def test_drain_raises_on_sequence_gap() -> None:
    service = _service()
    service.submit(StationJoin(seq=1, time=0.0, user_id="a"))
    with pytest.raises(ValueError, match="sequence gap"):
        service.drain()


def test_clock_must_not_run_backwards() -> None:
    service = _service()
    service.submit(StationJoin(seq=0, time=5.0, user_id="a"))
    with pytest.raises(ValueError, match="backwards"):
        service.submit(StationJoin(seq=1, time=4.0, user_id="b"))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
def test_non_finite_times_are_refused(bad: float, first: bool) -> None:
    # A NaN time compares false against any clock, so a NaN clock took
    # every later time; an infinite one wedged the monitor's sampling
    # grid (``inf + interval == inf``).  Both are refused on arrival.
    service = make_service(WorkloadSpec(users=4, aps=2, events=0))
    seq = 0
    if not first:
        service.submit(StationJoin(seq=0, time=1.0, user_id="u000"))
        seq = 1
    with pytest.raises(ValueError, match="non-finite time"):
        service.submit(StationJoin(seq=seq, time=bad, user_id="u001"))
    assert service.events_processed == seq


@pytest.mark.parametrize(
    "field", ["bandwidth", "mean_gap", "stats_scale", "monitor_interval"]
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_workload_spec_refuses_non_finite_or_non_positive(
    field: str, bad: float
) -> None:
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        WorkloadSpec(**{field: bad})


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0])
def test_ap_runtime_refuses_nan_or_non_positive_bandwidth(bad: float) -> None:
    with pytest.raises(ValueError, match="bandwidth"):
        APRuntime("ap0", bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_monitor_interval_must_be_positive_and_finite(bad: float) -> None:
    with pytest.raises(ValueError, match="positive and finite"):
        BalanceMonitorApp(interval=bad)


def test_join_while_associated_or_pending_is_an_implicit_leave() -> None:
    # The stream lost "a"'s leave: the pending join is decided first, the
    # stay it began ends, and the new join queues as any join does.
    service = _service(AdmissionConfig(flush_horizon=1e9), learner=True)
    learner = service.learner
    assert learner is not None
    first = service.submit(StationJoin(seq=0, time=0.0, user_id="a"))
    second = service.submit(StationJoin(seq=1, time=1.0, user_id="a"))
    assert first is not None and first.done
    assert second is not None and not second.done
    assert service.associator.ap_of("a") is None
    assert all("a" not in users for users in learner._present.values())
    service.drain()
    assert second.done
    assert service.associator.ap_of("a") == second.ap_id
    assert service.associator.total_users() == 1
    # A re-join of an associated user: the old stay ends unrecorded.
    service.submit(StationJoin(seq=2, time=2.0, user_id="a"))
    service.drain()
    assert service.associator.total_users() == 1
    assert learner.social.known_pairs() == 0


def test_leave_for_pending_join_forces_flush() -> None:
    service = _service(AdmissionConfig(flush_horizon=1e9), learner=True)
    ticket = service.submit(StationJoin(seq=0, time=0.0, user_id="a"))
    assert ticket is not None and not ticket.done
    service.submit(StationLeave(seq=1, time=1.0, user_id="a"))
    assert ticket.done  # decided before the departure applied
    assert service.associator.ap_of("a") is None
    service.drain()


def test_learner_sees_arrivals_and_departures() -> None:
    service = _service(AdmissionConfig(flush_horizon=0.0), learner=True)
    learner = service.learner
    assert learner is not None
    service.submit(StationJoin(seq=0, time=0.0, user_id="a"))
    service.submit(StationJoin(seq=1, time=10.0, user_id="b"))
    # A zero horizon still flushes on the *next* clock tick, so advance
    # the clock with a stats event to commit "b" as well.
    service.submit(StatsReport(seq=2, time=20.0, user_id="a", mean_rate=1.0))
    present = {
        user for ap in learner._present.values() for user in ap
    }
    assert present == {"a", "b"}
    service.submit(StationLeave(seq=3, time=30.0, user_id="a"))
    present = {
        user for ap in learner._present.values() for user in ap
    }
    assert present == {"b"}
    service.drain()


def test_stats_reports_feed_demand() -> None:
    service = _service(AdmissionConfig(flush_horizon=0.0))
    service.submit(StationJoin(seq=0, time=0.0, user_id="a"))
    before = service.associator.demand.estimate("a")
    service.submit(StatsReport(seq=1, time=1.0, user_id="a", mean_rate=9e5))
    after = service.associator.demand.estimate("a")
    assert after != before
    service.drain()


def test_ticket_wait_resolves_under_asyncio() -> None:
    service = _service(AdmissionConfig(flush_horizon=0.5))

    async def scenario() -> str:
        ticket = service.submit(StationJoin(seq=0, time=0.0, user_id="a"))
        assert ticket is not None
        waiter = asyncio.ensure_future(ticket.wait())
        await asyncio.sleep(0)
        assert not waiter.done()
        service.submit(StatsReport(seq=1, time=1.0, user_id="x", mean_rate=1.0))
        await asyncio.sleep(0)
        return await waiter

    chosen = asyncio.run(scenario())
    assert chosen in service.associator.ap_ids
    service.drain()


def test_balance_monitor_samples_on_sim_grid() -> None:
    monitor = BalanceMonitorApp(interval=10.0)
    service = _service(
        AdmissionConfig(flush_horizon=0.0), apps=(monitor,)
    )
    service.submit(StationJoin(seq=0, time=0.0, user_id="a"))
    service.submit(StatsReport(seq=1, time=35.0, user_id="a", mean_rate=1e5))
    service.drain()
    # Grid anchored at the first event: ticks at 10, 20, 30 have passed.
    assert monitor.samples_taken == 3
    with pytest.raises(ValueError, match="interval"):
        BalanceMonitorApp(interval=0.0)


@pytest.mark.parametrize("producers", [2, 5])
def test_run_events_multi_producer_equals_serial(producers: int) -> None:
    spec = WorkloadSpec(users=16, aps=4, events=150, seed=11)
    events = synthetic_events(spec)

    def final_state(n_producers: int) -> Tuple[int, int, List[float]]:
        service = make_service(spec)
        asyncio.run(run_events(service, events, producers=n_producers))
        return (
            service.admission.decisions,
            service.events_processed,
            service.associator.loads(),
        )

    assert final_state(producers) == final_state(1)


def test_run_events_validates_producer_count() -> None:
    service = _service()
    with pytest.raises(ValueError, match="producers"):
        asyncio.run(run_events(service, [], producers=0))


# ----------------------------------------------------------------- #
# Tolerant mode: gap horizon, duplicate shedding                    #
# ----------------------------------------------------------------- #


def test_gap_horizon_must_be_positive() -> None:
    with pytest.raises(ValueError, match="gap_horizon"):
        _service(gap_horizon=0.0)
    with pytest.raises(ValueError, match="gap_horizon"):
        _service(gap_horizon=-1.0)


def test_gap_skipped_after_horizon_elapses() -> None:
    recorder = _Recorder()
    service = _service(
        AdmissionConfig(flush_horizon=0.0), apps=(recorder,), gap_horizon=5.0
    )
    service.submit(StationJoin(seq=0, time=0.0, user_id="a"))
    # seq 1 is missing; seq 2 parks until the horizon ages it out.
    service.submit(StationJoin(seq=2, time=2.0, user_id="b"))
    assert service.events_processed == 1
    assert service.gap_skips == 0
    service.submit(StatsReport(seq=3, time=8.0, user_id="a", mean_rate=1.0))
    assert service.gap_skips == 1
    assert service.events_processed == 3
    service.drain()
    assert [c for c in recorder.calls if c[0] == "join"] == [
        ("join", "a"),
        ("join", "b"),
    ]


def test_tolerant_mode_drops_duplicates_and_stale_seqs() -> None:
    service = _service(
        AdmissionConfig(flush_horizon=0.0), gap_horizon=10.0
    )
    service.submit(StationJoin(seq=0, time=0.0, user_id="a"))
    # Re-delivery of an already-consumed seq is dropped, not an error.
    service.submit(StationJoin(seq=0, time=0.0, user_id="a"))
    assert service.dropped_events == 1
    # A parked duplicate is dropped too.
    service.submit(StationJoin(seq=2, time=1.0, user_id="b"))
    service.submit(StationJoin(seq=2, time=1.0, user_id="b"))
    assert service.dropped_events == 2
    assert service.events_processed == 1
    service.submit(StationJoin(seq=1, time=1.0, user_id="c"))
    assert service.events_processed == 3
    service.drain()


def test_tolerant_drain_skips_trailing_gaps() -> None:
    service = _service(AdmissionConfig(flush_horizon=0.0), gap_horizon=5.0)
    service.submit(StationJoin(seq=0, time=0.0, user_id="a"))
    service.submit(StationJoin(seq=3, time=1.0, user_id="b"))
    assert service.events_processed == 1
    service.drain()
    assert service.events_processed == 2
    assert service.gap_skips == 2  # seqs 1 and 2 declared missing


def test_strict_mode_still_raises_on_duplicates_and_gaps() -> None:
    service = _service()
    service.submit(StationJoin(seq=1, time=0.0, user_id="a"))
    with pytest.raises(ValueError, match="sequence gap"):
        service.drain()
    with pytest.raises(ValueError, match="duplicate event seq"):
        service.submit(StationJoin(seq=1, time=0.0, user_id="b"))
