"""Micro-batching, horizon flushes, shedding and backpressure metrics."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.demand import DemandEstimator
from repro.core.online import OnlineLearner
from repro.core.social import SocialModel
from repro.core.typing import TypeModel
from repro.obs import metrics as obs_metrics
from repro.service.admission import (
    FALLBACK_CHAIN,
    SHED_NOTE,
    STALE_NOTE,
    AdmissionConfig,
    AdmissionQueue,
)
from repro.service.checkpoint import capture_checkpoint, restore_checkpoint
from repro.service.events import StationJoin, StationLeave, StatsReport
from repro.service.fastpath import FastAssociator
from repro.wlan.entities import APRuntime
from repro.service.loop import ControllerService, JoinTicket, ServiceApp


def _associator(aps: int = 4) -> FastAssociator:
    type_model = TypeModel(
        centroids=np.zeros((2, 6)),
        assignments={},
        affinity=np.full((2, 2), 0.25),
    )
    return FastAssociator(
        SocialModel({}, type_model),
        DemandEstimator(),
        [APRuntime(f"ap{i}", 1e7) for i in range(aps)],
    )


def _offer(queue: AdmissionQueue, seq: int, time: float) -> JoinTicket:
    ticket = JoinTicket()
    queue.offer(StationJoin(seq=seq, time=time, user_id=f"u{seq}"), ticket)
    return ticket


def test_flush_chunks_by_max_batch() -> None:
    queue = AdmissionQueue(_associator(), AdmissionConfig(max_batch=2))
    tickets = [_offer(queue, i, 0.1 * i) for i in range(5)]
    assert queue.depth == 5
    assert not any(t.done for t in tickets)
    queue.flush(1.0)
    assert queue.depth == 0
    assert all(t.done for t in tickets)
    assert queue.decisions == 5
    assert queue.batches == 3  # chunks of 2, 2, 1


def test_horizon_flush_on_clock_advance() -> None:
    queue = AdmissionQueue(
        _associator(), AdmissionConfig(max_batch=8, flush_horizon=1.0)
    )
    ticket = _offer(queue, 0, 10.0)
    queue.maybe_flush(10.5)
    assert not ticket.done
    queue.maybe_flush(11.0)
    assert ticket.done and queue.depth == 0


def test_saturated_queue_sheds_to_llf() -> None:
    commits: List[Tuple[str, str, Optional[str]]] = []
    associator = _associator(aps=2)
    queue = AdmissionQueue(
        associator,
        AdmissionConfig(max_batch=2, queue_capacity=2, flush_horizon=1e9),
        on_commit=lambda e, ap, mode, note: commits.append((e.user_id, mode, note)),
    )
    # Fill one AP so LLF has a unique answer.
    associator.ap("ap0").associate("resident", 5e6)
    queued = [_offer(queue, 0, 0.0), _offer(queue, 1, 0.0)]
    assert queue.depth == 2 and not any(t.done for t in queued)
    shed_ticket = _offer(queue, 2, 0.0)
    assert shed_ticket.done  # answered immediately, out of band
    assert shed_ticket.ap_id == "ap1"  # least loaded wins
    assert queue.sheds == 1
    assert queue.depth == 2  # pending batch untouched
    assert commits == [("u2", "single", SHED_NOTE)]
    queue.drain(0.0)
    assert all(t.done for t in queued)
    assert commits[0] == ("u2", "single", SHED_NOTE)
    assert {c[1] for c in commits[1:]} == {"batch"}
    assert {c[2] for c in commits[1:]} == {None}


def test_shed_note_and_fallback_chain() -> None:
    assert FALLBACK_CHAIN == ("s3", "llf", "rssi")
    assert SHED_NOTE == "fallback:llf:admission-shed"


def test_backpressure_metrics_recorded() -> None:
    obs_metrics.enable(reset=True)
    queue = AdmissionQueue(
        _associator(),
        AdmissionConfig(max_batch=2, queue_capacity=4, flush_horizon=1.5),
    )
    _offer(queue, 0, 1.0)
    _offer(queue, 1, 2.0)
    queue.maybe_flush(3.0)  # oldest aged 2.0 >= 1.5 -> batch of 2
    _offer(queue, 2, 4.0)
    _offer(queue, 3, 5.0)
    queue.maybe_flush(6.0)  # second batch of 2
    series = {s.spec.name: s for s in obs_metrics.REGISTRY.series()}
    obs_metrics.disable()
    assert sum(series["service.decisions"].windows.values()) == 4.0
    batch_windows = series["service.batch_size"].windows.values()
    assert sum(w.count for w in batch_windows) == 2  # two flushes...
    assert sum(w.total for w in batch_windows) == 4.0  # ...of two joins each
    depth_points = series["service.queue_depth"].windows.values()
    assert all(value == 0.0 for _, value in depth_points)  # reset by flushes
    latency_windows = series["service.decision_latency"].windows.values()
    assert sum(w.count for w in latency_windows) == 4


def test_track_latency_collects_samples() -> None:
    queue = AdmissionQueue(
        _associator(), AdmissionConfig(max_batch=1, track_latency=True)
    )
    for i in range(5):
        _offer(queue, i, float(i))
    queue.drain(5.0)
    assert len(queue.latencies) == 5
    assert all(lat >= 0.0 for lat in queue.latencies)


def test_drain_flushes_stragglers() -> None:
    queue = AdmissionQueue(
        _associator(), AdmissionConfig(max_batch=8, flush_horizon=1e9)
    )
    tickets = [_offer(queue, i, 0.0) for i in range(3)]
    queue.drain(0.0)
    assert all(t.done for t in tickets)
    assert queue.batches == 1


def test_leave_storm_at_queue_capacity_sheds_then_flushes() -> None:
    # Service-level interplay: joins beyond queue_capacity shed out of
    # band while a storm of leaves for still-pending users forces the
    # whole batch out (decide-then-depart) before any departure applies.
    service = ControllerService(
        _associator(aps=2),
        admission=AdmissionConfig(
            max_batch=4, queue_capacity=4, flush_horizon=1e9
        ),
    )
    queue = service.admission
    pending = [
        service.submit(StationJoin(seq=i, time=0.0, user_id=f"u{i}"))
        for i in range(4)
    ]
    assert queue.depth == 4
    assert not any(t is None or t.done for t in pending)
    shed = service.submit(StationJoin(seq=4, time=0.0, user_id="u4"))
    assert shed is not None and shed.done  # answered immediately
    assert queue.sheds == 1 and queue.depth == 4
    for i in range(4):
        service.submit(StationLeave(seq=5 + i, time=1.0 + i, user_id=f"u{i}"))
    assert all(t is not None and t.done for t in pending)
    assert queue.depth == 0
    assert queue.decisions == 5  # 4 batched + 1 shed
    assert all(service.associator.ap_of(f"u{i}") is None for i in range(4))
    assert service.associator.ap_of("u4") == shed.ap_id
    service.submit(StationLeave(seq=9, time=10.0, user_id="u4"))
    assert service.associator.ap_of("u4") is None
    # Capacity frees up: a fresh join queues normally again.
    fresh = service.submit(StationJoin(seq=10, time=11.0, user_id="u5"))
    assert fresh is not None and not fresh.done and queue.depth == 1
    service.drain()
    assert fresh.done
    assert queue.sheds == 1  # the storm never shed a second join


def test_flag_stale_routes_next_decisions_to_llf() -> None:
    commits: List[Tuple[str, str, Optional[str]]] = []
    associator = _associator(aps=2)
    queue = AdmissionQueue(
        associator,
        AdmissionConfig(max_batch=4),
        on_commit=lambda e, ap, mode, note: commits.append(
            (e.user_id, ap, note)
        ),
    )
    associator.ap("ap0").associate("resident", 5e6)
    queue.flag_stale(2)
    assert queue.stale_remaining == 2
    queue.flag_stale(1)  # never shrinks an outstanding degradation
    assert queue.stale_remaining == 2
    for i in range(3):
        _offer(queue, i, 0.0)
    queue.flush(0.0)
    assert [note for _, _, note in commits] == [STALE_NOTE, STALE_NOTE, None]
    assert commits[0][1] == "ap1"  # least loaded wins, not the model
    assert queue.stale_decisions == 2 and queue.stale_remaining == 0
    with pytest.raises(ValueError, match="stale decision count"):
        queue.flag_stale(-1)
    assert STALE_NOTE == "fallback:llf:model-stale"


def test_config_validation() -> None:
    with pytest.raises(ValueError, match="max_batch"):
        AdmissionConfig(max_batch=0)
    with pytest.raises(ValueError, match="flush_horizon"):
        AdmissionConfig(flush_horizon=-1.0)
    with pytest.raises(ValueError, match="queue_capacity"):
        AdmissionConfig(max_batch=8, queue_capacity=4)


def _assert_index_is_scan(queue: AdmissionQueue) -> None:
    scan = {event.user_id for event, _, _ in queue._pending}
    assert queue._pending_users == scan
    for user in scan | {f"u{i}" for i in range(5)}:
        assert queue.pending_user(user) == (user in scan)


class _IndexCheck(ServiceApp):
    """Checks the pending index against the queue at every commit."""

    def __init__(self) -> None:
        self.queue: Optional[AdmissionQueue] = None
        self.commits = 0

    def on_join(self, event: StationJoin, ap_id: str) -> None:
        assert self.queue is not None
        _assert_index_is_scan(self.queue)
        self.commits += 1


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["join", "join", "leave", "stats", "stale", "flush"]),
        st.integers(0, 4),  # user, or stale decisions
        st.sampled_from([0.0, 0.0, 0.4, 1.0]),  # clock advance
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops=_OPS, capture_at=st.integers(0, 40))
def test_pending_index_is_a_scan_of_the_queue(
    ops: List[Tuple[str, int, float]], capture_at: int
) -> None:
    check = _IndexCheck()
    associator = _associator(aps=3)
    service = ControllerService(
        associator,
        admission=AdmissionConfig(max_batch=2, queue_capacity=3, flush_horizon=1.0),
        apps=[check],
        learner=OnlineLearner(associator.social),
    )
    check.queue = service.admission
    now = 0.0
    for seq, (kind, user, advance) in enumerate(ops):
        if seq == capture_at:
            # Derived state is rebuilt, not pickled: a restored queue
            # indexes exactly what it holds.
            restored = restore_checkpoint(capture_checkpoint(service, "fp"), "fp")
            assert "_pending_users" not in restored.admission.__getstate__()
            _assert_index_is_scan(restored.admission)
            assert restored.admission._pending_users == service.admission._pending_users
            service = restored
            check = service.apps[0]
            assert check.queue is service.admission
        now += advance
        queue = service.admission
        if kind == "join":
            service.submit(StationJoin(seq=seq, time=now, user_id=f"u{user}"))
        elif kind == "leave":
            service.submit(StationLeave(seq=seq, time=now, user_id=f"u{user}"))
        else:
            service.submit(
                StatsReport(seq=seq, time=now, user_id=f"u{user}", mean_rate=1e3)
            )
            if kind == "stale":
                queue.flag_stale(user)
            elif kind == "flush":
                queue.flush(now)
        _assert_index_is_scan(service.admission)
    service.drain()
    _assert_index_is_scan(service.admission)
    assert check.commits == service.admission.decisions
