"""The service's contract under lost and duplicated events.

A join from a user the controller still holds associated (or pending)
means the stream lost that user's leave: the controller takes it as an
implicit leave, then the join.  These tests pin the rule on the seed-13
stream that used to kill the supervised run, and prove on a small stream,
exhaustively over every single loss and every single duplicate, that
each run completes with a consistent association state after every
delivery.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

from repro.faults import EventDuplicate, EventLoss, FaultPlan
from repro.obs import metrics as obs_metrics
from repro.obs.journal import strip_wall
from repro.service.events import ServiceEvent, StationJoin, StationLeave
from repro.service.supervisor import Supervisor, run_supervised
from repro.service.workload import WorkloadSpec, synthetic_events

#: The stream whose lost leave of ``u011`` (seq 150) is followed by that
#: user's next join.
_SEED13 = WorkloadSpec(users=24, aps=6, events=300, seed=13)

#: A short stream over four users and three APs: users leave and come
#: back often, so most lost leaves are followed by a re-join.
_TINY = WorkloadSpec(users=4, aps=3, events=40, seed=3)

_GAP_HORIZON = 5.0


def _implicit_leaves() -> float:
    series = {s.spec.name: s for s in obs_metrics.REGISTRY.series()}
    counter = series.get("service.implicit_leaves")
    return 0.0 if counter is None else sum(counter.windows.values())


def test_seed13_lost_leave_then_rejoin_completes(tmp_path: Path) -> None:
    events = synthetic_events(_SEED13)
    lost = events[150]
    assert isinstance(lost, StationLeave)
    rejoin = next(
        event
        for event in events[151:]
        if event.user_id == lost.user_id and isinstance(event, StationJoin)
    )
    plan = FaultPlan((EventLoss(time=lost.time, seq=lost.seq),))
    summary = run_supervised(
        _SEED13,
        plan,
        tmp_path / "work",
        journal=tmp_path / "journal.jsonl",
        metrics=True,
        gap_horizon=_GAP_HORIZON,
    )
    assert summary["events"] == _SEED13.events - 1
    assert summary["gap_skips"] == 1
    assert rejoin.seq > lost.seq
    assert _implicit_leaves() == 1.0


class _CheckedSupervisor(Supervisor):
    """A supervisor that checks the association state after each delivery."""

    def _deliver(self, event: ServiceEvent) -> None:
        super()._deliver(event)
        service = self.service
        seats: Dict[str, str] = {}
        for ap_id in service.associator.ap_ids:
            ap = service.associator.ap(ap_id)
            for user_id in ap.users:
                assert user_id not in seats, (
                    f"{user_id} on {seats[user_id]} and {ap_id}"
                )
                seats[user_id] = ap_id
            assert ap.load == sum(ap._sessions.values()), (
                f"{ap_id} load {ap.load} != residents' rates"
            )
        for user_id, ap_id in seats.items():
            assert service.associator.ap_of(user_id) == ap_id
        learner = service.learner
        assert learner is not None
        present = {
            user_id: ap_id
            for ap_id, users in learner._present.items()
            for user_id in users
        }
        assert present == seats


def _checked_run(plan: FaultPlan, workdir: Path) -> Supervisor:
    supervisor = _CheckedSupervisor(
        _TINY, plan, workdir, gap_horizon=_GAP_HORIZON
    )
    supervisor.run()
    return supervisor


def test_every_single_loss_completes_with_consistent_state(
    tmp_path: Path,
) -> None:
    obs_metrics.enable(reset=True)
    rejoined = 0
    for event in synthetic_events(_TINY):
        before = _implicit_leaves()
        plan = FaultPlan((EventLoss(time=event.time, seq=event.seq),))
        supervisor = _checked_run(plan, tmp_path / f"loss-{event.seq}")
        assert supervisor.service.events_processed == _TINY.events - 1
        rejoined += _implicit_leaves() > before
    # Lost leaves followed by a re-join were among the plans.
    assert rejoined > 0


def test_every_single_duplicate_matches_the_clean_journal(
    tmp_path: Path,
) -> None:
    def body(plan: FaultPlan, workdir: Path) -> List[str]:
        journal = workdir / "journal.jsonl"
        run_supervised(
            _TINY, plan, workdir, journal=journal, gap_horizon=_GAP_HORIZON
        )
        # The meta line fingerprints the plan; everything after it is
        # the run itself.
        return strip_wall(journal.read_text(encoding="utf-8")).splitlines()[1:]

    clean = body(FaultPlan(), tmp_path / "clean")
    for event in synthetic_events(_TINY):
        plan = FaultPlan((EventDuplicate(time=event.time, seq=event.seq),))
        supervisor = _checked_run(plan, tmp_path / f"dup-{event.seq}")
        assert supervisor.service.events_processed == _TINY.events
        assert supervisor.service.dropped_events == 1
        assert body(plan, tmp_path / f"dup-journal-{event.seq}") == clean
