"""Graceful degradation: strategy fallback chain, lossy links, retries.

Three layers are exercised: the S³ strategy's declared fallback chain
(stale model → LLF, no candidates → strongest signal), the prototype
transport's :class:`FaultyLink` policy with its loss/delay/duplicate
windows and drop counters, and the station/AP timeout-retry ladders that
keep the handshake alive when frames or the controller disappear.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.selection import APState
from repro.faults import (
    ApDown,
    FaultPlan,
    FrameDelay,
    FrameDuplicate,
    FrameLoss,
)
from repro.obs.tracer import get_tracer
from repro.prototype.messages import AssocRequest, AssocResponse, ProbeRequest
from repro.prototype.station import Station
from repro.prototype.testbed import Testbed
from repro.prototype.transport import FaultyLink, LinkPolicy, MessageBus
from repro.sim.kernel import Simulator
from repro.trace.social import CampusLayout
from repro.wlan.strategies import LeastLoadedFirst, S3Strategy


def frame(n: int = 0) -> ProbeRequest:
    return ProbeRequest(src="sta:x", dst=f"ap:{n}", station_id="x")


def aps(*loads: float):
    return [
        APState(ap_id=f"ap-{i}", bandwidth=20e6, load=load)
        for i, load in enumerate(loads)
    ]


class BoomSelector:
    """A selector whose every decision raises."""

    #: No social model, so a domain it decides in keeps no cost index.
    social = None

    def select(self, user_id, candidates):
        raise RuntimeError("boom")

    def assign_batch(self, user_ids, candidates):
        raise RuntimeError("boom")


class BatchBoomSelector:
    """A selector whose batch step raises while single decisions work."""

    def __init__(self, inner=None):
        self.inner = inner
        # The strategy declares the inner model, so each replay domain
        # keeps a live index over it.
        self.social = getattr(inner, "social", None)

    def select(self, user_id, candidates):
        if self.inner is None:
            return candidates[0].ap_id
        return self.inner.select(user_id, candidates)

    def cost_row(self, user_id, candidates):
        return self.inner.cost_row(user_id, candidates)

    def assign_batch(self, user_ids, candidates):
        raise RuntimeError("boom")


# ------------------------------------------------------------- S³ fallbacks


def test_s3_declares_its_fallback_chain():
    strategy = S3Strategy(BoomSelector())
    assert strategy.fallback_chain == ("s3", "llf", "rssi")
    assert strategy.name == "s3"


def test_stale_model_falls_back_to_llf_decisions():
    strategy = S3Strategy(BoomSelector(), model_max_age=10.0)
    strategy.observe_arrival("warm", "ap-0", 1e9)  # age the model out
    candidates = aps(5e6, 1e6, 3e6)
    choice = strategy.select("u1", candidates)
    assert choice == LeastLoadedFirst().select("u1", candidates)
    assert strategy.consume_degradation() == "fallback:llf:model-stale"
    assert strategy.consume_degradation() is None  # note is one-shot
    # Degraded batch mode declines so the engine runs the sequential path.
    assert strategy.assign_batch(["u1", "u2"], candidates) is None


def test_selector_error_falls_back_to_llf():
    strategy = S3Strategy(BoomSelector())
    candidates = aps(5e6, 1e6)
    assert strategy.select("u1", candidates) == "ap-1"
    assert strategy.consume_degradation() == "fallback:llf:selector-error"


def test_batch_error_notes_each_sequential_decision_once():
    strategy = S3Strategy(BatchBoomSelector())
    candidates = aps(5e6, 1e6)
    assert strategy.assign_batch(["u1", "u2"], candidates) is None
    for user in ("u1", "u2"):
        assert strategy.select(user, candidates) == "ap-0"  # S³, not LLF
        assert strategy.consume_degradation() == "fallback:s3:batch-error"
        assert strategy.consume_degradation() is None
        # One-shot: a second decision for the same user is undegraded.
        strategy.select(user, candidates)
        assert strategy.consume_degradation() is None
    # Users outside the failed batch, and leftovers once the next batch
    # starts, carry no note.
    assert strategy.assign_batch(["u3"], candidates) is None
    strategy.select("u4", candidates)
    assert strategy.consume_degradation() is None
    strategy.assign_batch(["u5"], [])
    strategy.select("u3", candidates)
    assert strategy.consume_degradation() is None


def test_batch_error_leaves_provenance_in_replay(tiny_workload, tiny_model):
    strategy = S3Strategy(BatchBoomSelector(tiny_model.selector()))
    tracer = obs.enable(reset=True)
    try:
        tiny_workload.replay_test(strategy)
        decisions = [
            r for r in tracer.records if type(r).__name__ == "DecisionRecord"
        ]
    finally:
        obs.disable()
        get_tracer().reset()
    assert decisions
    assert all(d.mode == "single" for d in decisions)
    assert {d.note for d in decisions} == {"fallback:s3:batch-error"}


def test_no_candidates_falls_back_to_strongest_signal():
    strategy = S3Strategy(BoomSelector())
    choice = strategy.select("u1", [], rssi={"ap-0": -70.0, "ap-1": -55.0})
    assert choice == "ap-1"
    assert strategy.consume_degradation() == "fallback:rssi:no-candidates"
    with pytest.raises(ValueError, match="no candidate"):
        strategy.select("u1", [])


def test_stale_s3_replays_identically_to_llf(tiny_workload, tiny_model):
    """The whole-run proof: a stale S³ *is* LLF, decision for decision."""
    stale = S3Strategy(tiny_model.selector(), model_max_age=60.0)
    stale.observe_arrival("warm", "ap", 1e15)
    s3_result = tiny_workload.replay_test(stale)
    llf_result = tiny_workload.replay_test(LeastLoadedFirst())
    assert s3_result.sessions == llf_result.sessions
    assert s3_result.events_processed == llf_result.events_processed


# ------------------------------------------------------------- FaultyLink


def test_faulty_link_windows_fire_inside_bounds_only():
    loss = FrameLoss(time=10.0, duration=10.0, probability=1.0)
    link = FaultyLink([loss], np.random.default_rng(0))
    assert link.decide(frame(), 9.9) == [0.0]
    assert link.decide(frame(), 10.0) == []  # window start is inclusive
    assert link.decide(frame(), 19.9) == []
    assert link.decide(frame(), 20.0) == [0.0]  # end is exclusive


def test_faulty_link_delay_and_duplicate_compose():
    events = [
        FrameDelay(time=0.0, duration=100.0, probability=1.0, delay=0.25),
        FrameDuplicate(time=0.0, duration=100.0, probability=1.0),
    ]
    link = FaultyLink(events, np.random.default_rng(0))
    assert link.decide(frame(), 50.0) == [0.25, 0.25]


def test_faulty_link_same_seed_same_verdicts():
    events = [FrameLoss(time=0.0, duration=100.0, probability=0.5)]
    one = FaultyLink(events, np.random.default_rng(7))
    two = FaultyLink(events, np.random.default_rng(7))
    verdicts_one = [one.decide(frame(i), float(i)) for i in range(50)]
    verdicts_two = [two.decide(frame(i), float(i)) for i in range(50)]
    assert verdicts_one == verdicts_two
    assert any(v == [] for v in verdicts_one)  # the window really drops
    assert any(v == [0.0] for v in verdicts_one)  # ... and really passes


def test_faulty_link_from_plan_takes_link_kinds_only():
    plan = FaultPlan(
        (
            ApDown(time=5.0, ap_id="ap-1"),
            FrameLoss(time=10.0, duration=5.0, probability=0.2),
        )
    )
    link = FaultyLink.from_plan(plan, np.random.default_rng(0))
    assert [e.kind for e in link.events] == ["frame-loss"]
    with pytest.raises(ValueError, match="not a link fault"):
        FaultyLink([ApDown(time=5.0, ap_id="ap-1")], np.random.default_rng(0))


# ------------------------------------------------------------- MessageBus


def test_bus_counts_unregistered_drop_instead_of_raising():
    """Regression: a station leaving between send and delivery is a
    counted race, not a KeyError out of the event loop."""
    sim = Simulator()
    bus = MessageBus(sim)
    received = []
    bus.register("ap:0", received.append)
    bus.send(frame())
    bus.unregister("ap:0")
    sim.run(until=1.0)
    assert received == []
    assert bus.drops_unregistered == 1
    assert bus.frames_delivered == 0


def test_bus_unknown_destination_policy():
    sim = Simulator()
    strict = MessageBus(sim)
    with pytest.raises(KeyError, match="no endpoint"):
        strict.send(frame())
    lossy = MessageBus(
        sim, link_policy=FaultyLink([], np.random.default_rng(0))
    )
    lossy.send(frame())
    assert lossy.drops_unknown_destination == 1


def test_bus_counters_for_drop_delay_duplicate():
    sim = Simulator()
    events = [
        FrameDelay(time=0.0, duration=10.0, probability=1.0, delay=0.5),
        FrameDuplicate(time=20.0, duration=10.0, probability=1.0),
        FrameLoss(time=40.0, duration=10.0, probability=1.0),
    ]
    bus = MessageBus(
        sim, link_policy=FaultyLink(events, np.random.default_rng(0))
    )
    arrivals = []
    bus.register("ap:0", lambda f: arrivals.append(sim.now))
    sim.schedule(1.0, lambda: bus.send(frame()), name="in-delay-window")
    sim.schedule(25.0, lambda: bus.send(frame()), name="in-dup-window")
    sim.schedule(45.0, lambda: bus.send(frame()), name="in-loss-window")
    sim.run(until=60.0)
    assert bus.frames_delayed == 1
    assert bus.frames_duplicated == 1
    assert bus.frames_dropped == 1
    assert bus.frames_delivered == 3  # delayed copy + two duplicate copies
    assert arrivals[0] == pytest.approx(1.0 + bus.latency + 0.5)
    assert arrivals[1] == arrivals[2] == pytest.approx(25.0 + bus.latency)


# ----------------------------------------------- station/AP retry ladders


def test_ap_answers_locally_when_controller_is_gone():
    layout = CampusLayout.grid(1, 2)
    testbed = Testbed(layout, "B00", LeastLoadedFirst())
    testbed.bus.unregister(testbed.controller.endpoint)
    testbed.add_station("u1", np.random.default_rng(3))
    testbed.join_at("u1", 1.0)
    testbed.run(until=30.0)
    station = testbed.stations["u1"]
    assert station.associated_ap is not None
    assert station.log.count("associated:") == 1
    # One AP ran the full ladder: initial query + 2 retries, then local.
    assert sum(ap.local_fallbacks for ap in testbed.aps) == 1
    assert sum(ap.query_retries for ap in testbed.aps) == 2
    assert sum(ap.controller_unreachable for ap in testbed.aps) == 3
    # Strongest signal won: the station joined the AP it probed strongest.
    strongest = max(
        station.rssi.items(), key=lambda item: (item[1], item[0])
    )[0]
    assert station.associated_ap == strongest


class DropFirstAssoc(LinkPolicy):
    """Deterministically eat the first association request only."""

    def __init__(self) -> None:
        self.eaten = False

    def decide(self, frm, now):
        if isinstance(frm, AssocRequest) and not self.eaten:
            self.eaten = True
            return []
        return [0.0]


def test_station_resends_assoc_after_timeout():
    layout = CampusLayout.grid(1, 2)
    testbed = Testbed(layout, "B00", LeastLoadedFirst(),
                      link_policy=DropFirstAssoc())
    testbed.add_station("u1", np.random.default_rng(3))
    testbed.join_at("u1", 1.0)
    testbed.run(until=30.0)
    station = testbed.stations["u1"]
    assert station.assoc_retries == 1
    assert station.log.count("assoc-resend:") == 1
    assert station.associated_ap is not None


class LoseFirstAccept(LinkPolicy):
    """Eat the first accepting association response only."""

    def __init__(self) -> None:
        self.eaten = False

    def decide(self, frm, now):
        if isinstance(frm, AssocResponse) and frm.accepted and not self.eaten:
            self.eaten = True
            return []
        return [0.0]


class LateDuplicateAssoc(LinkPolicy):
    """Deliver the first association request twice, the copy 1 s late."""

    def __init__(self) -> None:
        self.copied = False

    def decide(self, frm, now):
        if isinstance(frm, AssocRequest) and not self.copied:
            self.copied = True
            return [0.0, 1.0]
        return [0.0]


@pytest.mark.parametrize("link", [LoseFirstAccept, LateDuplicateAssoc])
def test_reassociation_moves_the_station(link):
    # The first AP seats the station, then the controller's LLF steers its
    # repeated request to the other, empty AP: the seat moves there.
    layout = CampusLayout.grid(1, 2)
    testbed = Testbed(layout, "B00", LeastLoadedFirst(), link_policy=link())
    testbed.add_station("u1", np.random.default_rng(3))
    testbed.join_at("u1", 1.0)
    testbed.run(until=30.0)
    station = testbed.stations["u1"]
    assert station.log.count("redirected:") == 1
    assert station.associated_ap is not None
    seated = {ap: n for ap, n in testbed.association_counts().items() if n}
    assert seated == {station.associated_ap: 1}
    assert testbed.controller.runtime.find_user("u1") == station.associated_ap


def test_station_gives_up_after_retry_budget():
    sim = Simulator()
    bus = MessageBus(sim)
    layout = CampusLayout.grid(1, 1)
    ap_info = layout.aps["ap-B00-00"]
    station = Station(
        "u1", (0.0, 0.0), [ap_info], bus,
        assoc_timeout=1.0, max_assoc_retries=2,
    )
    station.rssi = {ap_info.ap_id: -50.0}
    # Drive _send_assoc directly against an AP that never answers.
    bus.register("ap:ap-B00-00", lambda f: None)
    sim.schedule(0.0, lambda: station._send_assoc(ap_info.ap_id))
    sim.run(until=60.0)
    # Backoff ladder: 1s, 2s, 4s — then a terminal failure, no retries left.
    assert station.assoc_retries == 2
    assert station.log.count("assoc-resend:") == 2
    assert station.log.last() == "association-failed"
    assert station.associated_ap is None


# ------------------------------------------------------------ determinism


def degraded_prototype_run():
    """One lossy-link prototype scenario; returns its full observable state."""
    layout = CampusLayout.grid(1, 3)
    plan = FaultPlan(
        (
            FrameLoss(time=0.0, duration=40.0, probability=0.3),
            FrameDelay(time=40.0, duration=40.0, probability=0.5, delay=0.2),
        )
    )
    link = FaultyLink.from_plan(plan, np.random.default_rng(11))
    testbed = Testbed(layout, "B00", LeastLoadedFirst(), link_policy=link)
    positions = np.random.default_rng(3)
    for i in range(6):
        testbed.add_station(f"u{i}", positions)
        testbed.join_at(f"u{i}", 1.0 + 10.0 * i)
    testbed.run(until=120.0)
    logs = {
        station_id: list(station.log.events)
        for station_id, station in sorted(testbed.stations.items())
    }
    counters = (
        testbed.bus.frames_delivered,
        testbed.bus.frames_dropped,
        testbed.bus.frames_delayed,
        testbed.bus.frames_duplicated,
        testbed.bus.drops_unregistered,
    )
    return logs, counters, testbed.association_counts()


def test_degraded_prototype_is_seed_deterministic():
    first = degraded_prototype_run()
    second = degraded_prototype_run()
    assert first == second
    _, counters, _ = first
    assert counters[1] > 0  # the loss window really dropped frames
