"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import Event, EventQueue, SimulationError, Simulator


class TestEventQueue:
    def test_pop_returns_events_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.push(3.0, lambda: fired.append("c"))
        queue.push(1.0, lambda: fired.append("a"))
        queue.push(2.0, lambda: fired.append("b"))
        for _ in range(3):
            queue.pop().action()
        assert fired == ["a", "b", "c"]

    def test_equal_time_orders_by_priority_then_insertion(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, lambda: order.append("late"), priority=5)
        queue.push(1.0, lambda: order.append("first"), priority=0)
        queue.push(1.0, lambda: order.append("second"), priority=0)
        for _ in range(3):
            queue.pop().action()
        assert order == ["first", "second", "late"]

    def test_len_counts_only_live_events(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        event.cancel()
        assert len(queue) == 1

    def test_pop_skips_cancelled_events(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None, name="doomed")
        queue.push(2.0, lambda: None, name="kept")
        first.cancel()
        assert queue.pop().name == "kept"

    def test_pop_empty_raises(self):
        queue = EventQueue()
        with pytest.raises(SimulationError):
            queue.pop()

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        first.cancel()
        assert queue.peek_time() == 5.0

    def test_peek_time_empty_returns_none(self):
        assert EventQueue().peek_time() is None

    def test_double_cancel_raises(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        event.cancel()
        with pytest.raises(SimulationError):
            event.cancel()


class TestSimulator:
    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.schedule(10.0, lambda: seen.append(sim.now))
        sim.run_until_empty()
        assert seen == [5.0, 10.0]
        assert sim.now == 10.0

    def test_run_until_advances_clock_to_horizon(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        final = sim.run(until=100.0)
        assert final == 100.0
        assert sim.now == 100.0

    def test_run_until_leaves_future_events_pending(self):
        sim = Simulator()
        fired = []
        sim.schedule(50.0, lambda: fired.append(1))
        sim.run(until=10.0)
        assert fired == []
        assert sim.pending == 1

    def test_schedule_in_past_raises(self):
        sim = Simulator(start_time=100.0)
        with pytest.raises(SimulationError):
            sim.schedule(50.0, lambda: None)

    def test_schedule_after_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_after(-1.0, lambda: None)

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if sim.now < 3.0:
                sim.schedule_after(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run_until_empty()
        assert fired == [1.0, 2.0, 3.0]

    def test_every_fires_periodically_until_stopped(self):
        sim = Simulator()
        ticks = []
        stop = sim.every(10.0, lambda: ticks.append(sim.now), start=10.0)
        sim.run(until=35.0)
        stop()
        sim.schedule(50.0, lambda: None)
        sim.run(until=60.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_every_rejects_non_positive_interval(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda: None)

    def test_stop_exits_run_loop(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run_until_empty()
        assert fired == [1]
        assert sim.pending == 1

    def test_reentrant_run_raises(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, reenter)
        sim.run_until_empty()
        assert len(errors) == 1

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        sim.run_until_empty()
        assert sim.events_processed == 3

    def test_priority_orders_simultaneous_events(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("arrival"), priority=1)
        sim.schedule(1.0, lambda: order.append("departure"), priority=0)
        sim.run_until_empty()
        assert order == ["departure", "arrival"]


def _mixed_schedule(one_shot):
    """One-shot, handle and periodic events interleaved at shared instants,
    with a timer cancelled mid-run and periodic schedules stopped from
    outside and from inside their own tick."""
    sim = Simulator()
    log = []

    def note(tag):
        return lambda: log.append((sim.now, tag))

    stop_a = sim.every(10.0, note("tick-a"), start=0.0, priority=3)
    stop_b = sim.every(15.0, note("tick-b"), start=5.0, priority=0)
    stoppers = {}

    def tick_c():
        log.append((sim.now, "tick-c"))
        if sim.now >= 20.0:
            stoppers["c"]()

    stoppers["c"] = sim.every(7.0, tick_c, start=6.0, priority=2)
    for t in (0.0, 5.0, 10.0, 10.0, 20.0, 30.0, 45.0):
        one_shot(sim, t, note(f"shot-{t}-p1"), 1)
        one_shot(sim, t, note(f"shot-{t}-p3"), 3)
        one_shot(sim, t, note(f"shot-{t}-p0"), 0)
    timer = sim.schedule_after(25.0, note("timer"))
    sim.schedule(35.0, note("timer2"), priority=-1)
    sim.schedule(12.0, timer.cancel)
    sim.schedule(31.0, stop_b)
    counts = []
    sim.run(until=40.0)
    counts.append((sim.now, sim.events_processed, sim.pending))
    stop_a()
    counts.append((sim.now, sim.events_processed, sim.pending))
    sim.run(until=60.0)
    counts.append((sim.now, sim.events_processed, sim.pending))
    return log, counts


#: What the mixed schedule fired, and (now, events_processed, pending)
#: after each step, as recorded when every event still carried an
#: ``Event`` handle.  ``tick-c`` stops itself at t=20; its t=27 tick
#: still fires as a counted no-op.
_MIXED_LOG = [
    (0.0, "shot-0.0-p0"), (0.0, "shot-0.0-p1"), (0.0, "tick-a"),
    (0.0, "shot-0.0-p3"), (5.0, "tick-b"), (5.0, "shot-5.0-p0"),
    (5.0, "shot-5.0-p1"), (5.0, "shot-5.0-p3"), (6.0, "tick-c"),
    (10.0, "shot-10.0-p0"), (10.0, "shot-10.0-p0"), (10.0, "shot-10.0-p1"),
    (10.0, "shot-10.0-p1"), (10.0, "shot-10.0-p3"), (10.0, "shot-10.0-p3"),
    (10.0, "tick-a"), (13.0, "tick-c"), (20.0, "shot-20.0-p0"),
    (20.0, "tick-b"), (20.0, "shot-20.0-p1"), (20.0, "tick-c"),
    (20.0, "shot-20.0-p3"), (20.0, "tick-a"), (30.0, "shot-30.0-p0"),
    (30.0, "shot-30.0-p1"), (30.0, "shot-30.0-p3"), (30.0, "tick-a"),
    (35.0, "timer2"), (40.0, "tick-a"), (45.0, "shot-45.0-p0"),
    (45.0, "shot-45.0-p1"), (45.0, "shot-45.0-p3"),
]
_MIXED_COUNTS = [(40.0, 32, 4), (40.0, 32, 3), (60.0, 35, 0)]


class TestOneShotsAndHandles:
    def test_mixed_schedule_keeps_order_and_counts_with_post(self):
        log, counts = _mixed_schedule(lambda sim, t, f, p: sim.post(t, f, p))
        assert log == _MIXED_LOG
        assert counts == _MIXED_COUNTS

    def test_mixed_schedule_keeps_order_and_counts_with_handles(self):
        log, counts = _mixed_schedule(
            lambda sim, t, f, p: sim.schedule(t, f, priority=p)
        )
        assert log == _MIXED_LOG
        assert counts == _MIXED_COUNTS

    def test_same_instant_one_shots_periodics_and_handles_fire_by_priority_then_seq(self):
        sim = Simulator()
        order = []
        sim.post(5.0, lambda: order.append("post-p1"), 1)
        sim.schedule(5.0, lambda: order.append("handle-p1"), priority=1)
        sim.every(5.0, lambda: order.append("tick-p1"), start=5.0, priority=1)
        sim.post(5.0, lambda: order.append("post-p0"), 0)
        sim.every(5.0, lambda: order.append("tick-p0"), start=5.0, priority=0)
        sim.run(until=5.0)
        assert order == ["post-p0", "tick-p0", "post-p1", "handle-p1", "tick-p1"]

    def test_stopping_every_cancels_its_queued_tick(self):
        sim = Simulator()
        ticks = []
        stop = sim.every(10.0, lambda: ticks.append(sim.now), start=0.0)
        sim.run(until=15.0)
        assert sim.pending == 1
        stop()
        assert sim.pending == 0
        stop()  # a second stop is a no-op
        sim.run(until=100.0)
        assert ticks == [0.0, 10.0]
        assert sim.events_processed == 2

    def test_cancelled_timer_neither_fires_nor_counts(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule_after(5.0, lambda: fired.append("timer"), name="t")
        sim.post(1.0, lambda: None)
        assert sim.pending == 2
        timer.cancel()
        assert sim.pending == 1
        sim.run_until_empty()
        assert fired == []
        assert sim.events_processed == 1
        with pytest.raises(SimulationError):
            timer.cancel()

    def test_cancelling_a_fired_timer_leaves_pending_alone(self):
        sim = Simulator()
        timer = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        timer.cancel()
        assert sim.pending == 1
        sim.run_until_empty()
        assert sim.events_processed == 2

    def test_post_into_the_past_raises(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.post(5.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.every(1.0, lambda: None, start=5.0)

    def test_queue_pops_and_iterates_one_shots_as_events(self):
        queue = EventQueue()
        fired = []
        queue.post(2.0, lambda: fired.append("post"), priority=1)
        handle = queue.push(1.0, lambda: fired.append("handle"), name="h")
        seq = queue.post(3.0, lambda: fired.append("withdrawn"))
        queue.cancel(seq)
        assert len(queue) == 2
        assert sorted(event.time for event in queue) == [1.0, 2.0]
        first = queue.pop()
        assert first is handle
        second = queue.pop()
        assert isinstance(second, Event)
        assert (second.time, second.priority) == (2.0, 1)
        first.action()
        second.action()
        assert fired == ["handle", "post"]
        assert queue.peek_time() is None
        assert len(queue) == 0
