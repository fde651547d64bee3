"""The replay engine's change-gated polls and samples against ungated ones.

:class:`repro.wlan.replay.ChangeTracker` skips the load poll of a
controller whose associations and measurements did not move since its
last poll, and has the metrics collector repeat such a controller's
previous sample rows.  The oracle runs one random sequence of
associate, disassociate, poll, lost (stale) poll, prototype-style
``record_measurement`` and sample on two copies of a campus: one gated,
one polled with ``refresh_measurements`` and sampled with fresh rows
every time.  After every step the measured loads and snapshots must be
equal in value *and* type (an idle AP's load is the int ``0``, its
never-polled measurement the float ``0.0``), and so must every sample
row at the end.
"""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import example, given, settings, strategies as st

from repro.trace.social import CampusLayout
from repro.wlan.entities import CampusRuntime
from repro.wlan.metrics import MetricsCollector
from repro.wlan.replay import ChangeTracker

LAYOUT = CampusLayout.grid(2, 3)
CONTROLLERS = sorted(LAYOUT.controller_ids)
USERS = [f"u{i}" for i in range(6)]

_RATE = st.one_of(
    st.just(0.0), st.floats(min_value=0.0, max_value=5e6, allow_nan=False)
)
_OP = st.one_of(
    st.tuples(st.just("associate"), st.sampled_from(USERS), st.integers(0, 5), _RATE),
    st.tuples(st.just("disassociate"), st.sampled_from(USERS)),
    st.tuples(st.just("poll")),
    st.tuples(st.just("stale"), st.sampled_from(CONTROLLERS)),
    st.tuples(st.just("measure"), st.integers(0, 5), _RATE),
    st.tuples(st.just("sample")),
)


def _typed(values: List[float]) -> List[Tuple[type, float]]:
    return [(type(v), v) for v in values]


def _measured(campus: CampusRuntime) -> List[Tuple[type, float]]:
    return _typed(
        [
            ap.measured_load
            for controller_id in CONTROLLERS
            for ap in campus.controllers[controller_id].ranked
        ]
    )


def _snapshots(campus: CampusRuntime) -> list:
    return [
        (state, type(state.load))
        for controller_id in CONTROLLERS
        for state in campus.controllers[controller_id].snapshots()
    ]


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(_OP, max_size=60))
@example(ops=[("poll",), ("sample",)])
@example(
    ops=[
        ("associate", "u0", 0, 2.5),
        ("poll",),
        ("sample",),
        ("disassociate", "u0"),
        ("poll",),
        ("sample",),
        ("poll",),
        ("sample",),
    ]
)
@example(
    ops=[
        ("associate", "u0", 0, 1.0),
        ("stale", "ctrl-B00"),
        ("poll",),
        ("sample",),
        ("poll",),
        ("measure", 1, 0.0),
        ("poll",),
    ]
)
def test_gated_polls_and_samples_equal_ungated(ops: list) -> None:
    gated, plain = CampusRuntime(LAYOUT), CampusRuntime(LAYOUT)
    changes = ChangeTracker(CONTROLLERS)
    gated_rows, plain_rows = MetricsCollector(), MetricsCollector()
    ap_ids = sorted(LAYOUT.aps)
    stale: set = set()
    for op in ops:
        kind = op[0]
        if kind == "associate":
            _, user, ap_index, rate = op
            if any(c.find_user(user) for c in gated.controllers.values()):
                continue
            ap_id = ap_ids[ap_index]
            for campus in (gated, plain):
                campus.ap(ap_id).associate(user, rate)
            changes.mark(LAYOUT.controller_of_ap(ap_id))
        elif kind == "disassociate":
            for controller_id in CONTROLLERS:
                if gated.controllers[controller_id].find_user(op[1]) is None:
                    continue
                for campus in (gated, plain):
                    campus.controllers[controller_id].leave(op[1])
                changes.mark(controller_id)
        elif kind == "stale":
            stale.add(op[1])
        elif kind == "poll":
            for controller_id in CONTROLLERS:
                if controller_id in stale:
                    stale.discard(controller_id)
                    continue
                changes.poll(gated.controllers[controller_id])
                plain.controllers[controller_id].refresh_measurements()
        elif kind == "measure":
            _, ap_index, load = op
            ap_id = ap_ids[ap_index]
            for campus in (gated, plain):
                campus.ap(ap_id).record_measurement(load)
            changes.mark(LAYOUT.controller_of_ap(ap_id))
        else:
            changes.sample(gated_rows, 0.0, gated)
            plain_rows.sample(0.0, plain)
        assert _measured(gated) == _measured(plain)
        assert _snapshots(gated) == _snapshots(plain)
    for controller_id in CONTROLLERS:
        for rows in ("_loads", "_counts"):
            got = getattr(gated_rows, rows).get(controller_id, [])
            want = getattr(plain_rows, rows).get(controller_id, [])
            assert [_typed(row) for row in got] == [_typed(row) for row in want]
    gated_series, plain_series = gated_rows.series(), plain_rows.series()
    assert sorted(gated_series) == sorted(plain_series)
    for controller_id, series in plain_series.items():
        other = gated_series[controller_id]
        assert other.loads.tobytes() == series.loads.tobytes()
        assert other.user_counts.tobytes() == series.user_counts.tobytes()


def test_first_poll_of_an_idle_controller_records_the_int_zero() -> None:
    campus = CampusRuntime(LAYOUT)
    controller = campus.controllers[CONTROLLERS[0]]
    assert all(type(ap.measured_load) is float for ap in controller.ranked)
    ChangeTracker(CONTROLLERS).poll(controller)
    assert all(
        ap.measured_load == 0 and type(ap.measured_load) is int
        for ap in controller.ranked
    )


def test_unmarked_poll_and_sample_do_no_work() -> None:
    campus = CampusRuntime(LAYOUT)
    changes = ChangeTracker(CONTROLLERS)
    collector = MetricsCollector()
    controller = campus.controllers[CONTROLLERS[0]]
    changes.poll(controller)
    changes.sample(collector, 0.0, campus)
    snapshot = controller.ranked[0].snapshot()
    changes.poll(controller)
    changes.sample(collector, 300.0, campus)
    # No refresh: the cached snapshot object survives.
    assert controller.ranked[0].snapshot() is snapshot
    loads = collector._loads[CONTROLLERS[0]]
    assert loads[1] is loads[0]
