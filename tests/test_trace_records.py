"""Unit and property tests for trace records and TraceBundle."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.trace.records import (
    DemandSession,
    FlowRecord,
    SessionRecord,
    TraceBundle,
    demand_rows,
    session_rows,
)


def make_session(user="u1", ap="ap1", ctrl="c1", t0=0.0, t1=100.0, size=1000.0):
    return SessionRecord(user, ap, ctrl, t0, t1, size)


def make_flow(user="u1", t0=0.0, t1=10.0, dport=80, proto="tcp", size=500.0):
    return FlowRecord(user, t0, t1, "10.0.0.1", "1.2.3.4", proto, 40000, dport, size)


def make_demand(user="u1", building="B00", t0=0.0, t1=100.0, volume=600.0):
    return DemandSession(user, building, t0, t1, tuple([volume / 6] * 6))


class TestSessionRecord:
    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            make_session(t0=10.0, t1=5.0)

    def test_rejects_negative_traffic(self):
        with pytest.raises(ValueError):
            make_session(size=-1.0)

    def test_mean_rate(self):
        session = make_session(t0=0.0, t1=100.0, size=1000.0)
        assert session.mean_rate == pytest.approx(10.0)

    def test_mean_rate_of_zero_length_session(self):
        assert make_session(t0=5.0, t1=5.0, size=0.0).mean_rate == 0.0

    def test_overlap(self):
        session = make_session(t0=10.0, t1=20.0)
        assert session.overlap(0.0, 15.0) == 5.0
        assert session.overlap(12.0, 18.0) == 6.0
        assert session.overlap(25.0, 30.0) == 0.0

    def test_bytes_in_is_proportional(self):
        session = make_session(t0=0.0, t1=100.0, size=1000.0)
        assert session.bytes_in(0.0, 50.0) == pytest.approx(500.0)
        assert session.bytes_in(0.0, 100.0) == pytest.approx(1000.0)

    @given(
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
    )
    def test_bytes_in_never_exceeds_total(self, lo, hi):
        session = make_session(t0=20.0, t1=80.0, size=600.0)
        if hi <= lo:
            return
        assert 0.0 <= session.bytes_in(lo, hi) <= 600.0 + 1e-9


class TestFlowRecord:
    def test_rejects_bad_protocol(self):
        with pytest.raises(ValueError):
            make_flow(proto="icmp")

    def test_rejects_port_out_of_range(self):
        with pytest.raises(ValueError):
            make_flow(dport=0)
        with pytest.raises(ValueError):
            make_flow(dport=70000)

    def test_rejects_backwards_time(self):
        with pytest.raises(ValueError):
            make_flow(t0=5.0, t1=1.0)


class TestDemandSession:
    def test_rejects_wrong_realm_count(self):
        with pytest.raises(ValueError):
            DemandSession("u", "B", 0.0, 1.0, (1.0, 2.0))

    def test_rejects_negative_volume(self):
        with pytest.raises(ValueError):
            DemandSession("u", "B", 0.0, 1.0, (1.0, -1.0, 0, 0, 0, 0))

    def test_rejects_nan_departure(self):
        with pytest.raises(ValueError, match="departs at nan"):
            DemandSession("u", "B", 0.0, float("nan"), (1.0,) * 6)

    def test_rejects_nan_volume(self):
        with pytest.raises(ValueError, match="NaN realm volume"):
            DemandSession("u", "B", 0.0, 1.0, (1.0, float("nan"), 0, 0, 0, 0))

    def test_totals(self):
        demand = make_demand(volume=600.0)
        assert demand.bytes_total == pytest.approx(600.0)
        assert demand.mean_rate == pytest.approx(6.0)
        assert demand.realm_vector().sum() == pytest.approx(600.0)


_TIME = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0), st.just(float("nan"))
)
_VOLUME = st.one_of(
    st.just(0.0),
    st.floats(min_value=-1.0, max_value=1e9),
    st.just(float("nan")),
)


class TestDemandRows:
    """``demand_rows`` is one checked ``DemandSession(...)`` per row."""

    @staticmethod
    def _one_by_one(rows):
        try:
            return [DemandSession(*row) for row in rows]
        except ValueError:
            return ValueError

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["u1", "u2"]),
                st.sampled_from(["B00", "B01"]),
                _TIME,
                _TIME,
                st.tuples(*[_VOLUME] * 6),
                st.sampled_from([None, "g1"]),
            ),
            max_size=6,
        )
    )
    def test_equal_records_and_equal_rejections(self, rows):
        expected = self._one_by_one(rows)
        columns = list(zip(*rows)) or [(), (), (), (), (), ()]
        users, buildings, arrivals, departures, volumes, groups = columns

        def call():
            return demand_rows(
                users,
                buildings,
                np.array(arrivals, dtype=float),
                np.array(departures, dtype=float),
                np.array(volumes, dtype=float).reshape(len(rows), 6),
                groups,
            )

        if expected is ValueError:
            with pytest.raises(ValueError):
                call()
            return
        built = call()
        assert built == expected
        assert [pickle.dumps(r) for r in built] == [pickle.dumps(r) for r in expected]
        assert all(type(r.arrival) is float for r in built)

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="lengths"):
            demand_rows(["u"], [], np.zeros(1), np.ones(1), np.zeros((1, 6)), [None])
        with pytest.raises(ValueError, match="realm volumes"):
            demand_rows(["u"], ["B"], np.zeros(1), np.ones(1), np.zeros((1, 5)), [None])


class TestSessionRows:
    """``session_rows`` is one checked ``SessionRecord(*row)`` per row."""

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["u1", "u2"]),
                st.sampled_from(["ap1", "ap2"]),
                st.just("c1"),
                _TIME,
                _TIME,
                _VOLUME,
            ),
            max_size=6,
        )
    )
    def test_equal_records_and_equal_rejections(self, rows):
        try:
            expected = [SessionRecord(*row) for row in rows]
        except ValueError as error:
            with pytest.raises(ValueError, match=str(error).split(" at ")[0]):
                session_rows(rows)
            return
        built = session_rows(rows)
        assert built == expected
        assert [pickle.dumps(r) for r in built] == [pickle.dumps(r) for r in expected]


class TestTraceBundle:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.sampled_from(["ap1", "ap2"]),
                st.sampled_from([0.0, 1.0, 2.5, 7.0]),
            ),
            max_size=12,
        ),
        presorted=st.booleans(),
    )
    def test_records_take_the_key_order_sorted_gives(self, rows, presorted):
        # Ties in the leading time are common (equal arrivals): the order
        # check must fall back to the whole key there, and keep equal
        # keys in their given order, as the stable sort does.
        sessions = [make_session(u, ap, t0=t, t1=t + 1.0) for u, ap, t in rows]
        demands = [make_demand(u, ap, t0=t, t1=t + 1.0) for u, ap, t in rows]
        if presorted:
            sessions.sort(key=lambda r: (r.connect, r.user_id, r.ap_id))
            demands.sort(key=lambda r: (r.arrival, r.user_id))
        bundle = TraceBundle(sessions=iter(sessions), demands=iter(demands))
        expected_sessions = sorted(
            sessions, key=lambda r: (r.connect, r.user_id, r.ap_id)
        )
        expected_demands = sorted(demands, key=lambda r: (r.arrival, r.user_id))
        assert [id(r) for r in bundle.sessions] == [id(r) for r in expected_sessions]
        assert [id(r) for r in bundle.demands] == [id(r) for r in expected_demands]

    def test_sessions_sorted_by_connect(self):
        bundle = TraceBundle(
            sessions=[make_session(t0=50.0, t1=60.0), make_session(t0=1.0, t1=2.0)]
        )
        assert bundle.sessions[0].connect == 1.0

    def test_user_ids_unions_all_families(self):
        bundle = TraceBundle(
            sessions=[make_session(user="a")],
            flows=[make_flow(user="b")],
            demands=[make_demand(user="c")],
        )
        assert bundle.user_ids == ["a", "b", "c"]

    def test_indices_group_correctly(self):
        bundle = TraceBundle(
            sessions=[make_session(user="a"), make_session(user="b"), make_session(user="a", t0=200.0, t1=300.0)]
        )
        by_user = bundle.sessions_by_user()
        assert len(by_user["a"]) == 2
        assert len(by_user["b"]) == 1
        assert set(bundle.sessions_by_ap()) == {"ap1"}

    def test_sessions_in_window(self):
        bundle = TraceBundle(
            sessions=[
                make_session(t0=0.0, t1=10.0),
                make_session(t0=20.0, t1=30.0),
            ]
        )
        assert len(bundle.sessions_in(5.0, 15.0)) == 1
        assert len(bundle.sessions_in(0.0, 100.0)) == 2
        assert len(bundle.sessions_in(10.0, 20.0)) == 0  # half-open edges

    def test_restrict_filters_all_families(self):
        bundle = TraceBundle(
            sessions=[make_session(t0=0.0, t1=10.0), make_session(t0=50.0, t1=70.0)],
            flows=[make_flow(t0=1.0, t1=2.0), make_flow(t0=60.0, t1=61.0)],
            demands=[make_demand(t0=0.0, t1=5.0), make_demand(t0=55.0, t1=65.0)],
        )
        early = bundle.restrict(0.0, 20.0)
        assert len(early.sessions) == 1
        assert len(early.flows) == 1
        assert len(early.demands) == 1

    def test_merged_with(self):
        a = TraceBundle(sessions=[make_session(user="a")])
        b = TraceBundle(sessions=[make_session(user="b")])
        merged = a.merged_with(b)
        assert len(merged) == 2
        assert len(a) == 1  # originals untouched

    def test_repr_mentions_counts(self):
        bundle = TraceBundle(sessions=[make_session()])
        assert "sessions=1" in repr(bundle)
