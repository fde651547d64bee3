"""Unit and property tests for the balance index machinery."""

import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.balance import (
    ap_throughputs,
    ap_user_seconds,
    balance_index,
    balance_series,
    churn_filtered_sessions,
    normalized_balance_index,
    normalized_balance_rows,
    user_count_balance_series,
    variation_series,
)
from repro.sim.timeline import Timeline
from repro.trace.records import SessionRecord
from tests import balance_oracle


def make_session(user, ap, t0, t1, size):
    return SessionRecord(user, ap, "c1", t0, t1, size)


class TestBalanceIndex:
    def test_perfectly_even_is_one(self):
        assert balance_index([5.0, 5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_loaded_ap_gives_one_over_n(self):
        assert balance_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_is_balanced_by_convention(self):
        assert balance_index([0.0, 0.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            balance_index([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            balance_index([1.0, -1.0])

    def test_scale_invariance(self):
        loads = [1.0, 2.0, 3.0]
        assert balance_index(loads) == pytest.approx(
            balance_index([x * 1000 for x in loads])
        )

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    def test_bounds_property(self, loads):
        beta = balance_index(loads)
        assert 1.0 / len(loads) - 1e-9 <= beta <= 1.0 + 1e-9

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            min_size=2,
            max_size=20,
        )
    )
    def test_normalized_bounds_property(self, loads):
        value = normalized_balance_index(loads)
        assert -1e-9 <= value <= 1.0 + 1e-9

    def test_normalized_extremes(self):
        assert normalized_balance_index([7.0, 0.0, 0.0]) == pytest.approx(0.0)
        assert normalized_balance_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_single_ap_is_trivially_balanced(self):
        assert normalized_balance_index([42.0]) == 1.0

    def test_permutation_invariance(self):
        assert balance_index([1, 5, 9]) == pytest.approx(balance_index([9, 1, 5]))


def _bits(value):
    return struct.pack("<d", value)


def _outcome(index, loads):
    try:
        value = index(loads)
    except ValueError as error:
        return str(error)
    return "nan" if value != value else _bits(value)


#: Loads that stress the summation order: zeros, subnormals, values near
#: the top of the float range, and ordinary values whose sums round.
_EDGE_LOADS = (0.0, -0.0, 5e-324, 2.2e-310, 1e-300, 1e308, 1.7976931348623157e308)


def _mixed_loads(rng, n):
    loads = []
    for _ in range(n):
        pick = rng.random()
        if pick < 0.3:
            loads.append(rng.choice(_EDGE_LOADS))
        elif pick < 0.4:
            loads.append(rng.random() * 1e308)
        else:
            loads.append(rng.random() * 10.0 ** rng.randint(-3, 6))
    return loads


class TestScalarIsNumpyBitForBit:
    """The pure-Python scalar against numpy's (``tests/balance_oracle.py``)."""

    def test_every_length_up_to_600(self):
        # Below 8 (a plain loop), 8..128 (eight accumulators) and above
        # (the recursive halving), with the split points in between.
        rng = random.Random(600)
        for n in range(1, 601):
            for _ in range(3):
                loads = _mixed_loads(rng, n)
                assert _bits(balance_index(loads)) == _bits(
                    balance_oracle.balance_index(loads)
                ), n
                assert _bits(normalized_balance_index(loads)) == _bits(
                    balance_oracle.normalized_balance_index(loads)
                ), n

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(_EDGE_LOADS + (-1.0, float("nan"), float("inf"))),
                st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                st.floats(0.0, 1.0),
            ),
            min_size=1,
            max_size=300,
        )
    )
    def test_any_vector_matches_numpy(self, loads):
        # NaN, infinities and negative loads included: a negative raises
        # in both, a NaN anywhere is NaN in both.
        assert _outcome(balance_index, loads) == _outcome(
            balance_oracle.balance_index, loads
        )
        assert _outcome(normalized_balance_index, loads) == _outcome(
            balance_oracle.normalized_balance_index, loads
        )


@st.composite
def load_matrices(draw):
    """(T, n) load matrices: idle rows, single-AP widths, 1e-300..1e300."""
    width = draw(st.integers(1, 40))
    rows = draw(st.integers(1, 8))
    matrix = np.zeros((rows, width))
    for r in range(rows):
        if draw(st.booleans()):
            continue  # an idle sample
        scale = 10.0 ** draw(st.integers(-300, 300))
        fractions = draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                min_size=width,
                max_size=width,
            )
        )
        matrix[r] = np.asarray(fractions) * scale
    return matrix


class TestBalanceRows:
    @settings(max_examples=300, deadline=None)
    @given(load_matrices())
    def test_every_row_is_the_scalar_byte_for_byte(self, matrix):
        expected = np.array([normalized_balance_index(row) for row in matrix])
        assert normalized_balance_rows(matrix).tobytes() == expected.tobytes()

    def test_idle_rows_and_single_ap_domains_give_one(self):
        assert normalized_balance_rows(np.zeros((3, 4))).tolist() == [1.0] * 3
        single = np.array([[0.0], [5.0], [1e300]])
        assert normalized_balance_rows(single).tolist() == [1.0] * 3

    def test_no_rows_give_an_empty_series(self):
        out = normalized_balance_rows(np.zeros((0, 3)))
        assert out.shape == (0,) and out.dtype == np.float64

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            normalized_balance_rows(np.array([[1.0, 2.0], [3.0, -1.0]]))

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            normalized_balance_rows(np.zeros((2, 0)))

    def test_a_single_vector_is_not_a_matrix(self):
        with pytest.raises(ValueError, match="matrix"):
            normalized_balance_rows(np.array([1.0, 2.0]))


class TestThroughputs:
    def test_uniform_attribution(self):
        sessions = [make_session("u1", "ap1", 0.0, 100.0, 1000.0)]
        loads = ap_throughputs(sessions, ["ap1", "ap2"], 0.0, 50.0)
        assert loads["ap1"] == pytest.approx(10.0)  # 500 bytes over 50 s
        assert loads["ap2"] == 0.0

    def test_idle_aps_present_in_result(self):
        loads = ap_throughputs([], ["ap1", "ap2"], 0.0, 10.0)
        assert loads == {"ap1": 0.0, "ap2": 0.0}

    def test_sessions_on_unknown_aps_ignored(self):
        sessions = [make_session("u1", "other", 0.0, 10.0, 100.0)]
        loads = ap_throughputs(sessions, ["ap1"], 0.0, 10.0)
        assert loads["ap1"] == 0.0

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            ap_throughputs([], ["ap1"], 5.0, 5.0)

    def test_user_seconds(self):
        sessions = [
            make_session("u1", "ap1", 0.0, 100.0, 0.0),
            make_session("u2", "ap1", 50.0, 150.0, 0.0),
        ]
        seconds = ap_user_seconds(sessions, ["ap1"], 0.0, 100.0)
        assert seconds["ap1"] == pytest.approx(150.0)


class TestSeries:
    def test_balance_series_window_count(self):
        sessions = [make_session("u1", "ap1", 0.0, 100.0, 1000.0)]
        times, betas = balance_series(sessions, ["ap1", "ap2"], Timeline(0, 100), 25.0)
        assert len(times) == 4
        assert np.all(betas == pytest.approx(0.0))  # one AP loaded of two

    def test_user_count_series(self):
        sessions = [
            make_session("u1", "ap1", 0.0, 100.0, 0.0),
            make_session("u2", "ap2", 0.0, 100.0, 0.0),
        ]
        _, betas = user_count_balance_series(
            sessions, ["ap1", "ap2"], Timeline(0, 100), 50.0
        )
        assert np.all(betas == pytest.approx(1.0))

    def test_idle_windows_score_one(self):
        sessions = [make_session("u1", "ap1", 0.0, 10.0, 100.0)]
        _, betas = balance_series(sessions, ["ap1", "ap2"], Timeline(0, 100), 50.0)
        assert betas[-1] == 1.0  # second window has no traffic


class TestVariation:
    def test_relative_steps(self):
        steps = variation_series([1.0, 1.1, 0.99])
        assert steps[0] == pytest.approx(0.1)
        assert steps[1] == pytest.approx(0.1, rel=1e-2)

    def test_short_series_empty(self):
        assert variation_series([0.5]).size == 0

    def test_zero_predecessor_skipped(self):
        steps = variation_series([0.0, 1.0, 2.0])
        assert steps.size == 1
        assert steps[0] == pytest.approx(1.0)

    def test_constant_series_is_all_zero(self):
        assert np.all(variation_series([0.7] * 10) == 0.0)


class TestChurnFilter:
    def test_keeps_only_spanning_sessions(self):
        sessions = [
            make_session("a", "ap1", 0.0, 100.0, 1.0),  # spans
            make_session("b", "ap1", 20.0, 100.0, 1.0),  # came late
            make_session("c", "ap1", 0.0, 80.0, 1.0),  # left early
        ]
        fixed = churn_filtered_sessions(sessions, 10.0, 90.0)
        assert [s.user_id for s in fixed] == ["a"]
