"""Unit and property tests for the alternative fairness metrics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.balance import normalized_balance_index
from repro.analysis.fairness import (
    FAIRNESS_METRICS,
    fairness_report,
    gini_balance,
    max_min_fairness,
    proportional_fairness,
)

loads = st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    min_size=1,
    max_size=20,
)


class TestMaxMin:
    def test_even_is_one(self):
        assert max_min_fairness([5, 5, 5]) == 1.0

    def test_idle_ap_is_zero(self):
        assert max_min_fairness([10, 0]) == 0.0

    def test_all_zero_balanced(self):
        assert max_min_fairness([0, 0]) == 1.0

    def test_ratio(self):
        assert max_min_fairness([2, 4]) == pytest.approx(0.5)


class TestProportional:
    def test_even_is_one(self):
        assert proportional_fairness([3, 3, 3]) == pytest.approx(1.0)

    def test_zero_load_is_zero(self):
        assert proportional_fairness([10, 0]) == 0.0

    def test_all_zero_balanced(self):
        assert proportional_fairness([0, 0, 0]) == 1.0

    def test_denormal_load_with_idle_ap_is_zero(self):
        # The mean underflows to 0.0; the vector is still not all-zero.
        assert proportional_fairness([5e-324, 0.0]) == 0.0

    def test_am_gm_inequality(self):
        assert proportional_fairness([1, 9]) < 1.0


class TestGini:
    def test_even_is_one(self):
        assert gini_balance([4, 4, 4, 4]) == pytest.approx(1.0)

    def test_concentration_lowers_score(self):
        even = gini_balance([5, 5])
        skewed = gini_balance([9, 1])
        assert skewed < even

    def test_all_zero_balanced(self):
        assert gini_balance([0, 0]) == 1.0

    def test_single_ap(self):
        assert gini_balance([7.0]) == pytest.approx(1.0)


class TestProperties:
    @given(loads)
    def test_all_metrics_bounded(self, values):
        for name, metric in FAIRNESS_METRICS.items():
            score = metric(values)
            assert -1e-9 <= score <= 1.0 + 1e-9, name

    @given(loads)
    def test_scale_invariance(self, values):
        if sum(values) == 0:
            return
        scaled = [v * 1000.0 for v in values]
        for name, metric in FAIRNESS_METRICS.items():
            assert metric(values) == pytest.approx(metric(scaled), abs=1e-9), name

    @given(st.integers(min_value=2, max_value=12), st.floats(min_value=0.1, max_value=100))
    def test_even_vector_maximal_for_all_metrics(self, n, level):
        even = [level] * n
        for name, metric in FAIRNESS_METRICS.items():
            assert metric(even) == pytest.approx(1.0), name

    @given(loads)
    def test_agreement_with_chiu_jain_on_extremes(self, values):
        # All metrics agree with the headline index on the perfectly even
        # and the single-loaded-AP extremes.
        if len(values) < 2 or sum(values) == 0:
            return
        one_hot = [sum(values)] + [0.0] * (len(values) - 1)
        assert normalized_balance_index(one_hot) == pytest.approx(0.0)
        assert max_min_fairness(one_hot) == 0.0
        assert proportional_fairness(one_hot) == 0.0

    def test_report_contains_all_metrics(self):
        report = fairness_report([1, 2, 3])
        assert set(report) == {"max-min", "proportional", "gini"}

    def test_empty_rejected(self):
        for metric in FAIRNESS_METRICS.values():
            with pytest.raises(ValueError):
                metric([])

    def test_negative_rejected(self):
        for metric in FAIRNESS_METRICS.values():
            with pytest.raises(ValueError):
                metric([1.0, -2.0])
