"""Tests for the bandwidth demand estimator."""

import pytest

from repro.core.demand import DemandEstimator
from repro.trace.records import SessionRecord


class TestDemandEstimator:
    def test_default_for_stranger(self):
        estimator = DemandEstimator(default_rate=123.0)
        assert estimator.estimate("nobody") == 123.0

    def test_first_observation_taken_verbatim(self):
        estimator = DemandEstimator()
        estimator.observe("u", 100.0)
        assert estimator.estimate("u") == 100.0

    def test_ewma_blends(self):
        estimator = DemandEstimator(smoothing=0.5)
        estimator.observe("u", 100.0)
        estimator.observe("u", 200.0)
        assert estimator.estimate("u") == pytest.approx(150.0)

    def test_smoothing_extremes(self):
        remember_all = DemandEstimator(smoothing=1.0)
        remember_all.observe("u", 10.0)
        remember_all.observe("u", 90.0)
        assert remember_all.estimate("u") == 90.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            DemandEstimator().observe("u", -5.0)

    def test_nan_rate_rejected(self):
        with pytest.raises(ValueError, match="NaN rate"):
            DemandEstimator().observe("u", float("nan"))

    def test_validation(self):
        with pytest.raises(ValueError):
            DemandEstimator(smoothing=0.0)
        with pytest.raises(ValueError):
            DemandEstimator(default_rate=0.0)

    def test_observe_sessions_in_chronological_order(self):
        sessions = [
            SessionRecord("u", "ap1", "c1", 100.0, 200.0, 200.0 * 100),  # later
            SessionRecord("u", "ap1", "c1", 0.0, 50.0, 50.0 * 10),  # earlier
        ]
        estimator = DemandEstimator(smoothing=1.0)
        estimator.observe_sessions(sessions)
        # Chronological order means the later (200 B/s) session wins.
        assert estimator.estimate("u") == pytest.approx(200.0)

    def test_zero_duration_sessions_skipped(self):
        sessions = [SessionRecord("u", "ap1", "c1", 5.0, 5.0, 0.0)]
        estimator = DemandEstimator()
        estimator.observe_sessions(sessions)
        assert estimator.observations("u") == 0

    def test_population_default(self):
        estimator = DemandEstimator(default_rate=1.0)
        estimator.observe("a", 100.0)
        estimator.observe("b", 300.0)
        estimator.fit_population_default()
        assert estimator.default_rate == pytest.approx(200.0)
        assert estimator.estimate("stranger") == pytest.approx(200.0)

    def test_known_users_and_observations(self):
        estimator = DemandEstimator()
        estimator.observe("b", 1.0)
        estimator.observe("a", 1.0)
        estimator.observe("a", 2.0)
        assert estimator.known_users == ["a", "b"]
        assert estimator.observations("a") == 2

    def test_trained_estimates_are_plausible(self, tiny_model, tiny_workload):
        estimator = tiny_model.demand
        rates = [estimator.estimate(u) for u in estimator.known_users]
        assert all(r >= 0 for r in rates)
        session_rates = [
            s.mean_rate for s in tiny_workload.collected.sessions if s.duration > 0
        ]
        assert min(rates) >= 0
        assert max(rates) <= max(session_rates) * 1.01
