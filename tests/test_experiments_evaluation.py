"""Tests for the shared evaluation metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.evaluation import (
    daytime_samples,
    departure_peak_samples,
    hourly_means,
    mean_daytime_balance,
    per_controller_day_means,
    per_controller_stats,
    social_graph_quality,
)
from repro.sim.timeline import DAY, HOUR, in_departure_peak
from repro.wlan.metrics import ControllerSeries
from repro.wlan.replay import ReplayResult


def make_result(times, loads):
    series = ControllerSeries(
        controller_id="c0",
        ap_ids=["a", "b"],
        times=np.asarray(times, dtype=float),
        loads=np.asarray(loads, dtype=float),
        user_counts=np.zeros((len(times), 2)),
    )
    return ReplayResult("test", [], {"c0": series}, 0)


class TestSampleSelectors:
    def test_daytime_filter(self):
        # Samples at 02:00 (night), 12:00 (day), and an idle 14:00.
        result = make_result(
            [2 * HOUR, 12 * HOUR, 14 * HOUR],
            [[1.0, 1.0], [1.0, 3.0], [0.0, 0.0]],
        )
        samples = daytime_samples(result)
        assert samples.size == 1  # only the active noon sample

    def test_departure_peak_filter(self):
        result = make_result(
            [12.5 * HOUR, 14 * HOUR, 21.5 * HOUR],
            [[1.0, 1.0], [1.0, 1.0], [2.0, 1.0]],
        )
        samples = departure_peak_samples(result)
        assert samples.size == 2  # 12:30 and 21:30 are peaks, 14:00 not

    def test_mean_daytime_balance_of_idle_run(self):
        result = make_result([12 * HOUR], [[0.0, 0.0]])
        assert mean_daytime_balance(result) == 1.0


class TestPerControllerStats:
    def test_day_means_grouped_by_calendar_day(self):
        result = make_result(
            [12 * HOUR, 13 * HOUR, DAY + 12 * HOUR],
            [[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]],
        )
        means = per_controller_day_means(result)
        assert len(means["c0"]) == 2
        assert means["c0"][0] == pytest.approx(1.0)
        assert means["c0"][1] == pytest.approx(0.0)

    def test_stats_use_day_units(self):
        result = make_result(
            [12 * HOUR, DAY + 12 * HOUR, 2 * DAY + 12 * HOUR],
            [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
        )
        mean, half = per_controller_stats(result)["c0"]
        assert mean == pytest.approx(1.0)
        assert half == pytest.approx(0.0)


class TestHourlyMeans:
    def test_buckets_by_hour_of_day(self):
        result = make_result(
            [10 * HOUR, DAY + 10 * HOUR, 15 * HOUR],
            [[1.0, 1.0], [1.0, 0.0], [2.0, 2.0]],
        )
        hours, means = hourly_means(result)
        assert list(hours) == [10, 15]
        assert means[0] == pytest.approx(0.5)  # (1.0 + 0.0) / 2
        assert means[1] == pytest.approx(1.0)


class TestSocialGraphQuality:
    def test_quality_against_ground_truth(self, small_workload, small_model):
        quality = social_graph_quality(small_model, small_workload.world)
        assert 0.0 <= quality["precision"] <= 1.0
        assert 0.0 <= quality["recall"] <= 1.0
        assert quality["edges"] > 0
        # F1 consistent with precision/recall.
        p, r = quality["precision"], quality["recall"]
        expected = 2 * p * r / (p + r) if p + r else 0.0
        assert quality["f1"] == pytest.approx(expected)

    def test_impossible_threshold_gives_empty_graph(self, small_workload, small_model):
        quality = social_graph_quality(
            small_model, small_workload.world, threshold=10.0
        )
        assert quality["edges"] == 0
        assert quality["f1"] == 0.0


# ------------------------------------------------ per-sample loop oracles
# The evaluation selects samples with numpy masks; these are the
# per-sample loops it replaced, kept as the oracle of the property below.


def _loop_samples(result, keep):
    values = []
    for series in result.series.values():
        for t, beta, active in zip(
            series.times, series.balance_series(), series.active_mask()
        ):
            if active and keep(t):
                values.append(float(beta))
    return np.asarray(values)


def _daytime(t):
    return 8 * HOUR <= t % DAY < 24 * HOUR


def _loop_day_means(result):
    out = {}
    for controller_id, series in result.series.items():
        per_day = {}
        for t, beta, active in zip(
            series.times, series.balance_series(), series.active_mask()
        ):
            if active and _daytime(t):
                per_day.setdefault(int(t // DAY), []).append(float(beta))
        means = [float(np.mean(vals)) for _, vals in sorted(per_day.items())]
        if means:
            out[controller_id] = means
    return out


def _loop_hourly(result):
    buckets = {}
    for series in result.series.values():
        for t, beta, active in zip(
            series.times, series.balance_series(), series.active_mask()
        ):
            if active:
                buckets.setdefault(int((t % DAY) // HOUR), []).append(float(beta))
    hours = np.asarray(sorted(buckets))
    return hours, np.asarray([np.mean(buckets[h]) for h in hours])


@st.composite
def replay_results(draw):
    """Runs of 1-3 controllers sampled on a 10-minute grid over 0-3 days."""
    samples = draw(st.integers(0, 3 * 144))
    times = np.arange(samples) * 600.0 + draw(st.sampled_from([0.0, 30.0]))
    series = {}
    for c in range(draw(st.integers(1, 3))):
        width = draw(st.integers(1, 5))
        idle = np.asarray(draw(st.lists(st.booleans(), min_size=samples,
                                        max_size=samples)), dtype=bool)
        seed = draw(st.integers(0, 2**32 - 1))
        loads = np.random.default_rng(seed).random((samples, width)) * 1e6
        loads[idle] = 0.0
        series[f"c{c}"] = ControllerSeries(
            controller_id=f"c{c}",
            ap_ids=[f"a{i}" for i in range(width)],
            times=times.copy(),
            loads=loads.reshape(samples, width),
            user_counts=np.zeros((samples, width)),
        )
    return ReplayResult("test", [], series, 0)


class TestMatchesPerSampleLoops:
    @settings(max_examples=60, deadline=None)
    @given(replay_results())
    def test_selectors_equal_the_loops_byte_for_byte(self, result):
        pairs = [
            (daytime_samples(result), _loop_samples(result, _daytime)),
            (
                departure_peak_samples(result),
                _loop_samples(result, in_departure_peak),
            ),
        ]
        for got, expected in pairs:
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
        assert per_controller_day_means(result) == _loop_day_means(result)
        hours, means = hourly_means(result)
        loop_hours, loop_means = _loop_hourly(result)
        assert hours.dtype == loop_hours.dtype
        assert hours.tolist() == loop_hours.tolist()
        assert means.tobytes() == loop_means.tobytes()
