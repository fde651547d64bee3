"""Shared evaluation metrics for the Section-V experiments.

All comparisons score a replay run the same way the paper does: the
normalized balance index of per-AP traffic, sampled over the evaluation
days, restricted to the active daytime (8:00-24:00) so that idle night
hours — where every strategy is trivially "balanced" — do not dilute the
differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.pipeline import S3Model
from repro.experiments.reporting import confidence_interval_95
from repro.sim.timeline import DAY, DEPARTURE_PEAKS, HOUR
from repro.trace.social import SocialWorld
from repro.wlan.metrics import ControllerSeries
from repro.wlan.replay import ReplayResult

DAY_START_HOUR = 8
DAY_END_HOUR = 24
DAYTIME = ((DAY_START_HOUR * HOUR, DAY_END_HOUR * HOUR),)


def _active(series: ControllerSeries) -> Tuple[np.ndarray, np.ndarray]:
    """``(times, balance indices)`` of the series' active samples."""
    mask = series.active_mask()
    return series.times[mask], series.balance_series()[mask]


def _in_windows(
    times: np.ndarray, windows: Sequence[Tuple[float, float]]
) -> np.ndarray:
    """Mask of the timestamps whose time of day lies in any ``[lo, hi)``."""
    time_of_day = times % DAY
    mask: np.ndarray = np.zeros(times.shape, dtype=bool)
    for lo, hi in windows:
        mask |= (lo <= time_of_day) & (time_of_day < hi)
    return mask


def _pooled(parts: List[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.asarray([])


def daytime_samples(result: ReplayResult) -> np.ndarray:
    """All active daytime balance-index samples, pooled over controllers."""
    parts: List[np.ndarray] = []
    for series in result.series.values():
        times, betas = _active(series)
        parts.append(betas[_in_windows(times, DAYTIME)])
    return _pooled(parts)


def departure_peak_samples(result: ReplayResult) -> np.ndarray:
    """Active samples inside the paper's departure-peak windows."""
    parts: List[np.ndarray] = []
    for series in result.series.values():
        times, betas = _active(series)
        parts.append(betas[_in_windows(times, DEPARTURE_PEAKS)])
    return _pooled(parts)


def mean_daytime_balance(result: ReplayResult) -> float:
    """Mean of the active daytime balance samples (1.0 when idle)."""
    samples = daytime_samples(result)
    return float(samples.mean()) if samples.size else 1.0


def per_controller_day_means(result: ReplayResult) -> Dict[str, List[float]]:
    """Per-controller daily mean balances (one value per evaluation day).

    These day-level units are what the paper's error bars vary over: a
    strategy is "stable" when a controller's balance looks the same every
    day, not merely when the pooled sample is large.
    """
    out: Dict[str, List[float]] = {}
    for controller_id, series in result.series.items():
        times, betas = _active(series)
        daytime = _in_windows(times, DAYTIME)
        days = times[daytime] // DAY
        betas = betas[daytime]
        means = [float(np.mean(betas[days == day])) for day in np.unique(days)]
        if means:
            out[controller_id] = means
    return out


def per_controller_stats(result: ReplayResult) -> Dict[str, Tuple[float, float]]:
    """Per-controller (mean, 95%-CI half-width) of daytime balance.

    The CI is computed over the controller's *daily means* (see
    :func:`per_controller_day_means`), matching the paper's per-site error
    bars; a pooled-sample CI would shrink with the sampling rate and say
    nothing about day-to-day stability.
    """
    out: Dict[str, Tuple[float, float]] = {}
    for controller_id, means in per_controller_day_means(result).items():
        out[controller_id] = confidence_interval_95(means)
    return out


def social_graph_quality(
    model: S3Model, world: SocialWorld, threshold: float = 0.3
) -> Dict[str, float]:
    """Precision/recall/F1 of the trained social graph against ground truth.

    The synthetic campus knows which user pairs actually share a group;
    the S³ social graph (edges where delta > threshold) can therefore be
    scored directly.  This metric exposes the trade-off behind the paper's
    Fig. 10/11 sweeps — short windows or little history find too few real
    relations (recall), long windows admit fake ones (precision) — which
    the balance index alone can hide because Algorithm 1's balance guard
    makes S³ fail-safe under a degraded social model.
    """
    import itertools

    member_sets = [set(group.member_ids) for group in world.groups.values()]
    truth = set()
    for members in member_sets:
        for u, v in itertools.combinations(sorted(members), 2):
            truth.add((u, v))
    users = sorted(model.types.assignments)
    graph = model.social.build_graph(users, threshold=threshold)
    true_positives = 0
    false_positives = 0
    for u, v, _ in graph.edges():
        pair = (u, v) if u < v else (v, u)
        if pair in truth:
            true_positives += 1
        else:
            false_positives += 1
    edges = true_positives + false_positives
    recall = true_positives / len(truth) if truth else 0.0
    precision = true_positives / edges if edges else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return {
        "edges": float(edges),
        "precision": precision,
        "recall": recall,
        "f1": f1,
    }


def hourly_means(result: ReplayResult) -> Tuple[np.ndarray, np.ndarray]:
    """(hours, mean balance per hour-of-day) pooled over controllers/days."""
    hour_parts: List[np.ndarray] = []
    beta_parts: List[np.ndarray] = []
    for series in result.series.values():
        times, betas = _active(series)
        hour_parts.append(((times % DAY) // HOUR).astype(int))
        beta_parts.append(betas)
    pooled_hours = _pooled(hour_parts)
    pooled_betas = _pooled(beta_parts)
    hours = np.asarray(sorted(set(pooled_hours.tolist())))
    means = np.asarray([np.mean(pooled_betas[pooled_hours == h]) for h in hours])
    return hours, means
