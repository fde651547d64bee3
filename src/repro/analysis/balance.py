"""The Chiu-Jain balance index and its windowed series.

Section III.B of the paper quantifies load balance among the ``n`` APs of
one controller with Jain's fairness index over per-AP throughput::

    beta = (sum T_i)^2 / (n * sum T_i^2)          in [1/n, 1]

and normalizes it to [0, 1]::

    beta_norm = (beta - 1/n) / (1 - 1/n)

Section III.C additionally defines the *variance of balance index*
``S_i = (beta_i - beta_{i-1}) / beta_{i-1}`` over sub-periods of an hour to
show that with a fixed user population the index barely moves (Fig. 3).

This module computes per-AP throughput (bytes served inside a window over
the window length, attributing each session's bytes uniformly over its
lifetime), per-AP *user-seconds* (the time-integral of the concurrent user
count, for the Fig. 4 user-number index), and the windowed index series
used by Figs. 2-4 and the evaluation section.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.sim.timeline import Timeline
from repro.trace.records import SessionRecord


def _pairwise_sum(values: List[float]) -> float:
    """``values`` summed in numpy's pairwise order, so bit-identical to
    ``np.sum`` of the same float64 vector.

    numpy adds fewer than 8 values left to right from 0.0; up to 128
    into 8 interleaved accumulators combined as a balanced tree, then
    the tail; longer vectors split in two at a multiple of 8 below half.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
        blocks = n - n % 8
        for i in range(8, blocks, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for value in values[blocks:]:
            total += value
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def balance_index(loads: Iterable[float]) -> float:
    """Jain's fairness / balance index of a load vector.

    Ranges from ``1/n`` (all load on one AP) to 1 (perfectly even).  An
    all-zero vector is *perfectly balanced* by convention (returns 1.0) —
    an idle controller domain is not an unbalanced one.

    Pure Python: the service samples 8-AP domains one at a time, where
    numpy's per-call cost is most of the work.  The operations are
    numpy's float64 ones in numpy's order (peak, divide, pairwise sums),
    so the value is the one the vectorized form gives bit for bit.
    """
    values = list(map(float, loads))
    if not values:
        raise ValueError("balance index of an empty load vector")
    low = min(values)
    peak = max(values)
    if not low >= 0.0 or peak != peak:
        if any(value < 0 for value in values):
            raise ValueError("negative load")
        # numpy's max propagates NaN, and so does everything after it.
        return math.nan
    if peak <= 0:
        # Python's max can step over a NaN that numpy's would return.
        return math.nan if any(value != value for value in values) else 1.0
    # The index is scale-invariant; normalizing by the peak load keeps the
    # squares well inside float range for arbitrarily tiny or huge loads.
    scaled = [value / peak for value in values]
    total = _pairwise_sum(scaled)
    squares = _pairwise_sum([value * value for value in scaled])
    return total * total / (len(values) * squares)


def normalized_balance_index(loads: Sequence[float]) -> float:
    """The paper's normalized index: maps [1/n, 1] onto [0, 1].

    For a single-AP domain (n = 1) the index is defined as 1.0 — one AP is
    trivially balanced.
    """
    values = list(loads)
    n = len(values)
    beta = balance_index(values)
    if n == 1:
        return 1.0
    floor = 1.0 / n
    return float((beta - floor) / (1.0 - floor))


def normalized_balance_rows(loads: np.ndarray) -> np.ndarray:
    """:func:`normalized_balance_index` of every row of a ``(T, n)`` matrix.

    Each row goes through the scalar's IEEE operations in the scalar's
    order — row peak, divide by it, row sum, row sum of squares,
    ``total * total / (n * sq)``, then ``(beta - 1/n) / (1 - 1/n)`` — so
    every entry is bit-identical to the scalar call on that row.  Idle
    rows and single-AP domains give 1.0; a negative load or a row of
    width zero raises, as the scalar does.  A single vector is cheaper
    through the scalar: this pays numpy's per-call overhead several times.
    """
    matrix = np.asarray(loads, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected a (T, n) load matrix, got shape {matrix.shape}")
    rows, n = matrix.shape
    out = np.ones(rows)
    if rows == 0:
        return out
    if n == 0:
        raise ValueError("balance index of an empty load vector")
    if np.any(matrix < 0):
        raise ValueError("negative load")
    if n == 1:
        return out
    peak = matrix.max(axis=1)
    busy = ~(peak <= 0)
    scaled = matrix[busy] / peak[busy, None]
    total = scaled.sum(axis=1)
    beta = total * total / (n * np.square(scaled).sum(axis=1))
    floor = 1.0 / n
    out[busy] = (beta - floor) / (1.0 - floor)
    return out


def ap_throughputs(
    sessions: Iterable[SessionRecord],
    ap_ids: Sequence[str],
    lo: float,
    hi: float,
) -> Dict[str, float]:
    """Per-AP throughput (bytes/second) over the window ``[lo, hi)``.

    Every AP in ``ap_ids`` appears in the result (zero if idle), because the
    balance index must count idle APs — an AP nobody uses *is* imbalance.
    """
    if hi <= lo:
        raise ValueError(f"empty window [{lo}, {hi})")
    width = hi - lo
    loads: Dict[str, float] = {ap_id: 0.0 for ap_id in ap_ids}
    for record in sessions:
        if record.ap_id not in loads:
            continue
        loads[record.ap_id] += record.bytes_in(lo, hi) / width
    return loads


def ap_user_seconds(
    sessions: Iterable[SessionRecord],
    ap_ids: Sequence[str],
    lo: float,
    hi: float,
) -> Dict[str, float]:
    """Per-AP user-seconds (integral of concurrent user count) in a window."""
    if hi <= lo:
        raise ValueError(f"empty window [{lo}, {hi})")
    totals: Dict[str, float] = {ap_id: 0.0 for ap_id in ap_ids}
    for record in sessions:
        if record.ap_id not in totals:
            continue
        totals[record.ap_id] += record.overlap(lo, hi)
    return totals


def balance_series(
    sessions: Sequence[SessionRecord],
    ap_ids: Sequence[str],
    timeline: Timeline,
    window: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Normalized traffic-balance index per window across ``timeline``.

    Returns ``(window_midpoints, indices)``; windows with no traffic yield
    index 1.0 per the all-zero convention.
    """
    times: List[float] = []
    indices: List[float] = []
    relevant = [s for s in sessions if s.ap_id in set(ap_ids)]
    for lo, hi in timeline.windows(window):
        loads = ap_throughputs(relevant, ap_ids, lo, hi)
        times.append((lo + hi) / 2.0)
        indices.append(normalized_balance_index(list(loads.values())))
    return np.asarray(times), np.asarray(indices)


def user_count_balance_series(
    sessions: Sequence[SessionRecord],
    ap_ids: Sequence[str],
    timeline: Timeline,
    window: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Normalized user-number balance index per window (Fig. 4 companion)."""
    times: List[float] = []
    indices: List[float] = []
    relevant = [s for s in sessions if s.ap_id in set(ap_ids)]
    for lo, hi in timeline.windows(window):
        counts = ap_user_seconds(relevant, ap_ids, lo, hi)
        times.append((lo + hi) / 2.0)
        indices.append(normalized_balance_index(list(counts.values())))
    return np.asarray(times), np.asarray(indices)


def variation_series(betas: Sequence[float]) -> np.ndarray:
    """The paper's S statistic: successive relative changes of the index.

    ``S_i = (beta_i - beta_{i-1}) / beta_{i-1}``.  Steps whose predecessor is
    zero are skipped (the relative change is undefined), matching how an
    idle-to-active transition would be excluded from Fig. 3.  Returns the
    magnitudes ``|S_i|``, which is what the CDF in Fig. 3 aggregates.
    """
    values = np.asarray(list(betas), dtype=float)
    if values.size < 2:
        return np.empty(0)
    prev = values[:-1]
    curr = values[1:]
    mask = prev > 0
    return np.abs((curr[mask] - prev[mask]) / prev[mask])


def churn_filtered_sessions(
    sessions: Sequence[SessionRecord], lo: float, hi: float
) -> List[SessionRecord]:
    """Sessions that span the whole window ``[lo, hi)`` — the fixed-user
    population of Section III.C.1.

    The paper "removes the traffic amount generated by users who just came
    or left during a time period" before measuring S; this helper performs
    that removal.
    """
    return [s for s in sessions if s.connect <= lo and s.disconnect >= hi]
