"""Alternative fairness/balance metrics.

Section III.B: "This [Chiu–Jain] index has been widely used in the
literature to assess the load balancing performance.  Other fairness
metrics, such as max-min [Bejerano & Han] and proportional fairness
[Kleinberg et al.], may also be used."  This module provides those
alternatives (plus the Gini coefficient, the standard inequality measure)
so evaluations can be cross-checked against a different notion of
balance — the ablation benches report them alongside the headline index.

All metrics are *balance* oriented: higher is more balanced, and all are
normalized to [0, 1] with 1 = perfectly even, so they are directly
comparable to the normalized Chiu–Jain index.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _validated(loads: Sequence[float]) -> np.ndarray:
    values = np.asarray(list(loads), dtype=float)
    if values.size == 0:
        raise ValueError("fairness metric of an empty load vector")
    if np.any(values < 0):
        raise ValueError("negative load")
    return values


def max_min_fairness(loads: Sequence[float]) -> float:
    """min / max load — the max-min balance ratio.

    1.0 when all APs carry equal load, 0.0 when any AP is idle while
    another is loaded.  The all-zero vector is balanced by convention.
    """
    values = _validated(loads)
    peak = values.max()
    if peak <= 0:
        return 1.0
    return float(values.min() / peak)


def proportional_fairness(loads: Sequence[float]) -> float:
    """Normalized proportional-fairness score.

    Proportional fairness maximizes ``sum(log x_i)``; for a fixed total
    load this is maximized by the even split.  The score maps the
    geometric-to-arithmetic mean ratio into [0, 1]::

        PF = geomean(x) / mean(x)

    which is 1 iff all loads are equal (AM-GM).  Zero loads pin the
    geometric mean (and the score) to 0 — an idle AP is maximally unfair
    under proportional fairness, unlike under Chiu-Jain.
    """
    values = _validated(loads)
    # Test for the all-zero vector directly: the mean of [5e-324, 0.0]
    # underflows to 0.0 although one AP is loaded.
    if not np.any(values > 0):
        return 1.0
    if np.any(values <= 0):
        return 0.0
    geometric = float(np.exp(np.mean(np.log(values))))
    return geometric / float(values.mean())


def gini_balance(loads: Sequence[float]) -> float:
    """1 − Gini coefficient of the load distribution.

    The Gini coefficient is 0 for perfect equality and approaches 1 when
    one AP carries everything; the complement makes it a balance score
    aligned with the other metrics.
    """
    values = np.sort(_validated(loads))
    total = values.sum()
    n = values.size
    if total <= 0:
        return 1.0
    # Gini via the sorted-rank identity.
    ranks = np.arange(1, n + 1)
    gini = float((2.0 * np.sum(ranks * values)) / (n * total) - (n + 1.0) / n)
    return 1.0 - gini


#: All metrics by name, for sweep-style reporting.
FAIRNESS_METRICS = {
    "max-min": max_min_fairness,
    "proportional": proportional_fairness,
    "gini": gini_balance,
}


def fairness_report(loads: Sequence[float]) -> dict:
    """Every fairness metric of one load vector, by name."""
    return {name: metric(loads) for name, metric in FAIRNESS_METRICS.items()}
