"""numpy's balance index: the oracle of the pure-Python scalar.

:func:`repro.analysis.balance.balance_index` reproduces these numpy
float64 operations — peak, divide, ``np.sum`` of the scaled vector and
of its squares, ``total * total / (n * squares)`` — in numpy's pairwise
summation order, so the parity tests compare with ``==`` (NaN with NaN).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def balance_index(loads: Sequence[float]) -> float:
    values = np.asarray(list(loads), dtype=float)
    if values.size == 0:
        raise ValueError("balance index of an empty load vector")
    if np.any(values < 0):
        raise ValueError("negative load")
    peak = values.max()
    if peak <= 0:
        return 1.0
    with np.errstate(invalid="ignore"):  # inf / inf: NaN, as in the scalar
        scaled = values / peak
    total = scaled.sum()
    return float(total * total / (values.size * np.square(scaled).sum()))


def normalized_balance_index(loads: Sequence[float]) -> float:
    values = list(loads)
    n = len(values)
    beta = balance_index(values)
    if n == 1:
        return 1.0
    floor = 1.0 / n
    return float((beta - floor) / (1.0 - floor))
