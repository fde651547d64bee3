"""Measurement toolkit for Section III of the paper.

Everything the paper's empirical analysis needs, computed from logged
:class:`~repro.trace.records.SessionRecord` / ``FlowRecord`` streams:

``balance``  the Chiu-Jain balance index, its normalized form, windowed
             per-controller series and the variance statistic S (Figs. 2-4)
``churn``    leaving / co-leaving / co-coming / encounter event extraction
             and per-user co-leaving fractions (Fig. 5, Table I inputs)
``fastchurn``  the vectorized kernels behind the churn extractors, over
             a columnar session store
``info``     entropy, mutual information and NMI of application profiles
             (Fig. 6)
``cdf``      empirical CDF helpers shared by the CDF figures
"""

from repro.analysis.balance import (
    ap_throughputs,
    ap_user_seconds,
    balance_index,
    balance_series,
    normalized_balance_index,
    user_count_balance_series,
    variation_series,
)
from repro.analysis.churn import (
    ChurnEvents,
    CoEvent,
    Encounter,
    LeaveEvent,
    coleaving_fraction_per_user,
    extract_churn,
    pair_event_counts,
)
from repro.analysis.info import (
    entropy,
    maximal_coupling,
    mutual_information,
    normalized_mutual_information,
)
from repro.analysis.cdf import EmpiricalCDF, fraction_below
from repro.analysis.fairness import (
    FAIRNESS_METRICS,
    fairness_report,
    gini_balance,
    max_min_fairness,
    proportional_fairness,
)

__all__ = [
    "ap_throughputs",
    "ap_user_seconds",
    "balance_index",
    "balance_series",
    "normalized_balance_index",
    "user_count_balance_series",
    "variation_series",
    "ChurnEvents",
    "CoEvent",
    "Encounter",
    "LeaveEvent",
    "coleaving_fraction_per_user",
    "extract_churn",
    "pair_event_counts",
    "entropy",
    "maximal_coupling",
    "mutual_information",
    "normalized_mutual_information",
    "EmpiricalCDF",
    "fraction_below",
    "FAIRNESS_METRICS",
    "fairness_report",
    "gini_balance",
    "max_min_fairness",
    "proportional_fairness",
]
