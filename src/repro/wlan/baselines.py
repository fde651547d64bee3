"""Additional baselines from the paper's related work (Section II).

* :class:`CellBreathing` — Bejerano & Han's cell-breathing technique
  (paper refs [16], [20]): APs shrink or grow their effective coverage
  according to load, transparently steering *new* arrivals away from
  busy APs.  Modeled as a per-AP attractiveness bias added to the
  station's RSSI: an AP's bias falls as its measured load rises above the
  domain mean, so overloaded cells "shrink".  Users are never migrated —
  like every scheme in this reproduction, the effect is arrival-only.

* :class:`BestHeadroom` — the client-side probing approach of Nicholson
  et al. (Virgil, paper ref [14]): the station evaluates each candidate
  AP's attainable quality and picks the best.  Modeled as the expected
  per-user share of the AP's remaining capacity,
  ``headroom / (user_count + 1)``.

Both consume only information their real counterparts would have
(measured loads / association counts / RSSI), so they slot into the same
replay engine and prototype as every other strategy.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.core.selection import APState
from repro.wlan.strategies import SelectionStrategy


class CellBreathing(SelectionStrategy):
    """Load-proportional cell-size adaptation (arrival-steering model).

    The bias for AP ``i`` is ``-gain * (load_i - mean_load) / mean_load``
    dB, clamped to ``max_bias``: an AP at twice the mean load looks
    ``gain`` dB weaker to arriving stations, one at zero load ``gain`` dB
    stronger.  With ``gain = 0`` the strategy degenerates to plain
    strongest-signal.
    """

    name = "cell-breathing"

    def __init__(self, gain_db: float = 12.0, max_bias_db: float = 20.0) -> None:
        if gain_db < 0 or max_bias_db < 0:
            raise ValueError("gains must be non-negative")
        self.gain_db = gain_db
        self.max_bias_db = max_bias_db

    def _bias(self, ap: APState, mean_load: float) -> float:
        if mean_load <= 0:
            return 0.0
        raw = -self.gain_db * (ap.load - mean_load) / mean_load
        return float(np.clip(raw, -self.max_bias_db, self.max_bias_db))

    def select(
        self,
        user_id: str,
        aps: Sequence[APState],
        rssi: Optional[Mapping[str, float]] = None,
    ) -> str:
        """Pick the AP per this baseline's policy."""
        if not aps:
            raise ValueError("no candidate APs")
        mean_load = sum(ap.load for ap in aps) / len(aps)
        best_ap = None
        best_score = -np.inf
        for ap in sorted(aps, key=lambda a: a.ap_id):
            signal = rssi.get(ap.ap_id, -75.0) if rssi else -75.0
            score = signal + self._bias(ap, mean_load)
            if score > best_score:
                best_score = score
                best_ap = ap
        assert best_ap is not None
        return best_ap.ap_id


class BestHeadroom(SelectionStrategy):
    """Virgil-style attainable-quality probing.

    Rank APs by the bandwidth share a new user could expect:
    ``(bandwidth - load) / (user_count + 1)``; RSSI only breaks ties.
    """

    name = "best-headroom"

    def select(
        self,
        user_id: str,
        aps: Sequence[APState],
        rssi: Optional[Mapping[str, float]] = None,
    ) -> str:
        """Pick the AP per this baseline's policy."""
        if not aps:
            raise ValueError("no candidate APs")

        def score(ap: APState) -> tuple:
            share = max(0.0, ap.headroom()) / (ap.user_count + 1)
            signal = rssi.get(ap.ap_id, -75.0) if rssi else -75.0
            return (share, signal, ap.ap_id)

        return max(aps, key=score).ap_id
