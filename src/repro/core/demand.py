"""Per-user bandwidth demand estimation from history.

Algorithm 1 needs the demanded throughput ``w(u)`` of an arriving user to
check the AP bandwidth constraint ``sum_u w(u) <= W(i)``.  The paper
estimates it "using the history trace of u as studied in [Qiao et al.,
HPDC'04]" — multi-scale predictability of a user's own past traffic.  The
stand-in here is an exponentially weighted moving average over the user's
past session mean rates, with a population-mean fallback for users with no
history (new MAC addresses exist in any real WLAN).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.trace.records import SessionRecord


class DemandEstimator:
    """EWMA estimator of per-user demanded throughput (bytes/second)."""

    def __init__(self, smoothing: float = 0.3, default_rate: float = 50e3) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        if default_rate <= 0:
            raise ValueError(f"default_rate must be positive, got {default_rate}")
        self.smoothing = smoothing
        self._default = default_rate
        self._rates: Dict[str, float] = {}
        self._observations: Dict[str, int] = {}

    # ------------------------------------------------------------- training

    def observe(self, user_id: str, mean_rate: float) -> None:
        """Fold one finished session's mean rate into the user's estimate."""
        if not mean_rate >= 0:
            raise ValueError(f"negative or NaN rate {mean_rate!r}")
        if user_id in self._rates:
            old = self._rates[user_id]
            self._rates[user_id] = (
                self.smoothing * mean_rate + (1.0 - self.smoothing) * old
            )
        else:
            self._rates[user_id] = mean_rate
        self._observations[user_id] = self._observations.get(user_id, 0) + 1

    def observe_sessions(self, sessions: Iterable[SessionRecord]) -> None:
        """Train on a session log in chronological order."""
        for record in sorted(sessions, key=lambda s: s.disconnect):
            if record.duration > 0:
                self.observe(record.user_id, record.mean_rate)

    def fit_population_default(self) -> None:
        """Reset the unknown-user fallback to the trained population mean."""
        if self._rates:
            self._default = sum(self._rates.values()) / len(self._rates)

    # -------------------------------------------------------------- queries

    def estimate(self, user_id: str) -> float:
        """Estimated demand w(u) in bytes/second (fallback for strangers)."""
        return self._rates.get(user_id, self._default)

    def observations(self, user_id: str) -> int:
        """How many sessions have been folded in for this user."""
        return self._observations.get(user_id, 0)

    @property
    def known_users(self) -> List[str]:
        """Users with at least one observation, sorted."""
        return sorted(self._rates)

    @property
    def default_rate(self) -> float:
        """Fallback rate used for users with no history (bytes/second)."""
        return self._default
