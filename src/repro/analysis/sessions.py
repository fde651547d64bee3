"""Descriptive session-log statistics.

Section III.A of the paper opens with exactly this kind of description of
the collected trace (user counts, AP counts, buildings, volumes).  The
:func:`describe_bundle` report gives the same orientation for any loaded
or generated bundle — used by ``python -m repro describe`` and by the
analysis examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.sim.timeline import DAY, HOUR, day_index
from repro.trace.records import SessionRecord, TraceBundle


@dataclass(frozen=True)
class SessionStats:
    """Aggregate statistics of one session log."""

    n_sessions: int
    n_users: int
    n_aps: int
    n_controllers: int
    span_days: float
    total_bytes: float
    median_duration: float
    p90_duration: float
    median_rate: float
    mean_sessions_per_user_day: float

    def render(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"sessions        : {self.n_sessions}",
            f"users           : {self.n_users}",
            f"APs             : {self.n_aps}",
            f"controllers     : {self.n_controllers}",
            f"span            : {self.span_days:.1f} days",
            f"traffic         : {self.total_bytes / 1e9:.2f} GB",
            f"session duration: median {self.median_duration / 60:.0f} min, "
            f"p90 {self.p90_duration / 3600:.1f} h",
            f"session rate    : median {self.median_rate / 1e3:.1f} KB/s",
            f"sessions/user/day: {self.mean_sessions_per_user_day:.2f}",
        ]
        return "\n".join(lines)


def session_stats(sessions: List[SessionRecord]) -> SessionStats:
    """Compute aggregate statistics; raises on an empty log."""
    if not sessions:
        raise ValueError("session_stats of an empty log")
    durations = np.array([s.duration for s in sessions])
    rates = np.array([s.mean_rate for s in sessions if s.duration > 0])
    users = {s.user_id for s in sessions}
    start = min(s.connect for s in sessions)
    end = max(s.disconnect for s in sessions)
    span_days = max((end - start) / DAY, 1e-9)
    return SessionStats(
        n_sessions=len(sessions),
        n_users=len(users),
        n_aps=len({s.ap_id for s in sessions}),
        n_controllers=len({s.controller_id for s in sessions}),
        span_days=span_days,
        total_bytes=float(sum(s.bytes_total for s in sessions)),
        median_duration=float(np.median(durations)),
        p90_duration=float(np.percentile(durations, 90)),
        median_rate=float(np.median(rates)) if rates.size else 0.0,
        mean_sessions_per_user_day=len(sessions) / (len(users) * span_days),
    )


def diurnal_activity(sessions: List[SessionRecord]) -> np.ndarray:
    """Mean concurrent sessions per hour-of-day (24-vector).

    The hour's value is the time-integral of concurrent sessions in that
    hour divided by the hour length, averaged over the days of the log.
    """
    if not sessions:
        return np.zeros(24)
    first_day = day_index(min(s.connect for s in sessions))
    last_day = day_index(max(s.disconnect for s in sessions) - 1e-9)
    n_days = max(1, last_day - first_day + 1)
    totals = np.zeros(24)
    for session in sessions:
        for day in range(day_index(session.connect), day_index(session.disconnect) + 1):
            for hour in range(24):
                lo = day * DAY + hour * HOUR
                hi = lo + HOUR
                totals[hour] += session.overlap(lo, hi)
    return totals / (HOUR * n_days)


def per_ap_utilization(
    sessions: List[SessionRecord], bandwidths: Optional[Dict[str, float]] = None
) -> Dict[str, float]:
    """Mean offered load per AP over the log span (bytes/second); with
    ``bandwidths`` given, normalized to a utilization fraction."""
    if not sessions:
        return {}
    start = min(s.connect for s in sessions)
    end = max(s.disconnect for s in sessions)
    span = max(end - start, 1e-9)
    loads: Dict[str, float] = {}
    for session in sessions:
        loads[session.ap_id] = loads.get(session.ap_id, 0.0) + session.bytes_total
    result = {ap_id: volume / span for ap_id, volume in loads.items()}
    if bandwidths is not None:
        result = {
            ap_id: rate / bandwidths[ap_id]
            for ap_id, rate in result.items()
            if ap_id in bandwidths
        }
    return result


def describe_bundle(bundle: TraceBundle) -> str:
    """A human-readable description of a bundle's contents."""
    parts: List[str] = [repr(bundle)]
    if bundle.sessions:
        parts.append("")
        parts.append(session_stats(bundle.sessions).render())
        activity = diurnal_activity(bundle.sessions)
        peak_hour = int(np.argmax(activity))
        parts.append(
            f"diurnal peak    : {activity[peak_hour]:.1f} concurrent sessions "
            f"at {peak_hour:02d}:00"
        )
    if bundle.demands:
        parts.append("")
        parts.append(
            f"demands         : {len(bundle.demands)} "
            f"({sum(1 for d in bundle.demands if d.group_id) } group, "
            f"{sum(1 for d in bundle.demands if d.group_id is None)} solo)"
        )
    if bundle.n_flows:
        volume = sum(bundle.flow_columns().bytes_total.tolist())
        parts.append(f"flows           : {bundle.n_flows} ({volume / 1e9:.2f} GB)")
    return "\n".join(parts)
