"""Application profiles: per-user, per-day traffic over the six realms.

Section III.D.2: "we used normalized history traffic volumes of the six
major application categories ... to characterize the application interest
of a user", with the day-x profile ``T_x(u)`` and the cumulative history
``sum_{i=1..n} T_{x-i}(u)``.  Profiles are recovered from router flow
records via the port classifier — the same path the paper takes — never
from the generator's ground truth.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.info import normalized_mutual_information
from repro.sim.timeline import DAY
from repro.trace.apps import N_REALMS
from repro.trace.classifier import PortClassifier
from repro.trace.columnar import FlowArrays
from repro.trace.records import FlowRecord


class DailyProfileStore:
    """Per-user, per-day realm-volume vectors.

    Stored volumes are raw bytes; normalization happens on read so that
    histories can be aggregated by summation first (the paper's cumulative
    traffic vector) and normalized once.
    """

    def __init__(self) -> None:
        self._volumes: Dict[str, Dict[int, np.ndarray]] = {}

    def add(self, user_id: str, day: int, volumes: Sequence[float]) -> None:
        """Accumulate realm volumes for ``user_id`` on ``day``."""
        vector = np.asarray(list(volumes), dtype=float)
        if vector.shape != (N_REALMS,):
            raise ValueError(f"expected {N_REALMS} realm volumes, got {vector.shape}")
        if np.any(vector < 0):
            raise ValueError("negative realm volume")
        per_day = self._volumes.setdefault(user_id, {})
        if day in per_day:
            per_day[day] = per_day[day] + vector
        else:
            per_day[day] = vector.copy()

    # -------------------------------------------------------------- queries

    @property
    def user_ids(self) -> List[str]:
        """All users with any recorded traffic, sorted."""
        return sorted(self._volumes)

    def days_of(self, user_id: str) -> List[int]:
        """Days on which the user has recorded traffic, sorted."""
        return sorted(self._volumes.get(user_id, {}))

    def raw(self, user_id: str, day: int) -> Optional[np.ndarray]:
        """Raw byte vector for one day, or ``None`` if the user was absent."""
        per_day = self._volumes.get(user_id)
        if per_day is None or day not in per_day:
            return None
        return per_day[day].copy()

    def daily(self, user_id: str, day: int) -> Optional[np.ndarray]:
        """Normalized day profile ``T_day(u)``, or ``None`` if absent/empty."""
        raw = self.raw(user_id, day)
        if raw is None:
            return None
        total = raw.sum()
        if total <= 0:
            return None
        return raw / total

    def cumulative(
        self, user_id: str, end_day: int, lookback: int
    ) -> Optional[np.ndarray]:
        """Normalized profile over days ``[end_day - lookback, end_day)``.

        This is the paper's cumulative traffic vector
        ``sum_{i=1..n} T_{x-i}(u)``; returns ``None`` when the user has no
        traffic in the window.
        """
        if lookback <= 0:
            raise ValueError(f"lookback must be positive, got {lookback}")
        per_day = self._volumes.get(user_id)
        if per_day is None:
            return None
        total = np.zeros(N_REALMS)
        for day in range(end_day - lookback, end_day):
            if day in per_day:
                total += per_day[day]
        mass = total.sum()
        if mass <= 0:
            return None
        return total / mass

    def overall(self, user_id: str) -> Optional[np.ndarray]:
        """Normalized profile over every recorded day of the user."""
        per_day = self._volumes.get(user_id)
        if not per_day:
            return None
        total = sum(per_day.values())
        mass = float(np.sum(total))
        if mass <= 0:
            return None
        return total / mass

    def profile_matrix(
        self, end_day: Optional[int] = None, lookback: Optional[int] = None
    ) -> Tuple[List[str], np.ndarray]:
        """(users, matrix) of normalized profiles for clustering.

        With ``end_day``/``lookback`` the cumulative window is used;
        otherwise the all-time profile.  Users without traffic are skipped.
        """
        users: List[str] = []
        rows: List[np.ndarray] = []
        for user_id in self.user_ids:
            if end_day is not None and lookback is not None:
                profile = self.cumulative(user_id, end_day, lookback)
            else:
                profile = self.overall(user_id)
            if profile is not None:
                users.append(user_id)
                rows.append(profile)
        if not rows:
            return [], np.empty((0, N_REALMS))
        return users, np.vstack(rows)


def build_daily_profiles(
    flows: Union[FlowArrays, Iterable[FlowRecord]],
    classifier: Optional[PortClassifier] = None,
) -> DailyProfileStore:
    """Classify flows and accumulate them into a daily profile store.

    A flow is attributed to the day of its start timestamp; unclassifiable
    flows are dropped (the paper restricts itself to the identified top
    applications).  ``flows`` is the columnar log (a bundle's
    :meth:`~repro.trace.records.TraceBundle.flow_columns`) or records,
    which are transposed once in their given order.

    Flows are classified by :meth:`PortClassifier.classify_columns`.
    Every ``(user, day)`` gets a row in first-seen order, and
    ``np.add.at`` sums the bytes into a zero matrix in record order.
    That is the order in which :meth:`DailyProfileStore.add` would
    accumulate the flows one by one (its extra ``+ 0.0`` on the other
    realms is exact), so every stored vector — and the store's insertion
    order — is bit-identical to the per-flow loop's.
    """
    classifier = classifier if classifier is not None else PortClassifier()
    if not isinstance(flows, FlowArrays):
        flows = FlowArrays.from_flows(list(flows))
    realms = classifier.classify_columns(flows)
    kept = np.flatnonzero(realms >= 0)
    realms = realms[kept]
    users = flows.user[kept]
    days = np.floor_divide(flows.start[kept], DAY).astype(np.int64)
    values = flows.bytes_total[kept]
    # One key per (user, day); rows are numbered by first appearance.
    first_day = int(days.min()) if days.size else 0
    span = int(days.max()) - first_day + 1 if days.size else 1
    keys, first, inverse = np.unique(
        users * span + (days - first_day), return_index=True, return_inverse=True
    )
    seen = np.argsort(first, kind="stable")
    row_of_key = np.empty(len(keys), dtype=np.intp)
    row_of_key[seen] = np.arange(len(keys))
    totals = np.zeros((len(keys), N_REALMS))
    np.add.at(totals, (row_of_key[inverse], realms), values)
    store = DailyProfileStore()
    volumes = store._volumes
    user_ids = flows.user_ids
    for row, key in enumerate(keys[seen].tolist()):
        user, offset = divmod(key, span)
        volumes.setdefault(user_ids[user], {})[first_day + offset] = totals[row]
    return store


def history_profile(
    store: DailyProfileStore, user_id: str, day: int, lookback: int
) -> Optional[np.ndarray]:
    """Convenience alias for the cumulative look-back profile."""
    return store.cumulative(user_id, day, lookback)


def nmi_history_curve(
    store: DailyProfileStore,
    target_day: int,
    max_lookback: int,
    min_users: int = 5,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fig. 6: mean NMI between day-``target_day`` profiles and cumulative
    histories of increasing depth.

    Returns ``(lookbacks, mean_nmi)`` over users active on the target day
    with at least some history.  Raises when fewer than ``min_users`` users
    qualify — a curve over two users is noise, not signal.
    """
    if max_lookback <= 0:
        raise ValueError("max_lookback must be positive")
    lookbacks = np.arange(1, max_lookback + 1)
    sums = np.zeros(max_lookback)
    counts = np.zeros(max_lookback, dtype=int)
    qualified = 0
    for user_id in store.user_ids:
        current = store.daily(user_id, target_day)
        if current is None:
            continue
        has_any = False
        for i, lookback in enumerate(lookbacks):
            history = store.cumulative(user_id, target_day, int(lookback))
            if history is None:
                continue
            sums[i] += normalized_mutual_information(current, history)
            counts[i] += 1
            has_any = True
        if has_any:
            qualified += 1
    if qualified < min_users:
        raise ValueError(
            f"only {qualified} users have both a day-{target_day} profile "
            f"and history (need {min_users})"
        )
    means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return lookbacks, means
