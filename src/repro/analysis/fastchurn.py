"""Vectorized churn-event extraction over :class:`SessionArrays`.

These kernels are the implementation of
:func:`repro.analysis.churn.extract_churn` and
:func:`~repro.analysis.churn.coleaving_fraction_per_user`.  They produce
*identical* events to the pure-Python loops kept as their test oracle
(``tests/churn_oracle.py``) — same event sets, same floats, same
ordering of the event lists — by reproducing the loops' comparison
semantics exactly:

* co-events pair departures (arrivals) ``i < j`` in per-AP
  (time, user) order with ``fl(t_j - t_i) <= window``.  Candidate ranges
  come from ``searchsorted`` against an upper bound inflated by two ulps,
  then the exact float predicate is re-applied elementwise — IEEE-754
  subtraction is monotone, so the oracle's early ``break`` scans the
  same prefix;
* encounters pair sessions ``i < j`` in stable per-AP connect order with
  ``disc_i > conn_j`` and ``fl(min(disc_i, disc_j) - conn_j) >=
  min_duration`` — precisely the sweep-line's active-list filter and
  overlap test.  Pairs are emitted in the sweep's (j, i) order;
* the co-leaving fraction marks a departure as shared when it belongs to
  any cross-user window pair, which is what the oracle's
  backward/forward scans test.

The extraction itself is a few ``searchsorted`` + ``repeat`` expansions
per AP group.  The result is a :class:`ColumnarChurnEvents`: the per-pair
count queries the S³ pipeline actually consumes are answered directly
from the event columns (one ``np.unique`` per family), and the
:class:`~repro.analysis.churn.CoEvent` / ``Encounter`` / ``LeaveEvent``
object lists — identical to the oracle's — materialize lazily only
when someone iterates them.  Training on a campus trace therefore never
pays for millions of per-event Python objects.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.analysis.churn import (
    ChurnEvents,
    CoEvent,
    Encounter,
    LeaveEvent,
    Pair,
)
from repro.trace.columnar import SessionArrays, as_session_arrays
from repro.trace.records import SessionRecord

_EMPTY_PAIRS = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))


# --------------------------------------------------------------------------
# lazy event lists


class LazyEvents(Sequence):
    """A list-compatible sequence that builds its elements on first use.

    Supports everything the toolkit does with event lists (len, iteration,
    indexing, equality with plain lists, append/extend) while deferring
    the construction of the per-event dataclasses until someone actually
    looks at them.  ``len`` is known up front, so size checks stay free.
    """

    __slots__ = ("_length", "_build", "_items")

    def __init__(self, length: int, build: Callable[[], list]) -> None:
        self._length = int(length)
        self._build: Optional[Callable[[], list]] = build
        self._items: Optional[list] = None

    def _list(self) -> list:
        if self._items is None:
            assert self._build is not None
            self._items = self._build()
            self._build = None
        return self._items

    def __len__(self) -> int:
        return len(self._items) if self._items is not None else self._length

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator[Any]:
        return iter(self._list())

    def __getitem__(self, index: Union[int, slice]) -> Any:
        return self._list()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LazyEvents):
            return self._list() == other._list()
        if isinstance(other, list):
            return self._list() == other
        return NotImplemented

    def __repr__(self) -> str:
        if self._items is None:
            return f"LazyEvents(n={self._length}, unmaterialized)"
        return repr(self._items)

    def __reduce__(self) -> Tuple[Any, ...]:
        # Build closures don't pickle; a pickled lazy list round-trips as
        # the plain list it stands for.
        return (list, (self._list(),))

    # Event lists are mutable in the oracle's ChurnEvents; keep that
    # contract by materializing before any mutation.

    def append(self, item: Any) -> None:
        """Materialize, then append."""
        self._list().append(item)

    def extend(self, items: Iterable[Any]) -> None:
        """Materialize, then extend."""
        self._list().extend(items)


# --------------------------------------------------------------------------
# columnar result


class ColumnarChurnEvents(ChurnEvents):
    """Churn events stored as columns, materialized to objects on demand.

    Field-for-field interchangeable with a plain
    :class:`~repro.analysis.churn.ChurnEvents` (each event list compares
    equal to the oracle's), but the per-pair count queries the model
    training consumes are computed straight from the columns.

    Note: dataclass equality between a plain ``ChurnEvents`` and this
    subclass is ``False`` by dataclass semantics — compare per family.
    """

    def __init__(
        self,
        user_ids: List[str],
        leavings: LazyEvents,
        arrivals: LazyEvents,
        co_leavings: LazyEvents,
        co_comings: LazyEvents,
        encounters: LazyEvents,
        coleave_pairs: Tuple[np.ndarray, np.ndarray],
        encounter_pairs: Tuple[np.ndarray, np.ndarray],
    ) -> None:
        super().__init__(
            leavings=leavings,
            arrivals=arrivals,
            co_leavings=co_leavings,
            co_comings=co_comings,
            encounters=encounters,
        )
        self._user_ids = user_ids
        self._coleave_pair_columns = coleave_pairs
        self._encounter_pair_columns = encounter_pairs

    def _pair_counts(
        self, columns: Tuple[np.ndarray, np.ndarray]
    ) -> Dict[Pair, int]:
        low, high = columns
        if low.size == 0:
            return Counter()
        key = low * len(self._user_ids) + high
        unique, counts = np.unique(key, return_counts=True)
        ids = self._user_ids
        n = len(ids)
        return Counter(
            {
                (ids[k // n], ids[k % n]): int(c)
                for k, c in zip(unique.tolist(), counts.tolist())
            }
        )

    def co_leaving_pairs(self) -> Dict[Pair, int]:
        """Per-pair co-leaving counts, straight from the columns."""
        return self._pair_counts(self._coleave_pair_columns)

    def encounter_pairs(self) -> Dict[Pair, int]:
        """Per-pair encounter counts, straight from the columns."""
        return self._pair_counts(self._encounter_pair_columns)


# --------------------------------------------------------------------------
# pair enumeration kernels


def _expand_ranges(hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """All pairs ``(i, j)`` with ``i < j < hi[i]`` for a candidate bound.

    ``hi`` is a per-row exclusive upper bound on ``j``; rows with
    ``hi[i] <= i + 1`` contribute nothing.
    """
    n = hi.shape[0]
    idx = np.arange(n)
    counts = np.maximum(hi - idx - 1, 0)
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_PAIRS
    i_idx = np.repeat(idx, counts)
    starts = np.cumsum(counts) - counts
    j_idx = np.arange(total) - np.repeat(starts, counts) + i_idx + 1
    return i_idx, j_idx


def _window_pairs(times: np.ndarray, window: float) -> Tuple[np.ndarray, np.ndarray]:
    """Pairs ``i < j`` in a time-sorted group with ``fl(t_j - t_i) <= window``.

    The searchsorted bound is inflated by two ulps so no pair satisfying
    the exact float predicate can fall outside the candidate range; the
    predicate itself is then applied exactly.
    """
    if times.shape[0] < 2:
        return _EMPTY_PAIRS
    upper = np.nextafter(np.nextafter(times + window, np.inf), np.inf)
    hi = np.searchsorted(times, upper, side="right")
    i_idx, j_idx = _expand_ranges(hi)
    if i_idx.size == 0:
        return _EMPTY_PAIRS
    keep = (times[j_idx] - times[i_idx]) <= window
    return i_idx[keep], j_idx[keep]


def _canonical(
    ui: np.ndarray, uj: np.ndarray, vi: np.ndarray, vj: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Order each pair by user code (== id order) and swap values along."""
    swap = ui > uj
    low = np.where(swap, uj, ui)
    high = np.where(swap, ui, uj)
    v_low = np.where(swap, vj, vi)
    v_high = np.where(swap, vi, vj)
    return low, high, v_low, v_high


# --------------------------------------------------------------------------
# per-family extraction (arrays in, arrays out)


def _co_event_columns(
    times: np.ndarray,
    users: np.ndarray,
    group_starts: np.ndarray,
    group_ends: np.ndarray,
    group_aps: np.ndarray,
    window: float,
) -> Tuple[np.ndarray, ...]:
    """The oracle's per-AP co-event pairing, over every AP group at once.

    Returns ``(ap, low, high, t_low, t_high)`` columns in the oracle's
    emission order (APs ascending, then the (i, j) scan order).
    """
    parts: List[Tuple[np.ndarray, ...]] = []
    for g in range(group_starts.shape[0]):
        lo, hi = int(group_starts[g]), int(group_ends[g])
        i_idx, j_idx = _window_pairs(times[lo:hi], window)
        if i_idx.size == 0:
            continue
        ui = users[lo:hi][i_idx]
        uj = users[lo:hi][j_idx]
        cross = ui != uj
        if not cross.any():
            continue
        ti = times[lo:hi][i_idx[cross]]
        tj = times[lo:hi][j_idx[cross]]
        low, high, t_low, t_high = _canonical(ui[cross], uj[cross], ti, tj)
        ap = np.full(low.shape[0], group_aps[g], dtype=np.intp)
        parts.append((ap, low, high, t_low, t_high))
    if not parts:
        return (
            np.empty(0, dtype=np.intp),
            np.empty(0, dtype=np.intp),
            np.empty(0, dtype=np.intp),
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.float64),
        )
    return tuple(np.concatenate(cols) for cols in zip(*parts))


def _encounter_columns(
    connect: np.ndarray,
    disconnect: np.ndarray,
    users: np.ndarray,
    group_starts: np.ndarray,
    group_ends: np.ndarray,
    group_aps: np.ndarray,
    min_duration: float,
) -> Tuple[np.ndarray, ...]:
    """The oracle's per-AP encounter sweep, over every AP group at once.

    Returns ``(ap, low, high, start, end)`` columns in the oracle
    sweep's emission order.  ``connect`` is sorted per group (stable), so
    for session ``i`` every overlapping later session ``j`` satisfies
    ``conn_j < disc_i``; a positive ``min_duration`` tightens the
    candidate bound to ``conn_j <= disc_i - min_duration`` (+2 ulps).
    """
    parts: List[Tuple[np.ndarray, ...]] = []
    for g in range(group_starts.shape[0]):
        lo, hi_g = int(group_starts[g]), int(group_ends[g])
        conn = connect[lo:hi_g]
        disc = disconnect[lo:hi_g]
        if conn.shape[0] < 2:
            continue
        if min_duration > 0:
            upper = np.nextafter(
                np.nextafter(disc - min_duration, np.inf), np.inf
            )
            hi = np.searchsorted(conn, upper, side="right")
        else:
            hi = np.searchsorted(conn, disc, side="left")
        i_idx, j_idx = _expand_ranges(hi)
        if i_idx.size == 0:
            continue
        disc_i = disc[i_idx]
        disc_j = disc[j_idx]
        conn_j = conn[j_idx]
        start = np.maximum(conn[i_idx], conn_j)
        end = np.minimum(disc_i, disc_j)
        keep = (disc_i > conn_j) & ((end - start) >= min_duration)
        grp = users[lo:hi_g]
        keep &= grp[i_idx] != grp[j_idx]
        if not keep.any():
            continue
        i_idx = i_idx[keep]
        j_idx = j_idx[keep]
        # The oracle's sweep emits pairs as each later session j arrives,
        # scanning its active predecessors i in connect order.
        emit = np.lexsort((i_idx, j_idx))
        i_idx = i_idx[emit]
        j_idx = j_idx[emit]
        low, high, _, _ = _canonical(grp[i_idx], grp[j_idx], i_idx, j_idx)
        ap = np.full(low.shape[0], group_aps[g], dtype=np.intp)
        parts.append(
            (
                ap,
                low,
                high,
                np.maximum(conn[i_idx], conn[j_idx]),
                np.minimum(disc[i_idx], disc[j_idx]),
            )
        )
    if not parts:
        return (
            np.empty(0, dtype=np.intp),
            np.empty(0, dtype=np.intp),
            np.empty(0, dtype=np.intp),
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.float64),
        )
    return tuple(np.concatenate(cols) for cols in zip(*parts))


# --------------------------------------------------------------------------
# object materialization


def _co_event_builder(
    kind: str,
    columns: Tuple[np.ndarray, ...],
    user_ids: List[str],
    ap_ids: List[str],
) -> Callable[[], List[CoEvent]]:
    ap, low, high, t_low, t_high = columns

    def build() -> List[CoEvent]:
        return [
            CoEvent(
                kind=kind,
                pair=(user_ids[a], user_ids[b]),
                ap_id=ap_ids[p],
                times=(ta, tb),
            )
            for p, a, b, ta, tb in zip(
                ap.tolist(),
                low.tolist(),
                high.tolist(),
                t_low.tolist(),
                t_high.tolist(),
            )
        ]

    return build


def _encounter_builder(
    columns: Tuple[np.ndarray, ...],
    user_ids: List[str],
    ap_ids: List[str],
) -> Callable[[], List[Encounter]]:
    ap, low, high, start, end = columns

    def build() -> List[Encounter]:
        return [
            Encounter(
                pair=(user_ids[a], user_ids[b]),
                ap_id=ap_ids[p],
                start=s,
                end=e,
            )
            for p, a, b, s, e in zip(
                ap.tolist(),
                low.tolist(),
                high.tolist(),
                start.tolist(),
                end.tolist(),
            )
        ]

    return build


def _leave_builder(
    arrays: SessionArrays, times: np.ndarray, order: np.ndarray
) -> Callable[[], List[LeaveEvent]]:
    """LeaveEvents in (ap, time, user) order — the oracle's list order."""

    def build() -> List[LeaveEvent]:
        user_ids = arrays.user_ids
        ap_ids = arrays.ap_ids
        return [
            LeaveEvent(user_id=user_ids[u], ap_id=ap_ids[a], time=t)
            for u, a, t in zip(
                arrays.user[order].tolist(),
                arrays.ap[order].tolist(),
                times[order].tolist(),
            )
        ]

    return build


# --------------------------------------------------------------------------
# entry points


def extract_churn_numpy(
    sessions: "Sequence[SessionRecord] | SessionArrays",
    coleave_window: float,
    cocome_window: float,
    encounter_min_duration: float,
    arrays: Optional[SessionArrays] = None,
) -> ColumnarChurnEvents:
    """The kernel behind :func:`repro.analysis.churn.extract_churn`.

    Parameters are pre-validated by ``extract_churn``.  Accepts either raw
    records or an existing :class:`SessionArrays` (``arrays`` wins when
    both are given, which is how ``TraceBundle.columns()`` is shared).
    """
    cols = as_session_arrays(sessions, arrays)
    user_ids = cols.user_ids
    ap_ids = cols.ap_ids

    leave_order, leave_starts, leave_ends = cols.by_ap_disconnect_user()
    come_order, come_starts, come_ends = cols.by_ap_connect_user()
    leave_group_aps = cols.ap[leave_order[leave_starts]]
    come_group_aps = cols.ap[come_order[come_starts]]

    coleave_columns = _co_event_columns(
        cols.disconnect[leave_order],
        cols.user[leave_order],
        leave_starts,
        leave_ends,
        leave_group_aps,
        coleave_window,
    )
    cocome_columns = _co_event_columns(
        cols.connect[come_order],
        cols.user[come_order],
        come_starts,
        come_ends,
        come_group_aps,
        cocome_window,
    )

    sweep_order, sweep_starts, sweep_ends = cols.by_ap_connect()
    sweep_group_aps = cols.ap[sweep_order[sweep_starts]]
    encounter_columns = _encounter_columns(
        cols.connect[sweep_order],
        cols.disconnect[sweep_order],
        cols.user[sweep_order],
        sweep_starts,
        sweep_ends,
        sweep_group_aps,
        encounter_min_duration,
    )

    n = cols.n_sessions
    return ColumnarChurnEvents(
        user_ids=user_ids,
        leavings=LazyEvents(n, _leave_builder(cols, cols.disconnect, leave_order)),
        arrivals=LazyEvents(n, _leave_builder(cols, cols.connect, come_order)),
        co_leavings=LazyEvents(
            coleave_columns[0].shape[0],
            _co_event_builder("co-leave", coleave_columns, user_ids, ap_ids),
        ),
        co_comings=LazyEvents(
            cocome_columns[0].shape[0],
            _co_event_builder("co-come", cocome_columns, user_ids, ap_ids),
        ),
        encounters=LazyEvents(
            encounter_columns[0].shape[0],
            _encounter_builder(encounter_columns, user_ids, ap_ids),
        ),
        coleave_pairs=(coleave_columns[1], coleave_columns[2]),
        encounter_pairs=(encounter_columns[1], encounter_columns[2]),
    )


def coleaving_fraction_numpy(
    sessions: "Sequence[SessionRecord] | SessionArrays",
    window: float,
    arrays: Optional[SessionArrays] = None,
) -> Dict[str, float]:
    """The kernel behind ``coleaving_fraction_per_user``.

    A departure is shared iff it participates in at least one cross-user
    window pair on its AP — the union of the oracle's backward and
    forward scans.
    """
    cols = as_session_arrays(sessions, arrays)
    n_users = cols.n_users
    if cols.n_sessions == 0 or n_users == 0:
        return {}
    shared = np.zeros(n_users, dtype=np.int64)
    order, starts, ends = cols.by_ap_disconnect_user()
    times = cols.disconnect[order]
    users = cols.user[order]
    for g in range(starts.shape[0]):
        lo, hi = int(starts[g]), int(ends[g])
        times_g = times[lo:hi]
        users_g = users[lo:hi]
        i_idx, j_idx = _window_pairs(times_g, window)
        if i_idx.size == 0:
            continue
        cross = users_g[i_idx] != users_g[j_idx]
        if not cross.any():
            continue
        flagged = np.zeros(times_g.shape[0], dtype=bool)
        flagged[i_idx[cross]] = True
        flagged[j_idx[cross]] = True
        shared += np.bincount(users_g[flagged], minlength=n_users)
    totals = np.bincount(cols.user, minlength=n_users)
    user_ids = cols.user_ids
    return {
        user_ids[u]: int(shared[u]) / int(totals[u])
        for u in np.flatnonzero(totals).tolist()
    }
