"""Columnar session storage: the substrate of the numpy fast paths.

The paper mines pairwise social events from a 3-month, 12,374-user trace;
at that scale the per-record Python objects of
:class:`~repro.trace.records.SessionRecord` are the wrong shape for the
inner loops.  :class:`SessionArrays` transposes a session log once into
parallel numpy columns — integer user / AP codes plus float64
connect / disconnect timestamps — and caches the two sort orders every
churn consumer needs:

* ``by_ap_connect``      stable (ap, connect) order — the encounter sweep;
* ``by_ap_disconnect``   (ap, disconnect, user) order — co-leaving windows
  and per-user departure statistics (``by_ap_connect_user`` is the
  symmetric co-coming order).

Codes are assigned in sorted-id order, so comparing codes is exactly
comparing the original string ids — the fast paths canonicalize pairs
with integer comparisons and still produce the reference implementation's
``(smaller-id, larger-id)`` tuples.

Build the arrays once per trace (``TraceBundle.columns()`` memoizes) and
share them between ``extract_churn``, ``coleaving_fraction_per_user`` and
any future vectorized consumer.

:class:`FlowArrays` is the matching columnar transpose of the flow log,
and the only in-memory one: the generator draws it,
:class:`~repro.trace.records.TraceBundle` stores it, and profiles are
built from it.  It round-trips exactly — ``to_flows()`` reproduces the
original records, field for field (float64 round-trips through numpy
losslessly).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.trace.records import (
    FlowRecord,
    SessionRecord,
    format_ipv4,
    parse_ipv4,
)

#: Row selectors accepted by the ``slice_rows`` helpers: a ``slice``, an
#: integer index array, or a boolean mask.
RowSelector = Union[slice, np.ndarray]


def _encode_table(values: Sequence[str]) -> Tuple[List[str], Dict[str, int]]:
    """A sorted id table plus the id -> code lookup for it."""
    table = sorted(set(values))
    return table, {value: code for code, value in enumerate(table)}

#: ``(order, starts, ends)`` — a permutation of the session indices plus
#: the half-open ``[starts[g], ends[g])`` slice of each AP group inside it.
GroupedOrder = Tuple[np.ndarray, np.ndarray, np.ndarray]


class SessionArrays:
    """An immutable columnar view of one session log."""

    __slots__ = (
        "user_ids",
        "ap_ids",
        "user",
        "ap",
        "connect",
        "disconnect",
        "_orders",
    )

    def __init__(
        self,
        user_ids: Sequence[str],
        ap_ids: Sequence[str],
        user: np.ndarray,
        ap: np.ndarray,
        connect: np.ndarray,
        disconnect: np.ndarray,
    ) -> None:
        self.user_ids: List[str] = list(user_ids)
        self.ap_ids: List[str] = list(ap_ids)
        self.user = np.asarray(user, dtype=np.intp)
        self.ap = np.asarray(ap, dtype=np.intp)
        self.connect = np.asarray(connect, dtype=np.float64)
        self.disconnect = np.asarray(disconnect, dtype=np.float64)
        n = self.user.shape[0]
        if not (
            self.ap.shape[0] == self.connect.shape[0]
            == self.disconnect.shape[0] == n
        ):
            raise ValueError("column lengths disagree")
        self._orders: Dict[str, GroupedOrder] = {}

    # ----------------------------------------------------------- construction

    @classmethod
    def from_sessions(cls, sessions: Sequence[SessionRecord]) -> "SessionArrays":
        """Transpose a session log into columns (one pass, O(n log n))."""
        n = len(sessions)
        user_table: Dict[str, int] = {}
        ap_table: Dict[str, int] = {}
        user = np.empty(n, dtype=np.intp)
        ap = np.empty(n, dtype=np.intp)
        connect = np.empty(n, dtype=np.float64)
        disconnect = np.empty(n, dtype=np.float64)
        for i, record in enumerate(sessions):
            code = user_table.get(record.user_id)
            if code is None:
                code = user_table[record.user_id] = len(user_table)
            user[i] = code
            code = ap_table.get(record.ap_id)
            if code is None:
                code = ap_table[record.ap_id] = len(ap_table)
            ap[i] = code
            connect[i] = record.connect
            disconnect[i] = record.disconnect
        # Re-code so code order == lexicographic id order; integer
        # comparisons on codes then match string comparisons on ids.
        user_ids = sorted(user_table)
        ap_ids = sorted(ap_table)
        user_remap = np.empty(len(user_table), dtype=np.intp)
        for rank, uid in enumerate(user_ids):
            user_remap[user_table[uid]] = rank
        ap_remap = np.empty(len(ap_table), dtype=np.intp)
        for rank, aid in enumerate(ap_ids):
            ap_remap[ap_table[aid]] = rank
        if n:
            user = user_remap[user]
            ap = ap_remap[ap]
        return cls(user_ids, ap_ids, user, ap, connect, disconnect)

    # -------------------------------------------------------------- basic API

    @property
    def n_sessions(self) -> int:
        """Number of session rows."""
        return int(self.user.shape[0])

    @property
    def n_users(self) -> int:
        """Number of distinct users."""
        return len(self.user_ids)

    @property
    def n_aps(self) -> int:
        """Number of distinct APs."""
        return len(self.ap_ids)

    def __len__(self) -> int:
        return self.n_sessions

    def __repr__(self) -> str:
        return (
            f"SessionArrays(sessions={self.n_sessions}, "
            f"users={self.n_users}, aps={self.n_aps})"
        )

    # ------------------------------------------------------------ sort orders

    def _grouped(self, keys: Tuple[np.ndarray, ...], cache_key: str) -> GroupedOrder:
        """Stable lexsort by ``(ap, *keys)`` plus per-AP group boundaries.

        ``np.lexsort`` is a chain of stable sorts, so rows with fully equal
        keys keep their original relative order — matching ``sorted`` /
        ``list.sort`` on the record objects.
        """
        cached = self._orders.get(cache_key)
        if cached is not None:
            return cached
        order = np.lexsort(tuple(reversed(keys)) + (self.ap,))
        ap_sorted = self.ap[order]
        if ap_sorted.size:
            boundaries = np.flatnonzero(np.diff(ap_sorted)) + 1
            starts = np.concatenate(([0], boundaries))
            ends = np.concatenate((boundaries, [ap_sorted.size]))
        else:
            starts = np.empty(0, dtype=np.intp)
            ends = np.empty(0, dtype=np.intp)
        grouped = (order, starts, ends)
        self._orders[cache_key] = grouped
        return grouped

    def by_ap_connect(self) -> GroupedOrder:
        """Stable (ap, connect) order — the encounter sweep's input order."""
        return self._grouped((self.connect,), "ap-connect")

    def by_ap_connect_user(self) -> GroupedOrder:
        """(ap, connect, user) order — co-coming windows."""
        return self._grouped((self.connect, self.user), "ap-connect-user")

    def by_ap_disconnect_user(self) -> GroupedOrder:
        """(ap, disconnect, user) order — co-leaving windows."""
        return self._grouped((self.disconnect, self.user), "ap-disconnect-user")

    # -------------------------------------------------------------- group AP

    def group_ap_ids(self, starts: np.ndarray, order: np.ndarray) -> List[str]:
        """The AP id of each group in a :data:`GroupedOrder`."""
        # One fancy-index per level instead of a Python loop over groups.
        codes = self.ap[order[np.asarray(starts, dtype=np.intp)]]
        table = np.asarray(self.ap_ids, dtype=object)
        return list(table[codes])

    # ---------------------------------------------------------------- slicing

    def slice_rows(self, rows: RowSelector) -> "SessionArrays":
        """A row-subset view sharing this instance's id tables.

        ``rows`` is a ``slice`` (a zero-copy view of the columns), an
        integer index array or a boolean mask.  Codes keep referring to
        the full tables, so sliced views compare and join consistently
        with the parent.
        """
        return SessionArrays(
            self.user_ids,
            self.ap_ids,
            self.user[rows],
            self.ap[rows],
            self.connect[rows],
            self.disconnect[rows],
        )


#: protocol codes used by :class:`FlowArrays` (index == code).
FLOW_PROTOCOLS: Tuple[str, ...] = ("tcp", "udp")

#: The largest packed IPv4 address.
_IPV4_MAX = (1 << 32) - 1


def _check_table(name: str, table: Sequence[str], codes: np.ndarray) -> None:
    """Codes index a sorted, duplicate-free table."""
    if any(a >= b for a, b in zip(table, table[1:])):
        raise ValueError(f"{name} table must be sorted and duplicate-free")
    bad = np.flatnonzero((codes < 0) | (codes >= len(table)))
    if bad.size:
        raise ValueError(f"{name} code {codes[bad[0]]} outside its table")


class FlowArrays:
    """The in-memory flow log: one column per :class:`FlowRecord` field.

    ``user`` and ``src_ip`` are ``int64`` codes against sorted id tables,
    so comparing codes compares ids; ``dst_ip`` is the packed 32-bit
    address (:func:`~repro.trace.records.parse_ipv4`); ``protocol`` is
    ``uint8`` against :data:`FLOW_PROTOCOLS`.  The constructor enforces
    every check :class:`FlowRecord` enforces, vectorised, so the two forms
    accept the same flows.  Row subsets (:meth:`slice_rows`) share the
    tables and skip the checks their parent already passed.
    ``to_flows()`` reproduces the records field for field.
    """

    __slots__ = (
        "user_ids",
        "src_ips",
        "user",
        "src_ip",
        "dst_ip",
        "protocol",
        "src_port",
        "dst_port",
        "start",
        "end",
        "bytes_total",
    )

    def __init__(
        self,
        user_ids: Sequence[str],
        src_ips: Sequence[str],
        user: np.ndarray,
        src_ip: np.ndarray,
        dst_ip: np.ndarray,
        protocol: np.ndarray,
        src_port: np.ndarray,
        dst_port: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        bytes_total: np.ndarray,
    ) -> None:
        self.user_ids: List[str] = list(user_ids)
        self.src_ips: List[str] = list(src_ips)
        self.user = np.asarray(user, dtype=np.int64)
        self.src_ip = np.asarray(src_ip, dtype=np.int64)
        self.dst_ip = np.asarray(dst_ip, dtype=np.int64)
        self.protocol = np.asarray(protocol, dtype=np.uint8)
        self.src_port = np.asarray(src_port, dtype=np.int64)
        self.dst_port = np.asarray(dst_port, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.bytes_total = np.asarray(bytes_total, dtype=np.float64)
        self._check()

    def _check(self) -> None:
        """Every :class:`FlowRecord` check, over whole columns."""
        n = self.user.shape[0]
        columns = (
            self.src_ip, self.dst_ip, self.protocol, self.src_port,
            self.dst_port, self.start, self.end, self.bytes_total,
        )
        if any(col.shape != (n,) for col in columns) or self.user.ndim != 1:
            raise ValueError("column lengths disagree")
        _check_table("user", self.user_ids, self.user)
        _check_table("src_ip", self.src_ips, self.src_ip)
        bad = np.flatnonzero(self.end < self.start)
        if bad.size:
            i = bad[0]
            raise ValueError(
                f"flow ends at {self.end[i]} before start {self.start[i]}"
            )
        bad = np.flatnonzero(self.protocol >= len(FLOW_PROTOCOLS))
        if bad.size:
            raise ValueError(f"unknown protocol code {self.protocol[bad[0]]}")
        bad = np.flatnonzero(self.bytes_total < 0)
        if bad.size:
            raise ValueError(f"negative flow bytes {self.bytes_total[bad[0]]!r}")
        bad = np.flatnonzero(
            (self.src_port < 1) | (self.src_port > 65535)
            | (self.dst_port < 1) | (self.dst_port > 65535)
        )
        if bad.size:
            i = bad[0]
            raise ValueError(
                f"port out of range: src={self.src_port[i]}, "
                f"dst={self.dst_port[i]}"
            )
        bad = np.flatnonzero((self.dst_ip < 0) | (self.dst_ip > _IPV4_MAX))
        if bad.size:
            raise ValueError(
                f"dst_ip {self.dst_ip[bad[0]]} is not a packed IPv4 address"
            )

    @classmethod
    def _checked_rows(
        cls, user_ids: List[str], src_ips: List[str], *columns: np.ndarray
    ) -> "FlowArrays":
        """An instance over columns derived from checked ones (no re-check)."""
        arrays = cls.__new__(cls)
        arrays.user_ids = user_ids
        arrays.src_ips = src_ips
        (
            arrays.user, arrays.src_ip, arrays.dst_ip, arrays.protocol,
            arrays.src_port, arrays.dst_port, arrays.start, arrays.end,
            arrays.bytes_total,
        ) = columns
        return arrays

    def _columns(self) -> Tuple[np.ndarray, ...]:
        return (
            self.user, self.src_ip, self.dst_ip, self.protocol, self.src_port,
            self.dst_port, self.start, self.end, self.bytes_total,
        )

    # ----------------------------------------------------------- construction

    @classmethod
    def from_flows(cls, flows: Sequence[FlowRecord]) -> "FlowArrays":
        """Transpose a flow log into columns, keeping its row order."""
        user_ids, user_code = _encode_table([f.user_id for f in flows])
        src_ips, src_code = _encode_table([f.src_ip for f in flows])
        # An unknown protocol name maps to a code the column check rejects.
        protocol_code = {name: code for code, name in enumerate(FLOW_PROTOCOLS)}
        return cls(
            user_ids,
            src_ips,
            np.array([user_code[f.user_id] for f in flows], dtype=np.int64),
            np.array([src_code[f.src_ip] for f in flows], dtype=np.int64),
            np.array([parse_ipv4(f.dst_ip) for f in flows], dtype=np.int64),
            np.array(
                [protocol_code.get(f.protocol, 255) for f in flows],
                dtype=np.uint8,
            ),
            np.array([f.src_port for f in flows], dtype=np.int64),
            np.array([f.dst_port for f in flows], dtype=np.int64),
            np.array([f.start for f in flows], dtype=np.float64),
            np.array([f.end for f in flows], dtype=np.float64),
            np.array([f.bytes_total for f in flows], dtype=np.float64),
        )

    @classmethod
    def concat(cls, parts: Sequence["FlowArrays"]) -> "FlowArrays":
        """The rows of ``parts`` one after another, over merged tables."""
        if not parts:
            return cls([], [], *(np.empty(0) for _ in range(9)))
        user_ids, user_code = _encode_table(
            [uid for part in parts for uid in part.user_ids]
        )
        src_ips, src_code = _encode_table(
            [ip for part in parts for ip in part.src_ips]
        )

        def recode(part: "FlowArrays") -> Tuple[np.ndarray, ...]:
            users = np.array([user_code[u] for u in part.user_ids], dtype=np.int64)
            ips = np.array([src_code[ip] for ip in part.src_ips], dtype=np.int64)
            return (users[part.user], ips[part.src_ip]) + part._columns()[2:]

        return cls._checked_rows(
            user_ids,
            src_ips,
            *(np.concatenate(column) for column in zip(*map(recode, parts))),
        )

    # -------------------------------------------------------------- basic API

    @property
    def n_rows(self) -> int:
        """Number of flow rows."""
        return int(self.user.shape[0])

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:
        return f"FlowArrays(flows={self.n_rows}, users={len(self.user_ids)})"

    def present_user_ids(self) -> List[str]:
        """The ids of the users with at least one row, sorted."""
        return [self.user_ids[code] for code in np.unique(self.user).tolist()]

    # ---------------------------------------------------------------- order

    def sorted_by_start(self) -> "FlowArrays":
        """The rows in stable ``(start, user id, dst_port)`` order.

        Returns ``self`` when the rows are already in that order (a
        stable sort would leave them as they are); otherwise one
        ``np.lexsort``.  User codes follow sorted ids, so this is the
        order ``sorted(key=(start, user_id, dst_port))`` gives the rows.
        """
        start, user, port = self.start, self.user, self.dst_port
        same_start = start[:-1] == start[1:]
        same_user = user[:-1] == user[1:]
        ordered = (start[:-1] < start[1:]) | (
            same_start
            & ((user[:-1] < user[1:]) | (same_user & (port[:-1] <= port[1:])))
        )
        if ordered.all():
            return self
        return self.slice_rows(np.lexsort((port, user, start)))

    def by_user(self) -> Dict[str, "FlowArrays"]:
        """user id -> that user's rows in row order, keyed in id order."""
        order = np.argsort(self.user, kind="stable")
        codes = self.user[order]
        cuts = (np.flatnonzero(np.diff(codes)) + 1).tolist()
        bounds = zip([0] + cuts, cuts + [len(codes)])
        return {
            self.user_ids[int(codes[lo])]: self.slice_rows(order[lo:hi])
            for lo, hi in bounds
            if hi > lo
        }

    # ---------------------------------------------------------------- slicing

    def slice_rows(self, rows: RowSelector) -> "FlowArrays":
        """A row subset sharing this instance's id tables.

        A ``slice`` gives views of the columns, not copies.
        """
        return FlowArrays._checked_rows(
            self.user_ids,
            self.src_ips,
            *(column[rows] for column in self._columns()),
        )

    # --------------------------------------------------------------- decoding

    def to_flows(self) -> List[FlowRecord]:
        """Materialize the rows back into :class:`FlowRecord` records.

        ``tolist()`` decodes each column in one C call and records are
        built by direct ``__dict__`` assignment: the columns passed every
        :class:`FlowRecord` check when they were built.
        """
        user_ids = self.user_ids
        src_ips = self.src_ips
        new = FlowRecord.__new__
        out: List[FlowRecord] = []
        append = out.append
        rows = zip(*(column.tolist() for column in self._columns()))
        for user, src, dst, protocol, sport, dport, start, end, size in rows:
            record = new(FlowRecord)
            record.__dict__.update({
                "user_id": user_ids[user],
                "start": start,
                "end": end,
                "src_ip": src_ips[src],
                "dst_ip": format_ipv4(dst),
                "protocol": FLOW_PROTOCOLS[protocol],
                "src_port": sport,
                "dst_port": dport,
                "bytes_total": size,
            })
            append(record)
        return out


def as_session_arrays(
    sessions: "Sequence[SessionRecord] | SessionArrays",
    arrays: Optional[SessionArrays] = None,
) -> SessionArrays:
    """Coerce a record sequence (or pass through an existing columnar view)."""
    if arrays is not None:
        return arrays
    if isinstance(sessions, SessionArrays):
        return sessions
    return SessionArrays.from_sessions(sessions)
