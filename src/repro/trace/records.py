"""Typed trace records and the :class:`TraceBundle` container.

Three record families mirror the paper's data sources (Section III.A):

* :class:`SessionRecord` — what the back-end data center logs: user
  identifier, connected / disconnected time stamps, accessed AP, and the
  served traffic amount of the connection.
* :class:`FlowRecord` — what the core-network routers log: source /
  destination IP addresses, transport protocol and ports, byte counts.
  Application realms are *not* stored on the record; they are recovered by
  the port-heuristic classifier, exactly as in the paper.  In memory the
  flow log is held as columns (:class:`~repro.trace.columnar.FlowArrays`);
  a :class:`FlowRecord` is the row type of CSV I/O and of tests.
* :class:`DemandSession` — the *replayable demand* underlying a session:
  who wanted to be online, where, when, and with which per-realm traffic.
  This is the input to trace-driven simulation (Section V methodology);
  the AP actually chosen is a property of the strategy under test, not of
  the demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (columnar imports us)
    from repro.trace.columnar import DemandArrays, FlowArrays, SessionArrays

import numpy as np

from repro.trace.apps import N_REALMS, AppRealm


@dataclass(frozen=True)
class SessionRecord:
    """One logged WLAN association, as recorded by the data center."""

    user_id: str
    ap_id: str
    controller_id: str
    connect: float
    disconnect: float
    bytes_total: float

    def __post_init__(self) -> None:
        if self.disconnect < self.connect:
            raise ValueError(
                f"session for {self.user_id} disconnects at {self.disconnect} "
                f"before connecting at {self.connect}"
            )
        if self.bytes_total < 0:
            raise ValueError(f"negative traffic {self.bytes_total!r}")

    @property
    def duration(self) -> float:
        """Session length in seconds."""
        return self.disconnect - self.connect

    @property
    def mean_rate(self) -> float:
        """Mean throughput in bytes/second (0 for zero-length sessions)."""
        if self.duration <= 0:
            return 0.0
        return self.bytes_total / self.duration

    def overlap(self, lo: float, hi: float) -> float:
        """Seconds of this session inside the window ``[lo, hi)``."""
        return max(0.0, min(self.disconnect, hi) - max(self.connect, lo))

    def bytes_in(self, lo: float, hi: float) -> float:
        """Traffic attributed to ``[lo, hi)`` assuming a uniform rate."""
        if self.duration <= 0:
            return 0.0
        return self.bytes_total * self.overlap(lo, hi) / self.duration


def parse_ipv4(text: str) -> int:
    """The packed 32-bit value of a canonical dotted-quad IPv4 address.

    Canonical means four decimal octets in ``0..255`` without leading
    zeros, so :func:`format_ipv4` gives the text back unchanged.
    """
    parts = text.split(".")
    if len(parts) == 4 and all(
        part.isascii() and part.isdigit() and (part == "0" or part[0] != "0")
        for part in parts
    ):
        a, b, c, d = (int(part) for part in parts)
        if max(a, b, c, d) <= 255:
            return (a << 24) | (b << 16) | (c << 8) | d
    raise ValueError(f"not a dotted-quad IPv4 address: {text!r}")


def format_ipv4(value: int) -> str:
    """The dotted-quad text of a packed 32-bit IPv4 address."""
    return f"{value >> 24}.{(value >> 16) & 255}.{(value >> 8) & 255}.{value & 255}"


@dataclass(frozen=True)
class FlowRecord:
    """One logged core-router flow.

    ``dst_port`` is the server-side port; the classifier keys on
    ``(protocol, dst_port)``.  ``user_id`` stands in for the IP-to-user join
    the paper performs against DHCP/auth logs.  ``dst_ip`` is a canonical
    dotted quad (:func:`parse_ipv4`), the form the columnar log packs.
    Every check here is also a vectorised check of
    :class:`~repro.trace.columnar.FlowArrays`, so both forms accept the
    same flows.
    """

    user_id: str
    start: float
    end: float
    src_ip: str
    dst_ip: str
    protocol: str
    src_port: int
    dst_port: int
    bytes_total: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"flow ends at {self.end} before start {self.start}")
        if self.protocol not in ("tcp", "udp"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.bytes_total < 0:
            raise ValueError(f"negative flow bytes {self.bytes_total!r}")
        if not (0 < self.dst_port < 65536) or not (0 < self.src_port < 65536):
            raise ValueError(
                f"port out of range: src={self.src_port}, dst={self.dst_port}"
            )
        parse_ipv4(self.dst_ip)


@dataclass(frozen=True)
class DemandSession:
    """The strategy-independent demand behind one session.

    ``realm_bytes`` is the ground-truth per-realm traffic (a 6-tuple in
    :class:`~repro.trace.apps.AppRealm` order).  ``group_id`` is the
    generator's ground-truth social group, carried for validation only —
    the S³ pipeline never reads it.
    """

    user_id: str
    building_id: str
    arrival: float
    departure: float
    realm_bytes: Tuple[float, ...]
    group_id: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.departure >= self.arrival:
            raise ValueError(
                f"demand for {self.user_id} departs at {self.departure} "
                f"before arriving at {self.arrival}, or either is NaN"
            )
        if len(self.realm_bytes) != N_REALMS:
            raise ValueError(
                f"expected {N_REALMS} realm volumes, got {len(self.realm_bytes)}"
            )
        if not all(b >= 0 for b in self.realm_bytes):
            raise ValueError("negative or NaN realm volume")

    @property
    def duration(self) -> float:
        """Demanded online time in seconds."""
        return self.departure - self.arrival

    @property
    def bytes_total(self) -> float:
        """Total demanded bytes across all realms."""
        return float(sum(self.realm_bytes))

    @property
    def mean_rate(self) -> float:
        """Mean demanded throughput in bytes/second."""
        if self.duration <= 0:
            return 0.0
        return self.bytes_total / self.duration

    def realm_vector(self) -> np.ndarray:
        """The per-realm volumes as a numpy vector."""
        return np.asarray(self.realm_bytes, dtype=float)


def session_rows(
    rows: Iterable[Tuple[str, str, str, float, float, float]],
) -> List[SessionRecord]:
    """One :class:`SessionRecord` per ``(user_id, ap_id, controller_id,
    connect, disconnect, bytes_total)`` row, checked once.

    The rows are checked as columns; the first row the record's own
    checks reject is rejected with its error.  Each record is then built
    field by field with ``object.__setattr__``, as the frozen dataclass
    ``__init__`` builds it, without its per-record argument handling and
    checks: the same records as one ``SessionRecord(*row)`` per row.
    """
    rows = rows if isinstance(rows, list) else list(rows)
    if rows:
        _, _, _, connect, disconnect, size = zip(*rows)
        bad = np.less(disconnect, connect) | np.less(size, 0)
        if bad.any():
            SessionRecord(*rows[int(np.argmax(bad))])
    new, put = object.__new__, object.__setattr__
    out: List[SessionRecord] = []
    append = out.append
    for user_id, ap_id, controller_id, connect, disconnect, size in rows:
        record = new(SessionRecord)
        put(record, "user_id", user_id)
        put(record, "ap_id", ap_id)
        put(record, "controller_id", controller_id)
        put(record, "connect", connect)
        put(record, "disconnect", disconnect)
        put(record, "bytes_total", size)
        append(record)
    return out


def demand_rows(
    user_ids: Sequence[str],
    building_ids: Sequence[str],
    arrivals: np.ndarray,
    departures: np.ndarray,
    realm_bytes: np.ndarray,
    group_ids: Sequence[Optional[str]],
) -> List[DemandSession]:
    """One :class:`DemandSession` per row of these columns, checked once.

    ``arrivals`` and ``departures`` are float vectors and ``realm_bytes``
    an ``(n, N_REALMS)`` float matrix.  The columns are checked as
    columns; the first row the record's own checks reject is rejected
    with its error.  Each record is then built as :func:`session_rows`
    builds one: the same records as one ``DemandSession(...)`` per row.
    """
    arrival = np.asarray(arrivals, dtype=float)
    departure = np.asarray(departures, dtype=float)
    volumes = np.asarray(realm_bytes, dtype=float)
    n = len(arrival)
    if not len(user_ids) == len(building_ids) == len(group_ids) == len(departure) == n:
        raise ValueError("column lengths disagree")
    if not n:
        return []
    if volumes.shape != (n, N_REALMS):
        raise ValueError(
            f"expected {N_REALMS} realm volumes per row, got {volumes.shape}"
        )
    rows = list(
        zip(
            user_ids,
            building_ids,
            arrival.tolist(),
            departure.tolist(),
            map(tuple, volumes.tolist()),
            group_ids,
        )
    )
    bad = ~(departure >= arrival) | (np.count_nonzero(volumes >= 0, axis=1) < N_REALMS)
    if bad.any():
        DemandSession(*rows[int(np.argmax(bad))])
    new, put = object.__new__, object.__setattr__
    out: List[DemandSession] = []
    append = out.append
    for user_id, building_id, start, end, realms, group_id in rows:
        record = new(DemandSession)
        put(record, "user_id", user_id)
        put(record, "building_id", building_id)
        put(record, "arrival", start)
        put(record, "departure", end)
        put(record, "realm_bytes", realms)
        put(record, "group_id", group_id)
        append(record)
    return out


R = TypeVar("R")


def _sorted_rows(rows: Iterable[R], first: str, *rest: str) -> List[R]:
    """``sorted(rows, key=attrgetter(first, *rest))``, with no sort when
    the rows already are in that order, as generated demands and
    replayed sessions arrive (a stable sort leaves such rows as they
    are).  ``first`` is a float field: the order is checked on it as a
    column, and on the whole key only where it does not increase."""
    rows = list(rows)
    key = attrgetter(first, *rest)
    leading = np.fromiter(map(attrgetter(first), rows), dtype=float, count=len(rows))
    stalls = np.flatnonzero(~(leading[:-1] < leading[1:])).tolist()
    if all(key(rows[i]) <= key(rows[i + 1]) for i in stalls):
        return rows
    return sorted(rows, key=key)


class TraceBundle:
    """An immutable-ish container for one synthetic (or loaded) trace.

    Holds the three record families plus the id universe, with the indexed
    accessors the analysis toolkit needs.  Records are stored sorted by
    start time; accessors build lazy per-user / per-AP indices.

    The flow log is held only as :class:`~repro.trace.columnar.FlowArrays`
    columns, ordered by ``(start, user_id, dst_port)``.  ``flows=`` takes
    either columns (passed through when already in that order) or
    :class:`FlowRecord` rows, which are transposed once.  :attr:`flows`
    materialises rows on each read for CSV I/O and tests; product paths
    read :meth:`flow_columns`.
    """

    def __init__(
        self,
        sessions: Iterable[SessionRecord] = (),
        flows: Union[Iterable[FlowRecord], "FlowArrays"] = (),
        demands: Iterable[DemandSession] = (),
    ) -> None:
        from repro.trace.columnar import FlowArrays

        self.sessions: List[SessionRecord] = _sorted_rows(
            sessions, "connect", "user_id", "ap_id"
        )
        if not isinstance(flows, FlowArrays):
            flows = FlowArrays.from_flows(list(flows))
        self._flows: "FlowArrays" = flows.sorted_by_start()
        self.demands: List[DemandSession] = _sorted_rows(
            demands, "arrival", "user_id"
        )
        self._sessions_by_user: Optional[Dict[str, List[SessionRecord]]] = None
        self._sessions_by_ap: Optional[Dict[str, List[SessionRecord]]] = None
        self._flows_by_user: Optional[Dict[str, "FlowArrays"]] = None
        self._columns: Optional["SessionArrays"] = None
        self._demand_columns: Optional["DemandArrays"] = None

    # ------------------------------------------------------------------ ids

    @property
    def user_ids(self) -> List[str]:
        """All user ids seen anywhere in the bundle, sorted."""
        ids = {r.user_id for r in self.sessions}
        ids.update(self._flows.present_user_ids())
        ids.update(r.user_id for r in self.demands)
        return sorted(ids)

    @property
    def ap_ids(self) -> List[str]:
        """All AP ids seen in the session log, sorted."""
        return sorted({r.ap_id for r in self.sessions})

    @property
    def controller_ids(self) -> List[str]:
        """All controller ids seen in the session log, sorted."""
        return sorted({r.controller_id for r in self.sessions})

    # ---------------------------------------------------------------- flows

    @property
    def flows(self) -> List[FlowRecord]:
        """The flow log as rows, built afresh on every read (nothing cached).

        For CSV I/O, pseudonymization and tests; product paths read the
        columns (:meth:`flow_columns`).
        """
        return self._flows.to_flows()

    @property
    def n_flows(self) -> int:
        """Number of flows in the log."""
        return self._flows.n_rows

    def flow_columns(self) -> "FlowArrays":
        """The flow log as :class:`~repro.trace.columnar.FlowArrays`.

        Rows are in ``(start, user_id, dst_port)`` order, the order
        :attr:`flows` lists them in.
        """
        return self._flows

    def flows_before(self, time: float) -> "FlowArrays":
        """The flows starting before ``time``: a prefix view, no copy."""
        count = int(np.searchsorted(self._flows.start, time, side="left"))
        return self._flows.slice_rows(slice(0, count))

    # -------------------------------------------------------------- indexing

    def sessions_by_user(self) -> Dict[str, List[SessionRecord]]:
        """user id -> that user's sessions (built lazily)."""
        if self._sessions_by_user is None:
            index: Dict[str, List[SessionRecord]] = {}
            for record in self.sessions:
                index.setdefault(record.user_id, []).append(record)
            self._sessions_by_user = index
        return self._sessions_by_user

    def sessions_by_ap(self) -> Dict[str, List[SessionRecord]]:
        """ap id -> its sessions (built lazily)."""
        if self._sessions_by_ap is None:
            index: Dict[str, List[SessionRecord]] = {}
            for record in self.sessions:
                index.setdefault(record.ap_id, []).append(record)
            self._sessions_by_ap = index
        return self._sessions_by_ap

    def columns(self) -> "SessionArrays":
        """The session log as cached :class:`~repro.trace.columnar.SessionArrays`.

        Built on first use and shared by every numpy consumer (churn
        extraction, co-leaving sweeps), so one trace pays the transpose
        once.  The bundle's session list never mutates, so the cache never
        invalidates.
        """
        if self._columns is None:
            from repro.trace.columnar import SessionArrays

            self._columns = SessionArrays.from_sessions(self.sessions)
        return self._columns

    def demand_columns(self) -> "DemandArrays":
        """The demand stream as cached :class:`~repro.trace.columnar.DemandArrays`.

        This is the transport form the sharded runtime publishes into
        shared memory; like :meth:`columns` it is built once and shared.
        """
        if self._demand_columns is None:
            from repro.trace.columnar import DemandArrays

            self._demand_columns = DemandArrays.from_demands(self.demands)
        return self._demand_columns

    def flows_by_user(self) -> Dict[str, "FlowArrays"]:
        """user id -> that user's flows in log order (built lazily).

        Keys are in sorted user-id order; each value is a row subset of
        :meth:`flow_columns`.
        """
        if self._flows_by_user is None:
            self._flows_by_user = self._flows.by_user()
        return self._flows_by_user

    # -------------------------------------------------------------- slicing

    def sessions_in(self, lo: float, hi: float) -> List[SessionRecord]:
        """Sessions overlapping the half-open window ``[lo, hi)``."""
        return [r for r in self.sessions if r.connect < hi and r.disconnect > lo]

    def flows_in(self, lo: float, hi: float) -> "FlowArrays":
        """Flows overlapping the half-open window [lo, hi), as columns."""
        flows = self._flows
        return flows.slice_rows((flows.start < hi) & (flows.end > lo))

    def demands_in(self, lo: float, hi: float) -> List[DemandSession]:
        """Demands overlapping the half-open window [lo, hi)."""
        return [r for r in self.demands if r.arrival < hi and r.departure > lo]

    def restrict(self, lo: float, hi: float) -> "TraceBundle":
        """A new bundle containing only records overlapping ``[lo, hi)``."""
        return TraceBundle(
            sessions=self.sessions_in(lo, hi),
            flows=self.flows_in(lo, hi),
            demands=self.demands_in(lo, hi),
        )

    # ------------------------------------------------------------- mutation

    def merged_with(self, other: "TraceBundle") -> "TraceBundle":
        """A new bundle with the union of both bundles' records."""
        from repro.trace.columnar import FlowArrays

        return TraceBundle(
            sessions=self.sessions + other.sessions,
            flows=FlowArrays.concat([self._flows, other._flows]),
            demands=self.demands + other.demands,
        )

    def __len__(self) -> int:
        return len(self.sessions)

    def __repr__(self) -> str:
        return (
            f"TraceBundle(sessions={len(self.sessions)}, "
            f"flows={self.n_flows}, demands={len(self.demands)}, "
            f"users={len(self.user_ids)})"
        )
