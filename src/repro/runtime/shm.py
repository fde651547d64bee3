"""Zero-copy demand transport over POSIX shared memory.

The process engine used to pickle every shard's demand slice into the
pool — at trace scale the serialization tax made the parallel engine
*slower* than serial.  This module replaces that handoff:

* the parent publishes a run's demand stream
  (:class:`~repro.trace.columnar.DemandArrays`) into one
  :class:`multiprocessing.shared_memory.SharedMemory` segment, **once
  per run**;
* workers receive a :class:`ShmHandle` — segment name plus column
  dtypes/shapes/offsets, a few hundred bytes of pickle — attach
  read-only, and slice their controller-domain rows by index range
  (:class:`ShmSlice`);
* nothing numpy crosses the pool boundary by value (enforced by the
  ``no-pickled-columns`` lint rule).

Segment lifecycle contract
--------------------------

Creation and destruction belong to the parent: a :class:`SegmentSet`
context manager owns every segment it publishes and closes **and
unlinks** them on exit — normal return, worker crash, or
``KeyboardInterrupt`` all pass through its ``finally``.  Workers only
ever attach and close; they never unlink, so the parent's single
``unlink()`` also keeps the :mod:`multiprocessing.resource_tracker`
ledger balanced (no leak warnings at interpreter shutdown).

A parent killed hard (SIGKILL, OOM) cannot run ``finally`` blocks; its
segments become orphans in ``/dev/shm``.  :func:`reap_orphans` — called
by the engine before each sharded run — quarantines those the way
:mod:`repro.runtime.checkpoint` quarantines ``*.corrupt`` pickles:
every segment whose embedded creator pid is dead is removed and
reported, never silently ignored.  (Unlike a corrupt checkpoint, a dead
run's segment has no post-mortem value, so quarantine deletes instead
of renaming — the warning log is the audit trail.)

Attach safety: numpy views built over ``SharedMemory.buf`` do **not**
pin the mapping — numpy releases the Py_buffer immediately and keeps a
bare pointer, so ``close()`` succeeds and unmaps even while views are
alive, turning them into dangling pointers.  The contract is therefore
scope-based: arrays yielded by :func:`attach_demands` are valid *only
inside the* ``with`` *block*; anything that
must outlive it is copied out first, which is exactly what the
worker-facing :func:`fetch_demands` does before its mapping closes.
"""

from __future__ import annotations

import itertools
import logging
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.trace.columnar import DemandArrays

_LOG = logging.getLogger(__name__)

#: Live published segment bytes, parent-side only (a worker never
#: publishes).  Read by the ``mem.shm_bytes`` memory-probe source.
_SHM_BYTES: Dict[str, int] = {"published": 0}


def published_bytes() -> float:
    """Bytes currently published in this process's live segments."""
    return float(_SHM_BYTES["published"])

#: Segment names are ``repro-shm-<creator pid>-<seq>``; the pid is what
#: lets :func:`reap_orphans` tell a live run's segments from a dead one's.
_SEGMENT_PREFIX = "repro-shm"
_SEGMENT_PATTERN = re.compile(r"^repro-shm-(\d+)-\d+$")
_SEGMENT_SEQ = itertools.count()

#: Where POSIX shared memory surfaces as files on Linux.
_SHM_DIR = "/dev/shm"

#: Column offsets are aligned so every numpy view starts on a boundary
#: friendly to vectorized loads.
_ALIGN = 16


@dataclass(frozen=True)
class ColumnSpec:
    """One column's location inside a segment."""

    name: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class ShmHandle:
    """A compact, picklable description of one published demand stream."""

    segment: str
    specs: Tuple[ColumnSpec, ...]
    nbytes: int


@dataclass(frozen=True)
class ShmSlice:
    """A worker's row range ``[start, stop)`` of a published stream."""

    handle: ShmHandle
    start: int
    stop: int


# ------------------------------------------------------------------ packing


def _table_columns(name: str, values: Sequence[str]) -> List[Tuple[str, np.ndarray]]:
    """A string table as two flat columns: utf-8 blob + end offsets."""
    encoded = [value.encode("utf-8") for value in values]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    for i, piece in enumerate(encoded):
        offsets[i + 1] = offsets[i] + len(piece)
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    return [(f"{name}#off", offsets), (f"{name}#blob", blob)]


def _decode_table(views: Dict[str, np.ndarray], name: str) -> List[str]:
    """Rebuild a string table (owned copies; strings outlive the segment)."""
    offsets = views[f"{name}#off"]
    data = views[f"{name}#blob"].tobytes()
    return [
        data[int(offsets[i]) : int(offsets[i + 1])].decode("utf-8")
        for i in range(len(offsets) - 1)
    ]


def _pack(
    columns: Sequence[Tuple[str, np.ndarray]]
) -> Tuple[Tuple[ColumnSpec, ...], int]:
    """Lay out ``columns`` back to back: specs and total bytes."""
    specs: List[ColumnSpec] = []
    offset = 0
    for name, array in columns:
        array = np.ascontiguousarray(array)
        spec = ColumnSpec(
            name=name,
            dtype=array.dtype.name,
            shape=tuple(int(dim) for dim in array.shape),
            offset=offset,
        )
        specs.append(spec)
        offset += array.nbytes
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
    return tuple(specs), offset


def _attach_views(
    handle: ShmHandle, buf: memoryview
) -> Dict[str, np.ndarray]:
    """Read-only numpy views of every column in an attached segment."""
    views: Dict[str, np.ndarray] = {}
    for spec in handle.specs:
        view = np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype), buffer=buf, offset=spec.offset
        )
        view.flags.writeable = False
        views[spec.name] = view
    return views


# ------------------------------------------------------------ demand schema


def _demand_columns(arrays: DemandArrays) -> List[Tuple[str, np.ndarray]]:
    columns = _table_columns("user_ids", arrays.user_ids)
    columns += _table_columns("building_ids", arrays.building_ids)
    columns += _table_columns("group_ids", arrays.group_ids)
    columns += [
        ("user", arrays.user),
        ("building", arrays.building),
        ("group", arrays.group),
        ("arrival", arrays.arrival),
        ("departure", arrays.departure),
        ("realm_bytes", arrays.realm_bytes),
    ]
    return columns


def _demands_from_views(views: Dict[str, np.ndarray]) -> DemandArrays:
    return DemandArrays(
        _decode_table(views, "user_ids"),
        _decode_table(views, "building_ids"),
        _decode_table(views, "group_ids"),
        views["user"],
        views["building"],
        views["group"],
        views["arrival"],
        views["departure"],
        views["realm_bytes"],
    )


# ------------------------------------------------------------- publishing


def _create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """A fresh named segment (collision-proof via the module counter)."""
    while True:
        name = f"{_SEGMENT_PREFIX}-{os.getpid()}-{next(_SEGMENT_SEQ)}"
        try:
            return shared_memory.SharedMemory(
                name=name, create=True, size=max(1, nbytes)
            )
        except FileExistsError:
            # A dead run with our pid number left this name behind; the
            # counter moves on and the orphan reaper will collect it.
            continue


def _close_quietly(segment: shared_memory.SharedMemory) -> None:
    """Close one mapping, tolerating still-exported buffers.

    Some buffer consumers (plain ``memoryview`` slices) do keep exports
    that make ``close()`` raise :class:`BufferError`; numpy views do
    not, so closing normally just unmaps.  Either way the *name* is
    freed by the owner's unlink — this helper only guards the close.
    """
    try:
        segment.close()
    except BufferError:
        pass


class SegmentSet:
    """Owner of every segment one run publishes.

    Use as a context manager around publish + pool execution; ``__exit__``
    closes and unlinks every segment no matter how the block ends.  Both
    operations are idempotent, so an explicit early :meth:`unlink` (or a
    second ``__exit__`` via nesting bugs) is harmless.
    """

    def __init__(self) -> None:
        self._segments: List[shared_memory.SharedMemory] = []
        self._released = False
        self._nbytes = 0

    def publish_demands(self, arrays: DemandArrays) -> ShmHandle:
        """Copy a demand stream's columns into a fresh segment."""
        if self._released:
            raise RuntimeError("SegmentSet already released")
        columns = _demand_columns(arrays)
        specs, nbytes = _pack(columns)
        segment = _create_segment(nbytes)
        self._segments.append(segment)
        self._nbytes += nbytes
        _SHM_BYTES["published"] += nbytes
        for spec, (_, array) in zip(specs, columns):
            if not array.size:
                continue
            dst = np.ndarray(
                spec.shape,
                dtype=np.dtype(spec.dtype),
                buffer=segment.buf,
                offset=spec.offset,
            )
            dst[...] = array
            del dst
        return ShmHandle(segment=segment.name, specs=specs, nbytes=nbytes)

    def release(self) -> None:
        """Close and unlink every owned segment (idempotent)."""
        if self._released:
            return
        self._released = True
        _SHM_BYTES["published"] = max(
            0, _SHM_BYTES["published"] - self._nbytes
        )
        self._nbytes = 0
        for segment in self._segments:
            _close_quietly(segment)
            try:
                segment.unlink()
            except FileNotFoundError:
                pass  # already reaped or unlinked — nothing left to free
        self._segments.clear()

    def __enter__(self) -> "SegmentSet":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


# -------------------------------------------------------------- attaching


@contextmanager
def attach_demands(handle: ShmHandle) -> Iterator[DemandArrays]:
    """Attach read-only and yield the handle's demand columns.

    The yielded arrays are live views of the segment; copy anything that
    must outlive the ``with`` block (see :func:`fetch_demands`).
    """
    segment = shared_memory.SharedMemory(name=handle.segment, create=False)
    views: Optional[Dict[str, np.ndarray]] = None
    try:
        views = _attach_views(handle, segment.buf)
        yield _demands_from_views(views)
    finally:
        del views
        _close_quietly(segment)


def fetch_demands(rows: ShmSlice) -> DemandArrays:
    """A worker's owned copy of its demand rows.

    Attaches, slices ``[start, stop)``, copies the slice out, then
    drops every view and closes the mapping — the returned arrays own
    their memory and survive the segment's unmapping.
    """
    with attach_demands(rows.handle) as arrays:
        return arrays.slice_rows(slice(rows.start, rows.stop)).copy()


# ------------------------------------------------------------- lifecycle


def list_segments() -> List[str]:
    """Names of every ``repro-shm-*`` segment currently in ``/dev/shm``."""
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return []
    return sorted(name for name in entries if _SEGMENT_PATTERN.match(name))


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


def reap_orphans() -> List[str]:
    """Quarantine segments whose creator process is dead.

    Returns the reaped names; each one is logged as a warning so an
    orphaned run is visible, never silently swept.  Live runs' segments
    (creator pid still alive — including ours) are untouched.
    """
    reaped: List[str] = []
    for name in list_segments():
        match = _SEGMENT_PATTERN.match(name)
        assert match is not None  # list_segments pre-filtered
        if _pid_alive(int(match.group(1))):
            continue
        try:
            # Direct unlink of the backing file: attaching first would
            # re-register the name with the resource tracker and then
            # warn when we did not create it.
            os.unlink(os.path.join(_SHM_DIR, name))
        except OSError:
            continue  # raced with another reaper, or not ours to remove
        _LOG.warning(
            "reaped orphaned shared-memory segment %s (creator pid dead)", name
        )
        reaped.append(name)
    return reaped


# Window-boundary memory probes include live segment bytes: shm usage is
# the scale knob the ROADMAP's peak-RSS target actually turns on.
obs_metrics.register_memory_source("mem.shm_bytes", published_bytes)
