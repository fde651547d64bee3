"""Deterministic reassembly of per-shard outputs.

Two merges happen after a sharded replay, and both must reproduce the
serial engine's output exactly:

**Results.**  Sessions concatenate and re-sort by ``(connect, user_id)``
— the serial engine's own output order.  Per-controller series are
disjoint across outcomes (each worker samples only its own controller
group on the shared :class:`~repro.wlan.replay.ReplayWindow` grid), so
the series dict is a keyed union.  Event counts need one correction:
every worker group processes its *own* copy of the periodic
sampler/poller ticks, which the serial run processes exactly once, so
the merged count subtracts the ``(k - 1)`` duplicate tick sets for
``k`` outcomes.

**Journal fragments.**  The serial engine emits records in event order:
at one instant, flush-phase records (decisions, then the closing
``replay.flush`` span) precede sampler records, sampler records tick
through controllers in sorted order, and the ``sim.run`` span closes
after everything.  Worker fragments each preserve that order *within*
a shard; the merge reassembles the global order by interleaving
*units* — one flush group (its decisions plus the closing span) or one
sample record — on the canonical key ``(sim_time, phase, tie)``, drops
each worker's private ``sim.run`` span, renumbers the surviving spans
consecutively under the parent's ``replay.run`` span, and synthesizes
the single ``sim.run`` record the serial engine would have written.

The tie key needs care: two controllers *do* flush at the same instant
(arrivals are quantized to schedule boundaries), and the serial heap
fires those flushes in the order their flush events were scheduled —
which is the arrival order of each batch's first ("opener") demand, and
arrivals at one instant are processed in ``(arrival, user_id)`` order.
The opener is exactly the batch's first decision record, so a flush
group ties on its first decision's ``user_id``.  Sample units tie on
``controller_id`` (the serial sampler's own iteration order).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.obs.records import (
    DecisionRecord,
    FaultRecord,
    SampleRecord,
    SpanRecord,
)
from repro.obs.tracer import TracedRecord
from repro.runtime.shards import ShardPlan
from repro.runtime.workers import SessionColumns, ShardOutcome
from repro.trace.records import SessionRecord
from repro.wlan.metrics import ControllerSeries
from repro.wlan.replay import ReplayResult

#: Canonical intra-instant phases (mirrors the kernel's event
#: priorities): fault records fire first at an instant (the engine
#: schedules fault events at priority -1), then flush-phase records,
#: then sampler records.
_PHASE_FAULT = -1
_PHASE_FLUSH = 0
_PHASE_SAMPLE = 1

#: (sim_time, phase, tie, fragment_unit_seq)
_SortKey = Tuple[float, int, str, int]


def merge_shard_results(
    plan: ShardPlan,
    outcomes: Sequence[ShardOutcome],
    strategy_name: str,
) -> ReplayResult:
    """Reassemble per-shard (or per-group) results into the serial output.

    Outcomes may carry one controller each or a whole worker group's;
    what must hold is that together they cover every controller of the
    plan exactly once.
    """
    expected = {shard.controller_id for shard in plan.shards}
    covered = {cid for outcome in outcomes for cid in outcome.series}
    if covered != expected:
        raise ValueError(
            f"outcomes cover controllers {sorted(covered)}, "
            f"plan expects {sorted(expected)}"
        )
    sessions = merge_session_columns([outcome.sessions for outcome in outcomes])
    series: Dict[str, ControllerSeries] = {}
    for outcome in sorted(outcomes, key=lambda o: o.controller_id):
        for controller_id, controller_series in outcome.series.items():
            if controller_id in series:
                raise ValueError(
                    f"controller {controller_id!r} sampled by two shards"
                )
            series[controller_id] = controller_series
    tick_sets = {(o.sampler_ticks, o.poller_ticks) for o in outcomes}
    if len(tick_sets) != 1:
        raise ValueError(
            f"shards disagree on the periodic grid: {sorted(tick_sets)} — "
            "they were not run against one shared window"
        )
    sampler_ticks, poller_ticks = next(iter(tick_sets))
    duplicates = (len(outcomes) - 1) * (sampler_ticks + poller_ticks)
    events = sum(o.events_processed for o in outcomes) - duplicates
    return ReplayResult(
        strategy_name=strategy_name,
        sessions=sessions,
        series=series,
        events_processed=events,
        worker_peak_rss_bytes=tuple(o.peak_rss_bytes for o in outcomes),
    )


def _remap(table: List[str], local: Sequence[str]) -> np.ndarray:
    """local code -> union code, for one sorted union ``table``."""
    return np.searchsorted(
        np.asarray(table, dtype=object), np.asarray(local, dtype=object)
    )


def merge_session_columns(
    columns: Sequence[SessionColumns],
) -> List[SessionRecord]:
    """Fold per-shard session columns into the serial output order.

    The serial engine emits sessions sorted by ``(connect, user_id)``.
    Reassembling that from columns is three array ops: remap each
    shard's codes onto union id tables (sorted union, so code order is
    still lexicographic id order), concatenate in shard-plan order, and
    stable-lexsort by ``(connect, user)``.  Stability makes full-key
    ties keep concatenation order — exactly what ``sorted`` over the
    chained per-shard lists (the previous implementation) produced.
    """
    total = sum(len(c) for c in columns)
    if total == 0:
        return []
    user_ids = sorted(set().union(*(c.user_ids for c in columns)))
    ap_ids = sorted(set().union(*(c.ap_ids for c in columns)))
    controller_ids = sorted(set().union(*(c.controller_ids for c in columns)))
    user_parts: List[np.ndarray] = []
    ap_parts: List[np.ndarray] = []
    controller_parts: List[np.ndarray] = []
    for c in columns:
        if not len(c):
            continue
        # searchsorted over the union table maps each shard-local table
        # entry to its global code; indexing by the shard's code column
        # then remaps every row at once.
        user_parts.append(_remap(user_ids, c.user_ids)[c.user])
        ap_parts.append(_remap(ap_ids, c.ap_ids)[c.ap])
        controller_parts.append(
            _remap(controller_ids, c.controller_ids)[c.controller]
        )
    user = np.concatenate(user_parts)
    ap = np.concatenate(ap_parts)
    controller = np.concatenate(controller_parts)
    connect = np.concatenate([c.connect for c in columns if len(c)])
    disconnect = np.concatenate([c.disconnect for c in columns if len(c)])
    bytes_total = np.concatenate([c.bytes_total for c in columns if len(c)])
    order = np.lexsort((user, connect))
    # Materialize on the post-merge hot path the same way the workers do
    # (see DemandArrays.to_demands): batch-decode the columns with
    # ``tolist`` and build each record via ``__new__`` plus a direct
    # ``__dict__`` assignment.  ``__post_init__`` validation is safely
    # skipped — every row came from a SessionRecord the worker engine
    # already validated at construction.
    user_l = user[order].tolist()
    ap_l = ap[order].tolist()
    controller_l = controller[order].tolist()
    connect_l = connect[order].tolist()
    disconnect_l = disconnect[order].tolist()
    bytes_l = bytes_total[order].tolist()
    new = SessionRecord.__new__
    out: List[SessionRecord] = []
    append = out.append
    for i in range(len(user_l)):
        record = new(SessionRecord)
        record.__dict__.update({
            "user_id": user_ids[user_l[i]],
            "ap_id": ap_ids[ap_l[i]],
            "controller_id": controller_ids[controller_l[i]],
            "connect": connect_l[i],
            "disconnect": disconnect_l[i],
            "bytes_total": bytes_l[i],
        })
        append(record)
    return out


def _fragment_units(
    fragment: Sequence[TracedRecord],
) -> List[Tuple[_SortKey, List[TracedRecord]]]:
    """Split one worker fragment into keyed interleave units.

    A unit is either one flush group — the contiguous decisions of one
    batch followed by its closing ``replay.flush`` span, keyed by the
    flush instant and the opener's user id — or a single sample record,
    keyed by its controller.  Workers' ``sim.run`` spans are dropped
    (the parent synthesizes the single merged one).
    """
    units: List[Tuple[_SortKey, List[TracedRecord]]] = []
    group: List[DecisionRecord] = []
    for record in fragment:
        if isinstance(record, DecisionRecord):
            group.append(record)
            continue
        if isinstance(record, SpanRecord) and record.name == "sim.run":
            if group:
                raise ValueError("decisions dangling outside a flush group")
            continue
        seq = len(units)
        if isinstance(record, SpanRecord):
            if not group:
                raise ValueError(
                    f"span {record.name!r} closed with no decision group"
                )
            close = record.sim_end if record.sim_end is not None else 0.0
            opener = group[0].user_id
            units.append(
                ((close, _PHASE_FLUSH, opener, seq), [*group, record])
            )
            group = []
        elif isinstance(record, SampleRecord):
            units.append(
                (
                    (record.sim_time, _PHASE_SAMPLE, record.controller_id, seq),
                    [record],
                )
            )
        elif isinstance(record, FaultRecord):
            if record.sim_time is None:
                raise ValueError(
                    f"fault record {record.kind!r} in a shard fragment "
                    "carries no sim time"
                )
            # The serial engine schedules a plan's fault events in plan
            # order — sorted (time, kind, target) — so the same key
            # reassembles the global stream (kind tags never prefix one
            # another, so "kind:target" compares like (kind, target)).
            tie = f"{record.kind}:{record.target}"
            units.append(
                ((record.sim_time, _PHASE_FAULT, tie, seq), [record])
            )
        else:
            raise TypeError(
                f"unexpected fragment record {type(record).__name__}"
            )
    if group:
        raise ValueError("fragment ended inside an open flush group")
    return units


def merge_journal_fragments(
    fragments: Sequence[Sequence[TracedRecord]],
    base_id: int,
    base_depth: int,
    sim_start: float,
    sim_end: float,
    events: int,
) -> List[TracedRecord]:
    """Worker tracer fragments → the serial engine's record stream.

    ``base_id``/``base_depth`` identify the parent's open ``replay.run``
    span; the synthetic ``sim.run`` span is numbered directly after it
    and every surviving fragment span is renumbered consecutively in
    canonical order, exactly as the serial engine would have allocated
    ids (flush spans open and close in event order).  ``events`` is the
    *merged* event count (the serial ``sim.run`` span's attribute).
    """
    sim_run_id = base_id + 1
    keyed: List[Tuple[_SortKey, List[TracedRecord]]] = []
    for fragment in fragments:
        keyed.extend(_fragment_units(fragment))
    keyed.sort(key=lambda item: item[0])
    merged: List[TracedRecord] = []
    next_id = sim_run_id + 1
    for _, unit in keyed:
        for record in unit:
            if isinstance(record, SpanRecord):
                record = SpanRecord(
                    span_id=next_id,
                    parent_id=sim_run_id,
                    name=record.name,
                    depth=base_depth + 2,
                    sim_start=record.sim_start,
                    sim_end=record.sim_end,
                    attrs=dict(record.attrs),
                    wall_start=record.wall_start,
                    wall_elapsed=record.wall_elapsed,
                )
                next_id += 1
            merged.append(record)
    merged.append(
        SpanRecord(
            span_id=sim_run_id,
            parent_id=base_id,
            name="sim.run",
            depth=base_depth + 1,
            sim_start=sim_start,
            sim_end=sim_end,
            attrs={"events": events},
            wall_start=0.0,
            wall_elapsed=0.0,
        )
    )
    return merged
