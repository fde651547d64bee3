"""Encoder forms of the hand-assembled lines: the write path's test oracle.

:func:`repro.obs.journal.dumps_record` writes decision and sample lines,
and :func:`repro.service.supervisor.wal_line` WAL lines, by string
assembly.  These are the dict payloads and encoders those lines are
defined by; the parity tests compare the two byte for byte.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.obs.records import DecisionRecord, SampleRecord
from repro.service.events import ServiceEvent, StationJoin, StationLeave

_ENCODER = json.JSONEncoder(separators=(",", ":"))
_WAL_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def decision_payload(record: DecisionRecord) -> Dict[str, Any]:
    data: Dict[str, Any] = {
        "user": record.user_id,
        "strategy": record.strategy,
        "controller": record.controller_id,
        "batch": record.batch_id,
        "sim_time": record.sim_time,
        "chosen": record.chosen,
        "mode": record.mode,
    }
    if record.note is not None:
        data["note"] = record.note
    data["candidates"] = [
        {"ap": c.ap_id, "load": c.load, "users": c.users, "score": c.score}
        for c in record.candidates
    ]
    return data


def sample_payload(record: SampleRecord) -> Dict[str, Any]:
    return {
        "sim_time": record.sim_time,
        "controller": record.controller_id,
        "balance": record.balance,
        "total_load": record.total_load,
        "users": record.users,
    }


def record_line(record: Any) -> str:
    """The journal line of a decision or sample record, via the encoder."""
    if isinstance(record, DecisionRecord):
        kind, data = "decision", decision_payload(record)
    else:
        kind, data = "sample", sample_payload(record)
    return _ENCODER.encode({"type": kind, "data": data})


def wal_line(event: ServiceEvent) -> str:
    """The WAL line of ``event``: compact, sorted keys, via the encoder."""
    payload: Dict[str, Any] = {
        "seq": event.seq,
        "time": event.time,
        "user": event.user_id,
    }
    if isinstance(event, StationJoin):
        payload["kind"] = "join"
    elif isinstance(event, StationLeave):
        payload["kind"] = "leave"
    else:
        payload["kind"] = "stats"
        payload["rate"] = event.mean_rate
    return _WAL_ENCODER.encode(payload)
