"""Pinned bytes of the service's write side: journal and WAL digests.

The digests in ``tests/fixtures/write_path_digests.json`` are the
SHA-256 of two fixed runs' output:

* ``supervised_journal`` / ``supervised_wal``: the ``strip_wall``
  journal and the raw WAL of a 500-event :func:`run_supervised` session
  with two controller crashes and metrics on;
* ``service_cli_journal``: the ``strip_wall`` journal of
  ``python -m repro.service --seed 11 --events 500 --journal ... --metrics``.

They fail on any change to how a decision, sample, metric window or WAL
line is written, and on any change to which decisions are made.  A change
that moves decisions on purpose regenerates them
(``PYTHONPATH=src python tests/test_write_path_digests.py``) and says why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

from repro.faults import ControllerCrash, FaultPlan
from repro.obs.journal import strip_wall
from repro.service.__main__ import main as service_main
from repro.service.supervisor import WAL_NAME, run_supervised
from repro.service.workload import WorkloadSpec, synthetic_events

DIGESTS = Path(__file__).parent / "fixtures" / "write_path_digests.json"

_SPEC = WorkloadSpec(users=24, aps=6, events=500, seed=17)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stripped_digest(path: Path) -> str:
    return _sha256(strip_wall(path.read_text(encoding="utf-8")).encode("utf-8"))


def compute_digests(workdir: Path) -> Dict[str, str]:
    """The three pinned digests, from runs under ``workdir``."""
    span = synthetic_events(_SPEC)[-1].time
    plan = FaultPlan(tuple(
        ControllerCrash(time=round(span * f, 3), controller_id="svc")
        for f in (0.35, 0.8)
    ))
    supervised = workdir / "supervised.jsonl"
    summary = run_supervised(
        _SPEC, plan, workdir / "work", journal=supervised, metrics=True,
        snapshot_every=40,
    )
    assert summary["recoveries"] == 2
    cli = workdir / "cli.jsonl"
    assert service_main([
        "--seed", "11", "--events", "500", "--journal", str(cli), "--metrics",
    ]) == 0
    return {
        "supervised_journal": _stripped_digest(supervised),
        "supervised_wal": _sha256((workdir / "work" / WAL_NAME).read_bytes()),
        "service_cli_journal": _stripped_digest(cli),
    }


def test_write_path_bytes_match_the_pinned_digests(tmp_path: Path) -> None:
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert compute_digests(tmp_path) == pinned


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        digests = compute_digests(Path(scratch))
    text = json.dumps(digests, indent=2, sort_keys=True) + "\n"
    DIGESTS.write_text(text, encoding="utf-8")
    print(text, end="")
