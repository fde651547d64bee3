"""Checkpoint/resume for sweeps and service snapshots.

A :class:`RunDirectory` owns one directory holding:

* ``meta.json`` — the run ``kind`` (``"sweep"``, or the service's) and the
  plan fingerprint.  A directory created for one plan refuses to serve
  another: resuming a sweep with different parameters against stale
  results would silently mix runs.
* ``task-<slug>-<crc>.pkl`` — one pickle per completed unit of work,
  written atomically (temp file + ``os.replace``) so a kill mid-write
  never leaves a readable-but-truncated checkpoint.
* ``task-<slug>-<crc>.failed.json`` — a quarantine marker for a task
  that exhausted its retries (see :mod:`repro.runtime.resilience`);
  cleared automatically when the task later checkpoints successfully.

Resume is implicit: the dispatcher asks :meth:`RunDirectory.has` before
scheduling each task and re-executes only the misses.

Corruption never aborts a resume.  A checkpoint that no longer
unpickles (truncated by a crash, written by an incompatible version) is
quarantined — renamed to ``*.corrupt`` with a logged warning — and
treated as a miss, so the task simply re-executes.  A ``meta.json`` that
no longer parses quarantines *everything*: without the plan fingerprint
the directory's checkpoints cannot be trusted to belong to this run.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
import re
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import perf

_META_NAME = "meta.json"

_LOG = logging.getLogger(__name__)

#: Exceptions a stale/truncated/foreign pickle can raise on load.  Kept
#: deliberately wide: any of these means "this checkpoint is unusable",
#: and the correct recovery is identical — quarantine and re-execute.
_CORRUPT_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    ValueError,
)


def _task_filename(task_id: str) -> str:
    """A filesystem-safe, collision-resistant name for ``task_id``."""
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", task_id)[:80]
    digest = zlib.crc32(task_id.encode("utf-8"))
    return f"task-{slug}-{digest:08x}.pkl"


class RunDirectory:
    """One run's checkpoint store."""

    def __init__(
        self, path: Union[str, Path], kind: str, fingerprint: str
    ) -> None:
        self.path = Path(path)
        self.kind = kind
        self.fingerprint = fingerprint
        self.path.mkdir(parents=True, exist_ok=True)
        meta_path = self.path / _META_NAME
        if meta_path.exists():
            meta = self._read_meta(meta_path)
            if meta is not None:
                if (
                    meta.get("kind") != kind
                    or meta.get("fingerprint") != fingerprint
                ):
                    raise RuntimeError(
                        f"run directory {self.path} belongs to a different "
                        f"run (found kind={meta.get('kind')!r} "
                        f"fingerprint={meta.get('fingerprint')!r}, expected "
                        f"kind={kind!r} fingerprint={fingerprint!r}); "
                        "refusing to mix checkpoints"
                    )
                return
        self._write_meta(meta_path)

    def _read_meta(self, meta_path: Path) -> Optional[Dict[str, Any]]:
        """Parse ``meta.json``; on corruption quarantine the whole run.

        A directory whose meta no longer parses has lost its identity:
        none of its checkpoints can be verified to belong to this plan,
        so every task pickle is quarantined alongside the meta and the
        run re-executes from scratch.
        """
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            if not isinstance(meta, dict):
                raise ValueError(f"expected a JSON object, got {type(meta)}")
            return meta
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
            quarantined = self._quarantine(meta_path)
            stale = sorted(self.path.glob("task-*.pkl"))
            for task_path in stale:
                self._quarantine(task_path)
            _LOG.warning(
                "run directory %s: meta.json is corrupt (%s); quarantined "
                "it as %s plus %d unverifiable checkpoint(s); the run "
                "re-executes from scratch",
                self.path,
                exc,
                quarantined.name,
                len(stale),
            )
            return None

    def _write_meta(self, meta_path: Path) -> None:
        meta_path.write_text(
            json.dumps(
                {"kind": self.kind, "fingerprint": self.fingerprint},
                separators=(",", ":"),
            )
            + "\n",
            encoding="utf-8",
        )

    @staticmethod
    def _quarantine(path: Path) -> Path:
        """Rename ``path`` out of the way as ``<name>.corrupt``.

        A numbered suffix avoids clobbering the evidence of an earlier
        quarantine of the same file.
        """
        target = path.with_name(path.name + ".corrupt")
        counter = 1
        while target.exists():
            target = path.with_name(f"{path.name}.corrupt{counter}")
            counter += 1
        os.replace(path, target)
        return target

    # ----------------------------------------------------------- task slots

    def _task_path(self, task_id: str) -> Path:
        return self.path / _task_filename(task_id)

    def _failure_path(self, task_id: str) -> Path:
        return self.path / (_task_filename(task_id)[: -len(".pkl")] + ".failed.json")

    def has(self, task_id: str) -> bool:
        """Whether ``task_id`` already has a completed checkpoint."""
        return self._task_path(task_id).exists()

    def try_load(self, task_id: str) -> Tuple[bool, Any]:
        """``(True, value)`` for a readable checkpoint, else ``(False, None)``.

        A checkpoint file that exists but cannot be unpickled is
        quarantined as ``*.corrupt`` (with a logged warning) and reported
        as a miss, so the caller re-executes the task instead of dying on
        someone else's truncated write.
        """
        target = self._task_path(task_id)
        if not target.exists():
            return False, None
        try:
            with perf.timer("checkpoint.load"):
                with target.open("rb") as handle:
                    return True, pickle.load(handle)
        except _CORRUPT_ERRORS as exc:
            quarantined = self._quarantine(target)
            _LOG.warning(
                "checkpoint %s for task %s is corrupt (%s: %s); quarantined "
                "as %s, task re-executes",
                target.name,
                task_id,
                type(exc).__name__,
                exc,
                quarantined.name,
            )
            return False, None

    def load(self, task_id: str) -> Any:
        """The checkpointed value of ``task_id`` (missing/corrupt raises)."""
        hit, value = self.try_load(task_id)
        if not hit:
            raise FileNotFoundError(
                f"no readable checkpoint for task {task_id!r} in {self.path}"
            )
        return value

    def store(self, task_id: str, value: Any) -> None:
        """Persist ``value`` for ``task_id`` atomically.

        Also clears any quarantine marker from an earlier failed run of
        the same task: a successful checkpoint supersedes the failure.
        """
        target = self._task_path(task_id)
        tmp = target.with_suffix(".tmp")
        with perf.timer("checkpoint.store"):
            with tmp.open("wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, target)
        failure = self._failure_path(task_id)
        if failure.exists():
            failure.unlink()

    def completed(self, task_ids: Sequence[str]) -> List[str]:
        """The subset of ``task_ids`` with a checkpoint, in given order."""
        return [task_id for task_id in task_ids if self.has(task_id)]

    def stored_slots(self) -> List[str]:
        """Task ids of every stored checkpoint, recovered from filenames.

        Only ids that survive the filename slug unchanged (safe charset,
        at most 80 characters — verified by re-hashing the slug against
        the embedded digest) can be recovered; other checkpoints are
        skipped.  The service supervisor discovers its latest
        ``snapshot-<seq>`` slot this way after a crash, when the writing
        process (and its in-memory slot list) is gone.
        """
        slots: List[str] = []
        for path in sorted(self.path.glob("task-*.pkl")):
            match = re.fullmatch(r"task-(.+)-([0-9a-f]{8})\.pkl", path.name)
            if match is None:
                continue
            slug = match.group(1)
            if f"{zlib.crc32(slug.encode('utf-8')):08x}" == match.group(2):
                slots.append(slug)
        return slots

    # ------------------------------------------------------ failure markers

    def store_failure(self, task_id: str, detail: Dict[str, Any]) -> None:
        """Persist a quarantine marker for a task that exhausted retries."""
        self._failure_path(task_id).write_text(
            json.dumps(
                {"task_id": task_id, **detail},
                separators=(",", ":"),
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )

    def has_failure(self, task_id: str) -> bool:
        """Whether ``task_id`` carries a quarantine marker."""
        return self._failure_path(task_id).exists()

    def load_failure(self, task_id: str) -> Dict[str, Any]:
        """The quarantine marker of ``task_id``."""
        data = json.loads(
            self._failure_path(task_id).read_text(encoding="utf-8")
        )
        if not isinstance(data, dict):
            raise ValueError(f"malformed failure marker for {task_id!r}")
        return data

    def failed(self, task_ids: Sequence[str]) -> List[str]:
        """The subset of ``task_ids`` with a failure marker, in order."""
        return [task_id for task_id in task_ids if self.has_failure(task_id)]
