"""Checkpoint/resume: the run directory and kill-mid-run recovery.

The contract under test: a run that dies mid-way leaves one atomic
checkpoint per *finished* unit of work, and re-invoking with the same
run directory re-executes only the unfinished units.  Execution counts
are observed through marker files the task bodies append to (worker
processes share the filesystem, not the test's memory).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro import obs
from repro.obs.records import FaultRecord
from repro.obs.tracer import get_tracer
from repro.runtime.checkpoint import RunDirectory
from repro.runtime.resilience import TaskFailure, resolve_workers
from repro.runtime.sweep import SweepPlan, make_task, run_sweep

#: Env var steering the module-level worker bodies below (worker
#: processes cannot see test-local state, but they inherit the env).
_MARKER_DIR = "REPRO_TEST_MARKER_DIR"


def _mark(name: str) -> int:
    """Append one run marker for ``name``; returns the execution count."""
    marker = Path(os.environ[_MARKER_DIR]) / name
    with marker.open("a", encoding="utf-8") as handle:
        handle.write("run\n")
    return len(marker.read_text(encoding="utf-8").splitlines())


def _runs(tmp_path: Path, name: str) -> int:
    marker = tmp_path / name
    if not marker.exists():
        return 0
    return len(marker.read_text(encoding="utf-8").splitlines())


def _square_task(x: int, name: str, fail_first: bool = False) -> int:
    """Picklable sweep body: record the execution, die on the first try."""
    if _mark(name) == 1 and fail_first:
        raise RuntimeError(f"injected failure in {name}")
    return x * x


def _kill_task(x: int, name: str) -> int:
    """Picklable body that hard-kills its worker on the first execution."""
    if _mark(name) == 1:
        os._exit(1)
    return x * x


# ------------------------------------------------------------ RunDirectory


def test_run_directory_roundtrip(tmp_path):
    store = RunDirectory(tmp_path / "run", kind="sweep", fingerprint="fp-1")
    assert not store.has("a")
    store.store("a", {"value": 1})
    assert store.has("a")
    assert store.load("a") == {"value": 1}
    assert store.completed(["b", "a"]) == ["a"]
    # atomic write: no temp file survives a completed store
    assert not list(store.path.glob("*.tmp"))


def test_run_directory_refuses_other_runs(tmp_path):
    path = tmp_path / "run"
    RunDirectory(path, kind="sweep", fingerprint="fp-1")
    with pytest.raises(RuntimeError, match="refusing to mix checkpoints"):
        RunDirectory(path, kind="sweep", fingerprint="fp-2")
    with pytest.raises(RuntimeError, match="refusing to mix checkpoints"):
        RunDirectory(path, kind="service", fingerprint="fp-1")
    # the original identity still opens
    RunDirectory(path, kind="sweep", fingerprint="fp-1")


def test_task_filenames_disambiguate_slug_collisions(tmp_path):
    store = RunDirectory(tmp_path / "run", kind="sweep", fingerprint="fp")
    store.store("threshold/0.3", 1)
    store.store("threshold:0.3", 2)  # same slug, different id
    assert store.load("threshold/0.3") == 1
    assert store.load("threshold:0.3") == 2


def test_resolve_workers_caps_at_pending_work():
    assert resolve_workers(8, 3) == 3
    assert resolve_workers(2, 5) == 2
    assert resolve_workers(None, 4) == min(os.cpu_count() or 1, 4)
    assert resolve_workers(4, 0) == 1


# ------------------------------------------------------- sweep kill/resume


def test_sweep_failure_checkpoints_survivors_then_resumes(
    tmp_path, monkeypatch
):
    monkeypatch.setenv(_MARKER_DIR, str(tmp_path))
    run_dir = tmp_path / "run"
    plan = SweepPlan(
        [
            make_task("sq/0", _square_task, x=0, name="sq0"),
            make_task("sq/1", _square_task, x=1, name="sq1", fail_first=True),
            make_task("sq/2", _square_task, x=2, name="sq2"),
            make_task("sq/3", _square_task, x=3, name="sq3"),
        ]
    )
    with pytest.raises(RuntimeError, match="injected failure in sq1"):
        run_sweep(plan, engine="process", workers=2, run_dir=run_dir)
    # every task that finished was checkpointed before the error surfaced
    store = RunDirectory(run_dir, kind="sweep", fingerprint=plan.fingerprint())
    survivors = store.completed(["sq/0", "sq/2", "sq/3"])
    assert survivors == ["sq/0", "sq/2", "sq/3"]
    assert not store.has("sq/1")
    # the re-invocation completes, re-running only the failed task
    values = run_sweep(plan, engine="process", workers=2, run_dir=run_dir)
    assert values == {"sq/0": 0, "sq/1": 1, "sq/2": 4, "sq/3": 9}
    assert _runs(tmp_path, "sq1") == 2
    for name in ("sq0", "sq2", "sq3"):
        assert _runs(tmp_path, name) == 1


def test_serial_sweep_resumes_from_checkpoints(tmp_path, monkeypatch):
    monkeypatch.setenv(_MARKER_DIR, str(tmp_path))
    run_dir = tmp_path / "run"
    plan = SweepPlan(
        [
            make_task("a", _square_task, x=2, name="ser-a"),
            make_task("b", _square_task, x=3, name="ser-b"),
        ]
    )
    first = run_sweep(plan, engine="serial", run_dir=run_dir)
    again = run_sweep(plan, engine="serial", run_dir=run_dir)
    assert first == again == {"a": 4, "b": 9}
    assert _runs(tmp_path, "ser-a") == 1  # second call served from disk
    assert _runs(tmp_path, "ser-b") == 1


# ------------------------------------------------- checkpoint corruption


def test_corrupt_checkpoint_is_quarantined_and_recomputed(
    tmp_path, monkeypatch
):
    monkeypatch.setenv(_MARKER_DIR, str(tmp_path))
    run_dir = tmp_path / "run"
    plan = SweepPlan(
        [
            make_task("a", _square_task, x=2, name="cc-a"),
            make_task("b", _square_task, x=3, name="cc-b"),
        ]
    )
    first = run_sweep(plan, engine="serial", run_dir=run_dir)
    assert first == {"a": 4, "b": 9}
    pickles = sorted(run_dir.glob("task-*.pkl"))
    assert len(pickles) == 2
    pickles[0].write_bytes(b"not a pickle")
    again = run_sweep(plan, engine="serial", run_dir=run_dir)
    assert again == first
    # the damaged file is preserved as evidence, not silently replaced
    assert len(list(run_dir.glob("*.corrupt"))) == 1
    # exactly one task recomputed; the intact one was served from disk
    assert _runs(tmp_path, "cc-a") + _runs(tmp_path, "cc-b") == 3


def test_corrupt_meta_quarantines_the_whole_run(tmp_path):
    run_dir = tmp_path / "run"
    store = RunDirectory(run_dir, kind="sweep", fingerprint="fp-1")
    store.store("a", 1)
    (run_dir / "meta.json").write_text("{broken", encoding="utf-8")
    # Without the fingerprint the checkpoints cannot be trusted: reopening
    # quarantines the meta plus every task pickle and starts fresh.
    reopened = RunDirectory(run_dir, kind="sweep", fingerprint="fp-1")
    assert not reopened.has("a")
    assert (run_dir / "meta.json.corrupt").exists()
    assert len(list(run_dir.glob("task-*.pkl.corrupt"))) == 1
    reopened.store("a", 2)
    assert reopened.load("a") == 2


# ------------------------------------------------- retries and quarantine


def test_killed_worker_is_retried_on_a_fresh_pool(tmp_path, monkeypatch):
    """``os._exit`` breaks the whole pool; the retry round rebuilds it."""
    monkeypatch.setenv(_MARKER_DIR, str(tmp_path))
    plan = SweepPlan(
        [
            make_task("k/0", _square_task, x=2, name="kill-ok"),
            make_task("k/1", _kill_task, x=3, name="kill-victim"),
        ]
    )
    values = run_sweep(plan, engine="process", workers=2, max_task_retries=1)
    assert values == {"k/0": 4, "k/1": 9}
    assert _runs(tmp_path, "kill-victim") == 2


def test_quarantine_completes_sweep_and_journals_the_failure(
    tmp_path, monkeypatch
):
    monkeypatch.setenv(_MARKER_DIR, str(tmp_path))
    run_dir = tmp_path / "run"
    plan = SweepPlan(
        [
            make_task("ok", _square_task, x=2, name="q-ok"),
            make_task("bad", _square_task, x=3, name="q-bad", fail_first=True),
        ]
    )
    tracer = obs.enable(reset=True)
    try:
        values = run_sweep(
            plan, engine="serial", run_dir=run_dir, on_failure="quarantine"
        )
        faults = [r for r in tracer.records if isinstance(r, FaultRecord)]
    finally:
        obs.disable()
        get_tracer().reset()
    assert values["ok"] == 4
    failure = values["bad"]
    assert isinstance(failure, TaskFailure)
    assert failure.attempts == 1
    assert failure.error == "RuntimeError: injected failure in q-bad"
    # journal-visible: the quarantined task is a worker-failure fault
    assert [f.kind for f in faults] == ["worker-failure"]
    assert faults[0].target == "bad"
    assert faults[0].sim_time is None
    assert faults[0].detail["attempts"] == 1
    store = RunDirectory(
        run_dir, kind="sweep", fingerprint=plan.fingerprint()
    )
    assert store.failed(["ok", "bad"]) == ["bad"]
    marker = store.load_failure("bad")
    assert marker["attempts"] == 1
    assert "RuntimeError" in marker["error"]
    # Re-running heals: the second execution succeeds and clears the
    # marker (store() supersedes an old failure).
    values = run_sweep(
        plan, engine="serial", run_dir=run_dir, on_failure="quarantine"
    )
    assert values == {"ok": 4, "bad": 9}
    assert not store.has_failure("bad")
    assert _runs(tmp_path, "q-ok") == 1
    assert _runs(tmp_path, "q-bad") == 2
