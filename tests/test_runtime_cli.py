"""The ``python -m repro.runtime`` entry point."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import pytest

from repro.devtools.project import default_repo_root
from repro.obs.journal import read_journal, strip_wall
from repro.runtime.__main__ import main

REPO = default_repo_root()

#: SHA-256 of ``replay tiny --fault-seed 7``'s ``strip_wall`` journal
#: lines below the meta line, as the at-exit journal writer rendered them
#: before the replay command streamed its journal.
TINY_FAULT_SEED_7_SHA256 = (
    "56898a1f33bef2ef79ca4e60ceabf3df79681157c79665bafa25e037d68e8271"
)


class TestArgumentErrors:
    def test_usage_paths(self, capsys):
        assert main([]) == 2
        assert main(["--help"]) == 0
        assert main(["frobnicate"]) == 2
        assert "usage:" in capsys.readouterr().out

    def test_replay_rejects_bad_options(self, capsys):
        assert main(["sweep", "batching", "--engine", "threads"]) == 2
        assert main(["sweep", "batching", "--workers", "0"]) == 2
        assert main(["replay", "--strategy", "rssi", "tiny"]) == 2
        assert main(["replay", "tiny", "spurious"]) == 2
        out = capsys.readouterr().out
        assert "unknown engine" in out
        assert "unknown strategy" in out

    @pytest.mark.parametrize(
        "option",
        [
            ["--engine", "process"],
            ["--workers", "2"],
            ["--run-dir", "run"],
            ["--retries", "1"],
        ],
        ids=lambda option: option[0],
    )
    def test_replay_refuses_sweep_options(self, option, capsys):
        # A replay runs in this process: each sweep option is a usage
        # error, refused before any replay runs.
        assert main(["replay", "tiny", *option]) == 2
        out = capsys.readouterr().out
        assert f"replay takes no {option[0]}" in out
        assert "usage:" in out
        assert "replay preset=" not in out

    def test_sweep_requires_a_known_planner(self, capsys):
        assert main(["sweep"]) == 2
        assert main(["sweep", "figs"]) == 2
        assert "sweep needs one of" in capsys.readouterr().out


class TestTinyRuns:
    def test_replay_writes_a_journal(self, tmp_path, capsys, tiny_workload):
        path = tmp_path / "run.jsonl"
        assert main(["replay", "tiny", "--journal", str(path)]) == 0
        out = capsys.readouterr().out
        assert "replay preset=tiny strategy=llf" in out
        assert "journal:" in out
        journal = read_journal(path)
        assert journal.meta["preset"] == "tiny"
        assert journal.meta["strategy"] == "llf"
        assert "engine" not in journal.meta
        assert journal.spans and journal.decisions and journal.samples

    def test_fault_journal_is_streamed_with_the_pinned_bytes(self, tmp_path):
        # A fresh interpreter, as the command runs: the perf footer holds
        # the process's whole history, workload build included.  The
        # at-exit writer is stubbed to fail, so the bytes must stream.
        path = tmp_path / "chaos.jsonl"
        script = (
            "import sys\n"
            "from repro import obs\n"
            "from repro.obs import journal\n"
            "def at_exit(*args, **kwargs):\n"
            "    raise AssertionError('the replay journal must be streamed')\n"
            "obs.write_journal = journal.write_journal = at_exit\n"
            "from repro.runtime.__main__ import main\n"
            "raise SystemExit(main(sys.argv[1:]))\n"
        )
        argv = ["replay", "tiny", "--fault-seed", "7", "--journal", str(path)]
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            cwd=REPO,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = strip_wall(path.read_text(encoding="utf-8")).splitlines(
            keepends=True
        )
        assert '"type":"meta"' in lines[0]
        body = "".join(lines[1:]).encode("utf-8")
        assert hashlib.sha256(body).hexdigest() == TINY_FAULT_SEED_7_SHA256

    def test_sweep_prints_task_values(self, capsys, tiny_workload):
        assert (
            main(
                [
                    "sweep", "batching", "tiny",
                    "--engine", "process", "--workers", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sweep batching preset=tiny engine=process tasks=2" in out
        assert "batching/clique-batched:" in out
        assert "batching/online-only:" in out
