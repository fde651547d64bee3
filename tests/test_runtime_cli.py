"""The ``python -m repro.runtime`` entry point."""

from __future__ import annotations

from repro.obs.journal import read_journal
from repro.runtime.__main__ import main


class TestArgumentErrors:
    def test_usage_paths(self, capsys):
        assert main([]) == 2
        assert main(["--help"]) == 0
        assert main(["frobnicate"]) == 2
        assert "usage:" in capsys.readouterr().out

    def test_replay_rejects_bad_options(self, capsys):
        assert main(["replay", "--engine", "threads"]) == 2
        assert main(["replay", "--workers", "0"]) == 2
        assert main(["replay", "--strategy", "rssi", "tiny"]) == 2
        assert main(["replay", "tiny", "spurious"]) == 2
        out = capsys.readouterr().out
        assert "unknown engine" in out
        assert "unknown strategy" in out

    def test_sweep_requires_a_known_planner(self, capsys):
        assert main(["sweep"]) == 2
        assert main(["sweep", "figs"]) == 2
        assert "sweep needs one of" in capsys.readouterr().out


class TestTinyRuns:
    def test_replay_serial_and_process_agree(self, capsys, tiny_workload):
        assert main(["replay", "tiny", "--engine", "serial"]) == 0
        serial = capsys.readouterr().out
        assert (
            main(
                ["replay", "tiny", "--engine", "process", "--workers", "2"]
            )
            == 0
        )
        process = capsys.readouterr().out
        # same sessions/events/balance; only the engine label differs
        assert serial.splitlines()[1:] == process.splitlines()[1:]

    def test_replay_writes_a_journal(self, tmp_path, capsys, tiny_workload):
        path = tmp_path / "run.jsonl"
        assert main(["replay", "tiny", "--journal", str(path)]) == 0
        assert "journal:" in capsys.readouterr().out
        journal = read_journal(path)
        assert journal.meta["preset"] == "tiny"
        assert journal.meta["strategy"] == "llf"
        # tiny has one controller: auto resolves to serial, and says so
        assert journal.meta["engine"] == "serial"
        assert journal.spans and journal.decisions and journal.samples

    def test_replay_run_dir_checkpoints_under_auto(
        self, tmp_path, capsys, tiny_workload
    ):
        run_dir = tmp_path / "run"
        assert main(["replay", "tiny", "--run-dir", str(run_dir)]) == 0
        assert "engine=process" in capsys.readouterr().out
        assert list(run_dir.glob("task-*.pkl"))
        serial = ["replay", "tiny", "--engine", "serial", "--retries", "1"]
        assert main(serial) == 2
        assert "cannot checkpoint" in capsys.readouterr().out

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
