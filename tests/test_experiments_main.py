"""Smoke tests for the experiment runner entry point.

``python -m repro.experiments tiny`` must execute every registered
experiment end-to-end on the TINY preset — this exercises all runner
code paths (including sweeps and the forecast) in one go.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from repro import obs, perf
from repro.devtools.project import default_repo_root
from repro.experiments import workload as workload_module
from repro.experiments.__main__ import EXPERIMENTS, main
from repro.obs.journal import read_journal, strip_wall

REPO = default_repo_root()

#: SHA-256 of ``tiny fig2 --journal J --metrics``'s ``strip_wall``
#: journal, as the at-exit journal writer rendered it before the runner
#: streamed its journal.
TINY_FIG2_METRICS_SHA256 = (
    "8186fcf35045dbd4ee44cc04445e99ff0932ef6663b2285a11c8cb9063c582b5"
)


class TestRunnerRegistry:
    def test_all_experiments_registered(self):
        expected = {
            "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
            "table1", "fig10", "fig11", "fig12", "forecast", "ablations",
            "resilience",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment_rejected(self):
        assert main(["tiny", "fig99"]) == 2


class TestTinyRuns:
    @pytest.mark.parametrize(
        "name",
        ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table1"],
    )
    def test_measurement_experiments_run(self, name, capsys, tiny_workload):
        assert main(["tiny", name]) == 0
        output = capsys.readouterr().out
        assert f"=== {name}" in output

    def test_evaluation_experiments_run(self, capsys, tiny_workload, tiny_model):
        assert main(["tiny", "fig12", "forecast"]) == 0
        output = capsys.readouterr().out
        assert "S3 gain over LLF" in output
        assert "AUC" in output

    def test_sweeps_run_on_tiny(self, capsys, tiny_workload):
        assert main(["tiny", "fig11"]) == 0
        output = capsys.readouterr().out
        assert "history" in output


class TestJournalFlag:
    @pytest.fixture(autouse=True)
    def _isolate_globals(self):
        yield
        obs.disable()
        obs.get_tracer().reset()
        perf.reset()

    def test_journal_flag_writes_full_journal(self, tmp_path, capsys):
        # drop the in-process workload cache so the collection replay (the
        # source of association decisions) runs under the tracer
        workload_module.clear_caches()
        path = tmp_path / "run.jsonl"
        assert main(["tiny", "fig2", "--journal", str(path)]) == 0
        output = capsys.readouterr().out
        assert "journal:" in output
        journal = read_journal(path)
        assert journal.meta["preset"] == "tiny"
        assert journal.meta["experiments"] == ["fig2"]
        assert any(s.name == "experiment.fig2" for s in journal.spans)
        assert len(journal.decisions) > 0
        assert journal.perf is not None and journal.perf.counters
        # the runner turns the tracer back off on exit
        assert not obs.get_tracer().enabled

    def test_journal_is_streamed_with_the_pinned_bytes(self, tmp_path):
        # A fresh interpreter, as the command runs: the perf footer holds
        # the run's whole history, workload build included.  The at-exit
        # writer is stubbed to fail, so the bytes must stream.
        path = tmp_path / "metrics.jsonl"
        script = (
            "import sys\n"
            "from repro import obs\n"
            "from repro.obs import journal\n"
            "def at_exit(*args, **kwargs):\n"
            "    raise AssertionError('the journal must be streamed')\n"
            "obs.write_journal = journal.write_journal = at_exit\n"
            "from repro.experiments.__main__ import main\n"
            "raise SystemExit(main(sys.argv[1:]))\n"
        )
        argv = ["tiny", "fig2", "--journal", str(path), "--metrics", "--trace"]
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            cwd=REPO,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert f"journal: {path}" in proc.stdout
        assert "wall_total" in proc.stdout  # --trace read the spans back
        body = strip_wall(path.read_text(encoding="utf-8")).encode("utf-8")
        assert hashlib.sha256(body).hexdigest() == TINY_FIG2_METRICS_SHA256

    def test_journal_flag_requires_a_path(self, capsys):
        assert main(["tiny", "fig2", "--journal"]) == 2

    def test_trace_flag_prints_top_spans(self, capsys, tiny_workload):
        assert main(["tiny", "fig2", "--trace"]) == 0
        output = capsys.readouterr().out
        assert "wall_total" in output


class TestWorkersFlag:
    def test_workers_flag_validates_its_argument(self, capsys):
        assert main(["tiny", "fig2", "--workers"]) == 2
        assert main(["tiny", "fig2", "--workers", "zero"]) == 2
        assert main(["tiny", "fig2", "--workers", "0"]) == 2

    def test_workers_rejects_observation_flags(self, capsys):
        assert main(["tiny", "fig2", "--workers", "2", "--trace"]) == 2
        assert main(["tiny", "fig2", "--workers", "2", "--journal", "x"]) == 2
        assert "--workers cannot be combined" in capsys.readouterr().out

    def test_single_worker_stays_on_the_serial_path(self, capsys, tiny_workload):
        assert main(["tiny", "fig2", "--workers", "1"]) == 0
        assert "=== fig2" in capsys.readouterr().out

    def test_parallel_run_matches_serial_output(self, capsys, tiny_workload):
        assert main(["tiny", "fig2"]) == 0
        serial = capsys.readouterr().out
        assert main(["tiny", "fig2", "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        # identical rendered report; only the header line differs
        assert serial.splitlines()[2:] == parallel.splitlines()[2:]
