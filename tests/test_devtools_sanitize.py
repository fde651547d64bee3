"""The determinism sanitizer: bisection exactness, diff mode, smoke run.

The bisector is proven with seeded fault injection: synthetic journals
are corrupted at indices drawn from ``default_rng(0)`` and
:func:`~repro.devtools.sanitize.first_divergence` must report exactly
the first corrupted record every time.  ``--diff`` mode and the
subprocess smoke path (replay tiny, two hash seeds) run end to end.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import List

import numpy as np

from repro.devtools.project import default_repo_root
from repro.devtools.sanitize import (
    describe_divergence,
    first_divergence,
    journal_lines,
    main,
)

REPO = default_repo_root()


def _synthetic_journal(records: int) -> List[str]:
    lines = [json.dumps({"type": "meta", "data": {"preset": "tiny"}})]
    for i in range(records):
        kind = "decision" if i % 5 == 0 else "sample"
        lines.append(
            json.dumps({"type": kind, "data": {"index": i, "value": i * 0.5}})
        )
    lines.append(json.dumps({"type": "perf", "data": {"counters": {}}}))
    return lines


# -------------------------------------------------------------- bisection


def test_identical_journals_have_no_divergence():
    lines = _synthetic_journal(50)
    assert first_divergence(lines, list(lines)) is None


def test_seeded_corruption_is_located_exactly():
    """Fault injection: the bisector names the first corrupted record."""
    rng = np.random.default_rng(0)
    base = _synthetic_journal(400)
    for _ in range(25):
        corrupted = list(base)
        # corrupt 1-3 records; the report must name the *first* one
        indices = sorted(
            int(i)
            for i in rng.choice(len(base), size=int(rng.integers(1, 4)), replace=False)
        )
        for index in indices:
            payload = json.loads(corrupted[index])
            payload["data"]["value"] = -1.0
            payload["data"]["index"] = payload["data"].get("index")
            corrupted[index] = json.dumps(payload)
        assert first_divergence(base, corrupted) == indices[0]
        assert first_divergence(corrupted, base) == indices[0]


def test_length_divergence_points_past_the_common_prefix():
    lines = _synthetic_journal(30)
    truncated = lines[:-3]
    assert first_divergence(lines, truncated) == len(truncated)
    assert first_divergence(truncated, lines) == len(truncated)


def test_describe_divergence_reports_context():
    base = _synthetic_journal(40)
    corrupted = list(base)
    payload = json.loads(corrupted[13])
    payload["data"]["value"] = 999.0
    corrupted[13] = json.dumps(payload)
    context = describe_divergence(base, corrupted, 13)
    assert context["index"] == 13
    assert context["left_type"] == context["right_type"] == "sample"
    assert context["first_differing_key"] == "data.value"
    decision = context["preceding_decision"]
    assert decision is not None and decision["index"] <= 13
    assert json.loads(decision["record"])["type"] == "decision"


def test_journal_lines_strip_wall():
    raw = (
        json.dumps({"type": "meta", "data": {}, "wall": {"t": 1.5}})
        + "\n"
        + json.dumps({"type": "perf", "data": {}})
        + "\n"
    )
    lines = journal_lines(raw)
    assert len(lines) == 2
    assert "wall" not in lines[0]


# -------------------------------------------------------------- CLI / diff


def test_diff_mode_exit_codes(tmp_path, capsys):
    base = _synthetic_journal(20)
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    a.write_text("\n".join(base) + "\n", encoding="utf-8")
    b.write_text("\n".join(base) + "\n", encoding="utf-8")
    assert main(["--diff", str(a), str(b)]) == 0
    assert "byte-identical" in capsys.readouterr().out

    corrupted = list(base)
    payload = json.loads(corrupted[7])
    payload["data"]["value"] = -3.0
    corrupted[7] = json.dumps(payload)
    b.write_text("\n".join(corrupted) + "\n", encoding="utf-8")
    report_path = tmp_path / "report.json"
    assert main(["--diff", str(a), str(b), "--report", str(report_path)]) == 1
    out = capsys.readouterr().out
    assert "DIVERGENCE at record 7" in out
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["identical"] is False
    assert report["divergence"]["index"] == 7
    assert report["divergence"]["first_differing_key"] == "data.value"

    assert main(["--diff", str(a), str(tmp_path / "missing.jsonl")]) == 2
    assert main([]) == 2  # a scenario or --diff is required


# ------------------------------------------------------------------ smoke


def test_sanitize_replay_tiny_smoke(tmp_path):
    """Two hash seeds: the replay journals must be byte-identical."""
    report_path = tmp_path / "report.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.devtools.sanitize",
            "replay",
            "--preset",
            "tiny",
            "--hash-seeds",
            "1",
            "2",
            "--report",
            str(report_path),
        ],
        cwd=REPO,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "byte-identical" in proc.stdout
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["identical"] is True
    assert report["hash_seeds"] == ["1", "2"]
