"""Runtime determinism sanitizer: run twice, diff journals, bisect.

The static rules prove the *code* cannot reach ambient state; this tool
checks the *runtime* contract they protect: a journaled scenario run
twice under different ``PYTHONHASHSEED`` values must produce
byte-identical journals after :func:`repro.obs.journal.strip_wall`.
Hash-seed variation is the sharpest cheap probe we have — any surviving
iteration over hash order, any ``hash()``-derived seed, any set-ordered
event list shows up as a journal divergence.

    python -m repro.devtools.sanitize fig2 --preset tiny
    python -m repro.devtools.sanitize replay --preset tiny
    python -m repro.devtools.sanitize --diff a.jsonl b.jsonl

Each scenario is executed in a fresh subprocess (hash seeding is fixed
at interpreter start, so it cannot be toggled in-process).  On
divergence the tool binary-searches the journals' crc32 prefix-hash
arrays to the **first divergent record** and reports it with context:
both raw lines, the first differing key path, the nearest preceding
decision record and the nearest span — enough to attribute the
divergence to a subsystem without reading ten thousand lines of JSONL.
Exit status: 0 identical, 1 divergence, 2 usage/subprocess error.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.devtools.project import default_repo_root
from repro.obs.journal import strip_wall

#: The scenario name that replays via ``python -m repro.runtime replay``
#: instead of the experiments CLI.
REPLAY_SCENARIO = "replay"


def journal_lines(text: str) -> List[str]:
    """Wall-stripped journal records, one JSON string per line."""
    return strip_wall(text).splitlines()


def _prefix_hashes(lines: Sequence[str]) -> List[int]:
    """``out[i]`` = crc32 of the first ``i`` lines (``out[0] == 0``)."""
    out = [0]
    running = 0
    for line in lines:
        running = zlib.crc32(line.encode("utf-8"), running)
        out.append(running)
    return out


def first_divergence(
    a_lines: Sequence[str], b_lines: Sequence[str]
) -> Optional[int]:
    """Index of the first differing record, or ``None`` when identical.

    Binary search over cumulative crc32 prefix hashes: O(n) hashing once,
    then O(log n) comparisons to localize — with a linear fallback in the
    (astronomically unlikely) event of a prefix-hash collision.
    """
    if list(a_lines) == list(b_lines):
        return None
    common = min(len(a_lines), len(b_lines))
    hashes_a = _prefix_hashes(a_lines)
    hashes_b = _prefix_hashes(b_lines)
    if hashes_a[common] == hashes_b[common]:
        # Equal up to the shorter journal; one simply has extra records.
        return common
    low, high = 0, common
    while low + 1 < high:
        mid = (low + high) // 2
        if hashes_a[mid] == hashes_b[mid]:
            low = mid
        else:
            high = mid
    index = high - 1
    if a_lines[index] == b_lines[index]:  # crc collision: fall back
        for i in range(common):
            if a_lines[i] != b_lines[i]:
                return i
        return common
    return index


def _record_type(line: Optional[str]) -> Optional[str]:
    if line is None:
        return None
    try:
        payload = json.loads(line)
    except ValueError:
        return None
    value = payload.get("type")
    return value if isinstance(value, str) else None


def _first_diff_key(left: Any, right: Any, prefix: str = "") -> Optional[str]:
    """Dotted path of the first differing value between two JSON trees."""
    if type(left) is not type(right):
        return prefix.rstrip(".") or "<root>"
    if isinstance(left, dict):
        for key in sorted(set(left) | set(right)):
            if key not in left or key not in right:
                return f"{prefix}{key}"
            sub = _first_diff_key(left[key], right[key], f"{prefix}{key}.")
            if sub is not None:
                return sub
        return None
    if isinstance(left, list):
        if len(left) != len(right):
            return (prefix.rstrip(".") or "<root>") + ".<length>"
        for i, (a, b) in enumerate(zip(left, right)):
            sub = _first_diff_key(a, b, f"{prefix}{i}.")
            if sub is not None:
                return sub
        return None
    if left != right:
        return prefix.rstrip(".") or "<root>"
    return None


def _nearest(
    lines: Sequence[str], index: int, kind: str
) -> Optional[Dict[str, Any]]:
    """The nearest ``kind`` record at/before ``index`` (context anchor)."""
    for i in range(min(index, len(lines) - 1), -1, -1):
        if _record_type(lines[i]) == kind:
            return {"index": i, "record": lines[i]}
    return None


def describe_divergence(
    a_lines: Sequence[str], b_lines: Sequence[str], index: int
) -> Dict[str, Any]:
    """Structured context for the first divergent record."""
    left = a_lines[index] if index < len(a_lines) else None
    right = b_lines[index] if index < len(b_lines) else None
    first_key: Optional[str] = None
    if left is not None and right is not None:
        try:
            first_key = _first_diff_key(json.loads(left), json.loads(right))
        except ValueError:
            first_key = None
    return {
        "index": index,
        "lengths": [len(a_lines), len(b_lines)],
        "left": left,
        "right": right,
        "left_type": _record_type(left),
        "right_type": _record_type(right),
        "first_differing_key": first_key,
        "preceding_decision": _nearest(a_lines, index, "decision"),
        "preceding_span": _nearest(a_lines, index, "span"),
    }


def _render_report(report: Dict[str, Any]) -> str:
    divergence = report["divergence"]
    lines = [
        f"DIVERGENCE at record {divergence['index']} "
        f"(journal lengths {divergence['lengths'][0]} vs "
        f"{divergence['lengths'][1]})",
        f"  left  ({divergence['left_type']}): {divergence['left']}",
        f"  right ({divergence['right_type']}): {divergence['right']}",
    ]
    if divergence["first_differing_key"] is not None:
        lines.append(
            f"  first differing key: {divergence['first_differing_key']}"
        )
    for label, anchor in (
        ("nearest decision", divergence["preceding_decision"]),
        ("nearest span", divergence["preceding_span"]),
    ):
        if anchor is not None:
            lines.append(
                f"  {label} (record {anchor['index']}): {anchor['record']}"
            )
    return "\n".join(lines)


# ------------------------------------------------------------------ running


def _scenario_command(
    scenario: str, preset: str, journal_path: Path
) -> List[str]:
    """The subprocess argv that runs ``scenario`` and writes a journal."""
    if scenario == REPLAY_SCENARIO:
        return [
            sys.executable,
            "-m",
            "repro.runtime",
            "replay",
            preset,
            "--journal",
            str(journal_path),
        ]
    return [
        sys.executable,
        "-m",
        "repro.experiments",
        preset,
        scenario,
        "--journal",
        str(journal_path),
    ]


def _run_scenario(
    scenario: str,
    preset: str,
    hash_seed: str,
    journal_path: Path,
    repo_root: Path,
) -> Optional[str]:
    """Run one journaled subprocess; returns an error string on failure."""
    command = _scenario_command(scenario, preset, journal_path)
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    src = str(repo_root / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    result = subprocess.run(
        command,
        cwd=str(repo_root),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    if result.returncode != 0:
        stderr = result.stderr.decode("utf-8", "replace").strip()
        return (
            f"{' '.join(command)} (PYTHONHASHSEED={hash_seed}) exited "
            f"{result.returncode}:\n{stderr}"
        )
    if not journal_path.exists():
        return f"{' '.join(command)} wrote no journal at {journal_path}"
    return None


def compare_texts(
    text_a: str, text_b: str
) -> Tuple[bool, Optional[Dict[str, Any]]]:
    """(identical-after-strip_wall, divergence context or None)."""
    a_lines = journal_lines(text_a)
    b_lines = journal_lines(text_b)
    index = first_divergence(a_lines, b_lines)
    if index is None:
        return True, None
    return False, describe_divergence(a_lines, b_lines, index)


# ---------------------------------------------------------------------- CLI


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.sanitize",
        description=(
            "run a journaled scenario twice under different "
            "PYTHONHASHSEED values and bisect any journal divergence"
        ),
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        help=(
            "experiment name (fig2, table1, ...) or 'replay' for one "
            "journaled evaluation replay"
        ),
    )
    parser.add_argument(
        "--preset",
        default="tiny",
        choices=["tiny", "small", "paper"],
        help="workload preset (default: tiny)",
    )
    parser.add_argument(
        "--hash-seeds",
        nargs=2,
        default=["0", "1"],
        metavar=("A", "B"),
        help="the two PYTHONHASHSEED values (default: 0 1)",
    )
    parser.add_argument(
        "--report",
        type=Path,
        default=None,
        help="write the JSON divergence report here",
    )
    parser.add_argument(
        "--diff",
        nargs=2,
        type=Path,
        default=None,
        metavar=("A", "B"),
        help="diff two existing journal files instead of running anything",
    )
    options = parser.parse_args(argv)

    if options.diff is not None:
        texts: List[str] = []
        for path in options.diff:
            if not path.exists():
                print(f"no such journal: {path}", file=sys.stderr)
                return 2
            texts.append(path.read_text(encoding="utf-8"))
        report: Dict[str, Any] = {
            "mode": "diff",
            "journals": [str(p) for p in options.diff],
        }
        identical, divergence = compare_texts(texts[0], texts[1])
    else:
        if options.scenario is None:
            parser.print_usage(sys.stderr)
            print(
                "a scenario (or --diff A B) is required", file=sys.stderr
            )
            return 2
        report = {
            "mode": "run",
            "scenario": options.scenario,
            "preset": options.preset,
            "hash_seeds": list(options.hash_seeds),
        }
        repo_root = default_repo_root()
        texts = []
        with tempfile.TemporaryDirectory(prefix="repro-sanitize-") as tmp:
            for run, hash_seed in enumerate(options.hash_seeds):
                journal_path = Path(tmp) / f"run{run}.jsonl"
                error = _run_scenario(
                    options.scenario,
                    options.preset,
                    hash_seed,
                    journal_path,
                    repo_root,
                )
                if error is not None:
                    print(error, file=sys.stderr)
                    return 2
                texts.append(journal_path.read_text(encoding="utf-8"))
        identical, divergence = compare_texts(texts[0], texts[1])

    report["identical"] = identical
    report["divergence"] = divergence
    if options.report is not None:
        options.report.parent.mkdir(parents=True, exist_ok=True)
        options.report.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if identical:
        records = len(journal_lines(texts[0]))
        print(f"OK: journals byte-identical after strip_wall ({records} records)")
        return 0
    print(_render_report(report))
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
