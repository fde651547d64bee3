"""Pinned output of ``python -m repro.experiments paper``.

The runner prints every figure, table, ablation and extension report at
PAPER scale.  ``tests/fixtures/paper_output_digests.json`` holds the
SHA-256 of each experiment's section of that output and of the whole
output, with the ``(preset paper, N.Ns)`` wall-time part of each section
header removed.  Any change to a printed number fails here and names the
experiment that moved.

The command takes about 40 s on a 2-core x86-64 host, so this check runs
in CI's ``paper-claims`` job, not in tier-1.  A change that moves a
figure on purpose regenerates the digests
(``PYTHONPATH=src python benchmarks/test_paper_digest.py``) and says why.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "fixtures" / "paper_output_digests.json"

#: ``=== fig2 (preset paper, 4.4s) ====`` -> ``=== fig2 ====``
_WALL = re.compile(r" \(preset paper, [0-9]+\.[0-9]s\)")
_HEADER = re.compile(r"^=== (\S+) =+$")


def paper_output() -> str:
    """The runner's stdout for the PAPER preset, wall times stripped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    completed = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "paper"],
        cwd=ROOT,
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    return _WALL.sub("", completed.stdout)


def output_digests(text: str) -> Dict[str, str]:
    """SHA-256 of each experiment's section and of the whole output."""
    sections: Dict[str, list] = {}
    current = None
    for line in text.splitlines():
        header = _HEADER.match(line)
        if header is not None:
            current = header.group(1)
            if current in sections:
                raise ValueError(f"experiment {current!r} printed twice")
            sections[current] = []
        if current is not None:
            sections[current].append(line)
    digests = {
        name: hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        for name, lines in sections.items()
    }
    digests["_all"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests


def test_paper_output_matches_the_pinned_digests() -> None:
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert output_digests(paper_output()) == pinned


if __name__ == "__main__":
    digests = output_digests(paper_output())
    text = json.dumps(digests, indent=2, sort_keys=True) + "\n"
    DIGESTS.write_text(text, encoding="utf-8")
    print(text, end="")
