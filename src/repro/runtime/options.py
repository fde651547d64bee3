"""Execution options of the sweep dispatcher."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

#: The engine names :func:`~repro.runtime.sweep.run_sweep` accepts.
ENGINES = ("auto", "serial", "process")


@dataclass(frozen=True)
class RuntimeOptions:
    """How to execute a sweep.

    ``engine="auto"`` picks the process pool when a sweep has more than
    one task; ``workers`` caps the pool size (defaults to the CPU
    count); ``run_dir`` enables checkpoint/resume via
    :class:`~repro.runtime.checkpoint.RunDirectory`.
    """

    engine: str = "auto"
    workers: Optional[int] = None
    run_dir: Optional[Union[str, Path]] = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
