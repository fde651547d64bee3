"""Repo-specific static analysis: determinism and engine-parity gates.

The reproduction's credibility rests on two invariants the compiler
cannot see:

* **Determinism** — the simulation must be bit-reproducible from a seed;
  the paper's trace statistics (Figs. 2-5) are only checkable if replay
  is deterministic.  Wall-clock reads, the global ``random`` module and
  unordered set iteration all silently break that.
* **Engine parity** — every numpy kernel must stay byte-identical to
  its pure-Python test oracle, which means every such product function
  (and every ``engine=`` dispatcher) must be registered with its oracle
  and equivalence tests (:mod:`repro.devtools.parity_registry`).

This package is a small AST-based lint framework enforcing both:

* :mod:`repro.devtools.findings` — the :class:`Finding` record.
* :mod:`repro.devtools.registry` — the rule registry.
* :mod:`repro.devtools.rules` — the repo-specific rules.
* :mod:`repro.devtools.lint` — the CLI
  (``python -m repro.devtools.lint [paths]``), exits non-zero on
  findings.

Suppression: append ``# repro: noqa[rule-id]`` (comma-separated ids, or
bare ``# repro: noqa`` for all rules) to the flagged line.  See
``docs/static_analysis.md`` for each rule's rationale.
"""

from __future__ import annotations

from repro.devtools.findings import Finding
from repro.devtools.registry import Rule, all_rules, register

__all__ = ["Finding", "Rule", "all_rules", "register"]
