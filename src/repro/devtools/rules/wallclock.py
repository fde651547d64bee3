"""no-wallclock: the simulation must never observe real time.

Replay is event-driven from the simulated timeline; a wall-clock read in
any model, analysis or replay path makes runs non-reproducible and the
paper's trace statistics uncheckable.  The only sanctioned consumers are
:mod:`repro.perf` (the timer facade everything else must go through),
:mod:`repro.prototype` (the live-testbed daemons, which run against real
hardware and real time by design), and the single registered read in
:mod:`repro.obs._clock` — the observability layer timestamps spans
through that one funnel, and every *other* ``repro.obs`` submodule is
still checked.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.devtools.findings import Finding
from repro.devtools.project import LintModule, walk
from repro.devtools.registry import Rule, register
from repro.devtools.rules.imports import ImportMap, canonical_call

#: Modules whose prefix exempts them from this rule.
ALLOWED_MODULE_PREFIXES: Tuple[str, ...] = ("repro.perf", "repro.prototype")

#: Exact module names additionally exempted: the observability layer's
#: single sanctioned wall-clock funnel.  Deliberately *not* a prefix —
#: a stray read elsewhere in ``repro.obs`` must keep failing.
ALLOWED_MODULES: Tuple[str, ...] = ("repro.obs._clock",)

#: Canonical dotted names of wall-clock reads.
BANNED_CALLS: Tuple[str, ...] = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.datetime.now",
    "datetime.datetime.today",
    "datetime.datetime.utcnow",
    "datetime.date.today",
)


def module_is_exempt(module: str) -> bool:
    """Whether the dotted module name is a sanctioned time consumer."""
    if module in ALLOWED_MODULES:
        return True
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in ALLOWED_MODULE_PREFIXES
    )


@register
class NoWallclock(Rule):
    """Ban wall-clock reads outside ``repro.perf`` / ``repro.prototype``."""

    id = "no-wallclock"
    description = (
        "wall-clock reads (time.time / datetime.now / time.monotonic ...) "
        "are only allowed in repro.perf and repro.prototype"
    )

    def check_module(self, module: LintModule) -> Iterator[Finding]:
        if module_is_exempt(module.module):
            return
        imports = ImportMap(module.tree)
        for node in walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = canonical_call(node.func, imports)
            if name in BANNED_CALLS:
                yield Finding(
                    path=module.display_path,
                    line=node.lineno,
                    column=node.col_offset,
                    rule=self.id,
                    message=f"wall-clock read {name}() outside repro.perf",
                    hint="time through the repro.perf timer API instead",
                )
