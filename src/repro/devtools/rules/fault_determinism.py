"""fault-determinism: chaos plans draw only from the ``faults`` stream.

A fault plan must be a pure function of its seed: the replay engine, the
prototype link policy and the resilience experiment all assume that the
same seed produces byte-identical chaos under any engine.  That holds
only if every random draw inside :mod:`repro.faults` flows through the
dedicated ``streams.child("faults")`` stream family — a draw from an ad
hoc ``numpy.random.default_rng(...)`` or from any other stream would tie
the plan to whatever else shares that generator.  This rule bans, in
every module of :data:`SCOPES`:

* any call of ``numpy.random.default_rng`` (aliased or not);
* any ``.get(...)`` call whose receiver is not derived from
  ``.child("faults")`` — either the chained form
  ``streams.child("faults").get(name)`` or a name assigned from a bare
  ``<expr>.child("faults")`` call in the same module.

The second check is deliberately blunt (it also rejects ``dict.get``):
plan-generation code is small, and keeping *every* ``.get`` in scope a
stream lookup makes the invariant auditable at a glance.

The scope covers ``repro.faults`` (where plans are generated) **and**
the service layer's fault consumers — the crash supervisor
(:mod:`repro.service.supervisor`) and the chaos soak
(:mod:`repro.service.soak`).  Those two re-execute fault plans through
kill/restore cycles whose recovery must be byte-reproducible, so they
are held to the same no-ad-hoc-randomness discipline as the plan
generators; the rest of :mod:`repro.service` (live dispatch, admission)
never touches fault plans and stays outside the scope.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.devtools.findings import Finding
from repro.devtools.project import LintModule, walk
from repro.devtools.registry import Rule, register
from repro.devtools.rules.imports import ImportMap, canonical_call

#: The packages/modules this rule applies to (each covers submodules).
SCOPES = (
    "repro.faults",
    "repro.service.supervisor",
    "repro.service.soak",
)

#: The banned ad hoc generator constructor.
DEFAULT_RNG = "numpy.random.default_rng"

#: The only stream-family name fault code may draw from.
STREAM_NAME = "faults"


def _in_scope(module_name: str) -> bool:
    return any(
        module_name == scope or module_name.startswith(scope + ".")
        for scope in SCOPES
    )


def _is_faults_child_call(node: ast.AST) -> bool:
    """True for a ``<expr>.child("faults")`` call."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "child"
        and len(node.args) == 1
        and not node.keywords
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == STREAM_NAME
    )


@register
class FaultDeterminism(Rule):
    """Ban non-``faults``-stream randomness inside ``repro.faults``."""

    id = "fault-determinism"
    description = (
        "fault-plan code (repro.faults, the service supervisor/soak) may "
        "not call numpy.random.default_rng or .get() on anything but a "
        'child("faults") stream family'
    )

    def check_module(self, module: LintModule) -> Iterator[Finding]:
        if not _in_scope(module.module):
            return
        imports = ImportMap(module.tree)
        allowed = self._faults_children(module.tree)
        for node in walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if canonical_call(node.func, imports) == DEFAULT_RNG:
                yield self._finding(
                    module,
                    node,
                    "`default_rng(...)` inside the fault-determinism scope "
                    'bypasses the dedicated child("faults") stream family',
                )
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "get"):
                continue
            target = func.value
            if _is_faults_child_call(target):
                continue
            if isinstance(target, ast.Name) and target.id in allowed:
                continue
            yield self._finding(
                module,
                node,
                "`.get(...)` on a receiver not derived from "
                '`.child("faults")` inside the fault-determinism scope',
            )

    def _faults_children(self, tree: ast.AST) -> Set[str]:
        """Names assigned from a bare ``<expr>.child("faults")`` call."""
        allowed: Set[str] = set()
        for node in walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            if not _is_faults_child_call(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    allowed.add(target.id)
        return allowed

    def _finding(
        self, module: LintModule, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=module.display_path,
            line=node.lineno,
            column=node.col_offset,
            rule=self.id,
            message=message,
            hint=(
                "draw from the dedicated stream family: "
                'streams.child("faults").get("schedule")'
            ),
        )
