"""no-unseeded-rng: all randomness flows through seeded Generators.

The reproduction derives every random draw from a root seed via named
:class:`~repro.sim.rng.RandomStreams` children; the stdlib ``random``
module and numpy's legacy global state (``np.random.rand`` & co.) both
read hidden process-wide state, so one stray call silently decorrelates
a replay from its seed.  Constructing a seeded ``Generator`` is allowed
anywhere (the ``default_rng(0)`` fallback idiom); an **unseeded**
``default_rng()`` is not.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, Optional

from repro.devtools.findings import Finding
from repro.devtools.project import LintModule, walk
from repro.devtools.registry import Rule, register
from repro.devtools.rules.imports import ImportMap, canonical_call

#: The one module allowed to own stream derivation internals.
EXEMPT_MODULE = "repro.sim.rng"

#: ``numpy.random`` attributes that construct explicit generators —
#: allowed everywhere (everything else on the module is legacy global
#: state or a draw from it).
CONSTRUCTORS: FrozenSet[str] = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)


def _numpy_random_member(name: str) -> Optional[str]:
    """The member name if ``name`` is ``numpy.random.<member>``."""
    for prefix in ("numpy.random.", "np.random."):
        if name.startswith(prefix):
            member = name[len(prefix) :]
            if "." not in member:
                return member
    return None


@register
class NoUnseededRng(Rule):
    """Ban hidden-global RNG state outside :mod:`repro.sim.rng`."""

    id = "no-unseeded-rng"
    description = (
        "no `import random`, no legacy np.random.* global-state calls, no "
        "unseeded default_rng(); thread seeded Generator objects instead"
    )

    def check_module(self, module: LintModule) -> Iterator[Finding]:
        if module.module == EXEMPT_MODULE:
            return
        imports = ImportMap(module.tree)
        for node in walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self._finding(
                            module,
                            node,
                            "stdlib `random` draws from hidden global state",
                            "use a numpy Generator from repro.sim.rng",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and not node.level:
                    yield self._finding(
                        module,
                        node,
                        "stdlib `random` draws from hidden global state",
                        "use a numpy Generator from repro.sim.rng",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, imports, node)

    def _check_call(
        self, module: LintModule, imports: ImportMap, node: ast.Call
    ) -> Iterator[Finding]:
        name = canonical_call(node.func, imports)
        if name is None:
            return
        member = _numpy_random_member(name)
        if member is None:
            return
        if member not in CONSTRUCTORS:
            yield self._finding(
                module,
                node,
                f"legacy global-state call np.random.{member}()",
                "draw from a seeded np.random.Generator instead",
            )
        elif member == "default_rng" and not node.args and not node.keywords:
            yield self._finding(
                module,
                node,
                "unseeded default_rng() is entropy-seeded (non-reproducible)",
                "pass an explicit seed or thread a Generator in",
            )

    def _finding(
        self, module: LintModule, node: ast.AST, message: str, hint: str
    ) -> Finding:
        return Finding(
            path=module.display_path,
            line=node.lineno,
            column=node.col_offset,
            rule=self.id,
            message=message,
            hint=hint,
        )
