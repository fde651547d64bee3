"""ordered-iteration: no hash-order iteration in deterministic paths.

Sets iterate in hash order, which varies across runs (string hashing is
salted) — iterating one to build event lists, pair counts or to drive
RNG draws makes replay non-reproducible even from a fixed seed.  The
rule flags ``for``-loop and comprehension iteration over set-valued
expressions inside the deterministic packages (``repro.analysis``,
``repro.core``, ``repro.wlan``): set literals/comprehensions,
``set()``/``frozenset()`` calls, set-operator expressions (``|&-^`` over
sets or ``.keys()`` views, which combine into bare sets), and ``.keys()``
calls (iterate the dict itself, or ``sorted()`` it, so a later refactor
to a set operation cannot slip through).

Membership tests (``x in set(...)``) are fine — only iteration order is
at stake.  The mechanical fix is ``sorted(...)``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.devtools.findings import Finding
from repro.devtools.project import LintModule, walk
from repro.devtools.registry import Rule, register

#: Packages whose outputs must be independent of hash order.
SCOPED_PREFIXES: Tuple[str, ...] = ("repro.analysis", "repro.core", "repro.wlan")

_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def module_in_scope(module: str) -> bool:
    """Whether the module lives in a determinism-critical package."""
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in SCOPED_PREFIXES
    )


def describe_set_valued(node: ast.AST) -> str:
    """A short description if ``node`` is set-valued, else ``""``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set literal"
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return f"{node.func.id}(...)"
        if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
            return ".keys()"
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        left = describe_set_valued(node.left)
        right = describe_set_valued(node.right)
        if left or right:
            return f"a set expression ({left or right})"
    return ""


@register
class OrderedIteration(Rule):
    """Flag iteration over set-valued expressions in scoped packages."""

    id = "ordered-iteration"
    description = (
        "no iteration over sets / .keys() in repro.analysis, repro.core, "
        "repro.wlan — wrap in sorted() to fix the order"
    )

    def check_module(self, module: LintModule) -> Iterator[Finding]:
        if not module_in_scope(module.module):
            return
        for node in walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iter(module, node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for generator in node.generators:
                    yield from self._check_iter(module, generator.iter)

    def _check_iter(self, module: LintModule, iter_node: ast.AST) -> Iterator[Finding]:
        what = describe_set_valued(iter_node)
        if what:
            yield Finding(
                path=module.display_path,
                line=iter_node.lineno,
                column=iter_node.col_offset,
                rule=self.id,
                message=f"iteration over {what} has no deterministic order",
                hint="wrap the iterable in sorted(...)",
            )
