"""mutable-default and bare-except: the classic footguns.

Neither is determinism-specific, but both have bitten reproduction
pipelines: a mutable default accumulates state across figure runs
(breaking run-to-run equality), and a bare ``except`` swallows the
``ValueError`` an engine-validation path raises, turning a loud parity
break into a silently wrong figure.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.findings import Finding
from repro.devtools.project import LintModule, walk
from repro.devtools.registry import Rule, register

#: Constructor calls that produce a fresh mutable per call site.
_MUTABLE_CONSTRUCTORS = ("list", "dict", "set", "bytearray")


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                         ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CONSTRUCTORS
    )


@register
class MutableDefault(Rule):
    """Flag mutable argument defaults."""

    id = "mutable-default"
    description = "no mutable argument defaults ([] / {} / set() / dict())"

    def check_module(self, module: LintModule) -> Iterator[Finding]:
        for node in walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            for default in list(args.defaults) + [
                d for d in args.kw_defaults if d is not None
            ]:
                if _is_mutable_default(default):
                    yield Finding(
                        path=module.display_path,
                        line=default.lineno,
                        column=default.col_offset,
                        rule=self.id,
                        message=(
                            f"mutable default argument in {node.name}() is "
                            "shared across calls"
                        ),
                        hint="default to None and construct inside the body",
                    )


@register
class BareExcept(Rule):
    """Flag ``except:`` clauses."""

    id = "bare-except"
    description = "no bare except: clauses (they swallow KeyboardInterrupt too)"

    def check_module(self, module: LintModule) -> Iterator[Finding]:
        for node in walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield Finding(
                    path=module.display_path,
                    line=node.lineno,
                    column=node.col_offset,
                    rule=self.id,
                    message="bare except swallows every exception",
                    hint="catch the narrowest exception type that can occur",
                )
