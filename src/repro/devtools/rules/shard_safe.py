"""shard-safe-note: opting out of sharding must carry a stated reason.

``SelectionStrategy.shard_safe = False`` is load-bearing: it forces the
replay engine down the serial path and silently disables the process
pool.  ISSUE 9 made the contract explicit — any class that flips the
flag off must also declare *why* in a ``shard_safe_reason`` class
attribute holding a non-empty string literal, so the constraint is
visible to the lint suite (and greppable by an operator wondering where
their cores went) instead of living only in a comment.

A class trips this rule when it assigns ``shard_safe = False`` —
class-level or ``self.shard_safe = False`` in any method (the
conditional-staleness pattern in ``S3Strategy.__init__``) — without a
class-level ``shard_safe_reason`` string constant.  Setting the flag to
``True`` needs no note: that is the inherited default contract.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.devtools.findings import Finding
from repro.devtools.project import LintModule, walk
from repro.devtools.registry import Rule, register


def _is_false(value: Optional[ast.expr]) -> bool:
    return isinstance(value, ast.Constant) and value.value is False


def _class_level_targets(stmt: ast.stmt) -> Iterator[ast.expr]:
    if isinstance(stmt, ast.Assign):
        yield from stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        yield stmt.target


def _disables_sharding(cls: ast.ClassDef) -> Optional[int]:
    """Line of the first ``shard_safe = False`` assignment, else ``None``."""
    for stmt in cls.body:
        for target in _class_level_targets(stmt):
            if isinstance(target, ast.Name) and target.id == "shard_safe":
                value = getattr(stmt, "value", None)
                if _is_false(value):
                    return stmt.lineno
    for item in cls.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in walk(item):
            if not isinstance(node, ast.Assign):
                continue
            if not _is_false(node.value):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "shard_safe"
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    return node.lineno
    return None


def _has_reason(cls: ast.ClassDef) -> bool:
    """Whether the class declares a non-empty ``shard_safe_reason``."""
    for stmt in cls.body:
        for target in _class_level_targets(stmt):
            if (
                isinstance(target, ast.Name)
                and target.id == "shard_safe_reason"
            ):
                value = getattr(stmt, "value", None)
                return (
                    isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                    and bool(value.value.strip())
                )
    return False


@register
class ShardSafeNote(Rule):
    """``shard_safe = False`` requires a ``shard_safe_reason`` string."""

    id = "shard-safe-note"
    description = (
        "a class disabling sharding (shard_safe = False) must declare a "
        "non-empty shard_safe_reason string explaining why"
    )

    def check_module(self, module: LintModule) -> Iterator[Finding]:
        for node in walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            line = _disables_sharding(node)
            if line is None or _has_reason(node):
                continue
            yield Finding(
                path=module.display_path,
                line=line,
                column=node.col_offset,
                rule=self.id,
                message=(
                    f"class {node.name} sets shard_safe = False without a "
                    "shard_safe_reason string"
                ),
                hint=(
                    "add a class-level shard_safe_reason = \"...\" naming "
                    "the mutable cross-controller state that forbids "
                    "sharding (see repro.core.online.OnlineS3Strategy)"
                ),
            )
