"""Import-aware name resolution shared by the AST rules.

A rule that bans ``time.time()`` must also catch ``from time import
time`` and ``import time as clock``.  :class:`ImportMap` records every
import binding in a module so call sites can be resolved back to their
canonical ``module.attribute`` form before matching.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Tuple

from repro.devtools.project import walk


class ImportMap:
    """Local name -> imported dotted name, for one module."""

    def __init__(self, tree: ast.Module) -> None:
        self._names: Dict[str, str] = {}
        for node in walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else local
                    self._names[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self._names[local] = f"{node.module}.{alias.name}"

    def resolve(self, local: str) -> Optional[str]:
        """The imported dotted name bound to ``local``, if any."""
        return self._names.get(local)


def dotted_name(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """Flatten ``a.b.c`` attribute chains to ``("a", "b", "c")``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return tuple(reversed(parts))


def canonical_call(node: ast.AST, imports: ImportMap) -> Optional[str]:
    """The fully-qualified dotted name a call/attribute refers to.

    ``clock.time`` with ``import time as clock`` -> ``"time.time"``;
    ``now()`` with ``from datetime import datetime as now`` ->
    ``"datetime.datetime"``.  Returns None for non-name expressions
    (e.g. method calls on computed objects).
    """
    parts = dotted_name(node)
    if parts is None:
        return None
    head, rest = parts[0], parts[1:]
    resolved = imports.resolve(head)
    if resolved is not None:
        head = resolved
    return ".".join((head,) + rest)
