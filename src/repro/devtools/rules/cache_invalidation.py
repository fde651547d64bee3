"""cache-invalidation: memoizing mutable classes need a generation stamp.

``core/social.py`` sets the pattern: ``SocialModel`` memoizes derived
structures (``_delta_cache``, the partner index) while ``record_events``
keeps mutating the underlying pair statistics, so every cached value is
stamped with ``self._generation`` and ``record_events`` bumps it.  A
memo without such a stamp in a class that also mutates state is a stale
read waiting to happen — the class of bug no test catches until the
online-learning path revisits a cached member set.

Heuristics (documented so authors can name things to match):

* a *cache attribute* is a ``self.*`` name containing ``cache`` or
  starting with ``_memo``/``_cached``;
* a *generation attribute* is a ``self.*`` name containing
  ``generation``, ``epoch`` or ending in ``_version``;
* a method *mutates* when it stores to any other ``self.*`` attribute
  (including item assignment) outside ``__init__``.

A class with a cache attribute and a mutating method must also assign a
generation attribute somewhere, or carry a suppression explaining why
its cache can never go stale.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set, Tuple

from repro.devtools.findings import Finding
from repro.devtools.project import LintModule, walk
from repro.devtools.registry import Rule, register


def is_cache_name(name: str) -> bool:
    """Whether a ``self.`` attribute name denotes a memo store."""
    return "cache" in name or name.startswith(("_memo", "_cached"))


def is_generation_name(name: str) -> bool:
    """Whether a ``self.`` attribute name denotes an invalidation stamp."""
    return "generation" in name or "epoch" in name or name.endswith("_version")


def _stored_self_attrs(func: ast.AST) -> Set[str]:
    """Names of ``self.X`` attributes stored to anywhere in ``func``.

    Covers plain/annotated/augmented assignment and item assignment on
    the attribute (``self.X[...] = ...``).
    """
    stored: Set[str] = set()
    for node in walk(func):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, (ast.Subscript, ast.Starred)):
                target = target.value
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                stored.add(target.attr)
    return stored


@register
class CacheInvalidation(Rule):
    """Memoizing classes that mutate state must stamp a generation."""

    id = "cache-invalidation"
    description = (
        "a class with a *_cache/_memo* attribute and mutating methods "
        "must also maintain a generation/epoch counter"
    )

    def check_module(self, module: LintModule) -> Iterator[Finding]:
        for node in walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(
        self, module: LintModule, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        cache_attrs: Set[str] = set()
        generation = False
        mutating: Set[Tuple[str, int]] = set()
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stored = _stored_self_attrs(item)
            cache_attrs |= {name for name in stored if is_cache_name(name)}
            generation = generation or any(is_generation_name(n) for n in stored)
            if item.name != "__init__" and any(
                not is_cache_name(name) and not is_generation_name(name)
                for name in stored
            ):
                mutating.add((item.name, item.lineno))
        if cache_attrs and mutating and not generation:
            methods = ", ".join(sorted(name for name, _ in mutating))
            yield Finding(
                path=module.display_path,
                line=cls.lineno,
                column=cls.col_offset,
                rule=self.id,
                message=(
                    f"class {cls.name} memoizes {sorted(cache_attrs)} but "
                    f"mutates state in {methods} without a generation counter"
                ),
                hint=(
                    "stamp cached values with a self._generation bumped by "
                    "every mutator (see repro.core.social.SocialModel)"
                ),
            )
