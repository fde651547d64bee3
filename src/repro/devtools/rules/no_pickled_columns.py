"""no-pickled-columns: columnar containers never cross a pool by pickle.

The zero-copy transport (:mod:`repro.runtime.shm`) exists so that a
replay's demand rows are published into shared memory once and
referenced by a few-hundred-byte :class:`~repro.runtime.shm.ShmHandle`.
Pickling a heavyweight columnar container —
:class:`~repro.trace.columnar.SessionArrays`,
:class:`~repro.trace.columnar.DemandArrays`,
:class:`~repro.trace.columnar.FlowArrays` or a whole
:class:`~repro.trace.records.TraceBundle` — into a
:class:`~concurrent.futures.ProcessPoolExecutor` task would silently
reintroduce the serialization tax the transport removed.  This
rule bans, in modules under ``repro.runtime``:

* class-body field annotations naming a banned container — a task or
  outcome dataclass field is exactly what gets pickled across the pool;
* ``pool.submit(...)`` / ``pool.map(...)`` arguments that construct a
  banned container (``SessionArrays.from_sessions(...)``), call a
  ``TraceBundle`` column accessor (``.columns()``,
  ``.demand_columns()``, ``.flow_columns()``), or name a module-level
  value assigned from either.

The analysis is local and flow-insensitive, like ``fork-safe-rng`` —
enough to catch the construct the transport contract bans.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.devtools.findings import Finding
from repro.devtools.project import LintModule
from repro.devtools.registry import Rule, register
from repro.devtools.rules.imports import ImportMap, canonical_call

#: The package whose modules this rule applies to.
SCOPE = "repro.runtime"

#: Canonical names of the containers that must not be pickled.
BANNED = (
    "repro.trace.columnar.DemandArrays",
    "repro.trace.columnar.FlowArrays",
    "repro.trace.columnar.SessionArrays",
    "repro.trace.records.TraceBundle",
)

#: ``TraceBundle`` accessors whose results are the banned containers.
COLUMN_METHODS = ("columns", "demand_columns", "flow_columns")

#: Executor methods that pickle their arguments into worker processes.
POOL_METHODS = ("submit", "map")

_HINT = (
    "publish the columns once via repro.runtime.shm.SegmentSet and hand "
    "workers an ShmHandle/ShmSlice instead"
)


def _in_scope(module_name: str) -> bool:
    return module_name == SCOPE or module_name.startswith(SCOPE + ".")


def _banned_name(node: ast.AST, imports: ImportMap) -> Optional[str]:
    """The banned container ``node`` resolves to (or prefixes), if any."""
    canonical = canonical_call(node, imports)
    if canonical is None:
        return None
    for banned in BANNED:
        if canonical == banned or canonical.startswith(banned + "."):
            return banned
    return None


def _is_column_accessor(node: ast.AST) -> bool:
    """Whether ``node`` is a call like ``something.columns()``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in COLUMN_METHODS
    )


@register
class NoPickledColumns(Rule):
    """Ban columnar containers crossing a pool boundary by pickle."""

    id = "no-pickled-columns"
    description = (
        "code under repro.runtime may not pickle SessionArrays/"
        "DemandArrays/FlowArrays/TraceBundle across a process pool; "
        "publish through repro.runtime.shm instead"
    )

    def check_module(self, module: LintModule) -> Iterator[Finding]:
        if not _in_scope(module.module):
            return
        imports = ImportMap(module.tree)
        column_locals = self._column_locals(module.tree, imports)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class_fields(module, node, imports)
            elif isinstance(node, ast.Call):
                yield from self._check_pool_call(
                    module, node, imports, column_locals
                )

    # ------------------------------------------------------- class fields

    def _check_class_fields(
        self, module: LintModule, node: ast.ClassDef, imports: ImportMap
    ) -> Iterator[Finding]:
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            banned = self._annotation_names(stmt.annotation, imports)
            if banned:
                yield self._finding(
                    module,
                    stmt,
                    f"field annotated with {banned} inside repro.runtime — "
                    "a task/outcome dataclass field is pickled across the "
                    "pool boundary",
                )

    def _annotation_names(
        self, annotation: ast.AST, imports: ImportMap
    ) -> Optional[str]:
        """The first banned container an annotation expression mentions."""
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
        for sub in ast.walk(annotation):
            if isinstance(sub, (ast.Name, ast.Attribute)):
                banned = _banned_name(sub, imports)
                if banned is not None:
                    return banned
        return None

    # --------------------------------------------------------- pool calls

    def _check_pool_call(
        self,
        module: LintModule,
        node: ast.Call,
        imports: ImportMap,
        column_locals: Set[str],
    ) -> Iterator[Finding]:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in POOL_METHODS):
            return
        arguments = list(node.args)
        arguments.extend(keyword.value for keyword in node.keywords)
        for argument in arguments:
            if isinstance(argument, ast.Call):
                banned = _banned_name(argument.func, imports)
                if banned is not None:
                    yield self._finding(
                        module,
                        argument,
                        f"`{func.attr}()` pickles a {banned} into the pool",
                    )
                elif _is_column_accessor(argument):
                    assert isinstance(argument.func, ast.Attribute)
                    yield self._finding(
                        module,
                        argument,
                        f"`{func.attr}()` pickles a `.{argument.func.attr}()` "
                        "result (columnar arrays) into the pool",
                    )
            elif (
                isinstance(argument, ast.Name)
                and argument.id in column_locals
            ):
                yield self._finding(
                    module,
                    argument,
                    f"`{func.attr}()` pickles `{argument.id}` (columnar "
                    "arrays) into the pool",
                )

    def _column_locals(
        self, tree: ast.AST, imports: ImportMap
    ) -> Set[str]:
        """Names assigned from banned constructors or column accessors."""
        names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            if not isinstance(value, ast.Call):
                continue
            if _banned_name(value.func, imports) is None and not (
                _is_column_accessor(value)
            ):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    def _finding(
        self, module: LintModule, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=module.display_path,
            line=node.lineno,
            column=node.col_offset,
            rule=self.id,
            message=message,
            hint=_HINT,
        )
