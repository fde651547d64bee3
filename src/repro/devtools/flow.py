"""Whole-program analysis: import graph + symbol/call index over ``src``.

The per-file rules in :mod:`repro.devtools.rules` defend *local*
invariants; the properties added with the runtime engine are
whole-program ones — stream names colliding across modules, a banned
nondeterminism source reachable across the spawn boundary, a layering
violation three imports deep.  This module builds the shared substrate
those cross-module rules (``rng-stream-registry``, ``import-contract``,
``boundary-purity``) run on:

* a **universe** of parsed modules: every file under ``src`` plus the
  modules of the current lint invocation overlaid *by dotted name*, so
  fixture files that shadow real module names (the existing scoped-rule
  trick) participate in the analysis exactly as the real module would;
* an **import graph** (:class:`ImportEdge`): per-alias, normalized to
  module granularity, tagged top-level vs. lazy (function-body) and
  ``TYPE_CHECKING``-only;
* a **symbol index**: every module-level function, class and method by
  fully-qualified dotted name, with base-class links and a per-class
  attribute-type table;
* a **call index** with lightweight type inference — parameter/return
  annotations, constructor-typed locals, ``self.attr`` types from
  ``__init__`` — enough to resolve method calls like
  ``task.strategy.select(...)`` through dataclass fields, fan polymorphic
  calls out to subclass overrides, and compute the transitive closure of
  "functions reachable from a worker entry point".

Everything here is purely syntactic (:mod:`ast` only); nothing imports
the code under analysis.  The analysis is deliberately flow-insensitive
and conservative: an unresolvable call contributes no edge, so rules
built on top must pair closure checks with registries that are verified
in both directions (the :mod:`repro.devtools.stream_registry` pattern).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.devtools.project import (
    LintModule,
    Project,
    module_name_for,
    parse_module,
    walk,
)

#: The stream-factory class the rng-stream rule tracks receivers of.
RANDOM_STREAMS = "repro.sim.rng.RandomStreams"

#: Directory names never descended into when loading the src tree.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}

#: Parsed src trees by resolved root — parsing ~100 files once per
#: process instead of once per Project keeps the fixture tests fast.
_TREE_CACHE: Dict[str, Dict[str, LintModule]] = {}


@dataclass(frozen=True)
class ImportEdge:
    """One import binding, normalized to module granularity."""

    importer: str
    imported: str
    lineno: int
    column: int
    #: Whether the statement executes at module import time (directly in
    #: the module body, including under top-level ``if``).  Function-body
    #: imports are the sanctioned lazy cycle-breaker.
    top_level: bool
    #: Inside an ``if TYPE_CHECKING:`` block — never executes at runtime.
    type_only: bool


@dataclass
class FunctionInfo:
    """One module-level function or method."""

    qualname: str
    module: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    #: Enclosing class qualname for methods, None for plain functions.
    class_qualname: Optional[str] = None

    @property
    def def_node(self) -> ast.FunctionDef:
        assert isinstance(self.node, (ast.FunctionDef, ast.AsyncFunctionDef))
        return self.node  # type: ignore[return-value]


@dataclass
class ClassInfo:
    """One class: methods by bare name, bases resolved to the project."""

    qualname: str
    module: str
    node: ast.ClassDef
    #: Bare method name -> method qualname.
    methods: Dict[str, str] = field(default_factory=dict)
    #: Base classes resolved to project class qualnames (external bases
    #: are dropped — the hierarchy is project-internal).
    bases: Tuple[str, ...] = ()


@dataclass(frozen=True)
class StreamDerivation:
    """One ``RandomStreams.get/child`` call site with its name argument."""

    module: str
    #: ``"get"`` or ``"child"``.
    kind: str
    call: ast.Call
    #: The name argument expression (positional or ``name=``).
    name_arg: Optional[ast.expr]
    #: Qualname of the enclosing function, or None at module level.
    function: Optional[str]


def _flatten(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """Flatten ``a.b.c`` attribute chains to ``("a", "b", "c")``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return tuple(reversed(parts))


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


#: Calls that build a mutable container at module level.
_MUTABLE_FACTORIES = frozenset(
    {
        "dict",
        "list",
        "set",
        "collections.defaultdict",
        "collections.Counter",
        "collections.deque",
        "collections.OrderedDict",
    }
)

#: Method names that mutate a container in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "extend",
        "insert",
        "remove",
        "discard",
    }
)


def _is_mutable_literal(value: ast.expr, canonical: Optional[str]) -> bool:
    if isinstance(
        value,
        (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp),
    ):
        return True
    return canonical in _MUTABLE_FACTORIES


class FlowAnalysis:
    """The project-wide resolver: symbols, imports, calls, reachability."""

    def __init__(self, modules: Iterable[LintModule]) -> None:
        #: Universe by dotted module name; later entries win (overlay).
        self.modules: Dict[str, LintModule] = {}
        for module in modules:
            self.modules[module.module] = module
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.import_edges: List[ImportEdge] = []
        self._bindings: Dict[str, Dict[str, str]] = {}
        self._subclasses: Dict[str, Set[str]] = {}
        self._attr_types: Dict[Tuple[str, str], Optional[str]] = {}
        self._env_memo: Dict[str, Dict[str, str]] = {}
        self._callees_memo: Dict[str, FrozenSet[str]] = {}
        self._mutables_memo: Dict[str, FrozenSet[str]] = {}
        for module in self.modules.values():
            self._index_module(module)
        self._link_classes()

    # ------------------------------------------------------------ indexing

    def _index_module(self, module: LintModule) -> None:
        bindings: Dict[str, str] = {}
        for node in walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        bindings[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".", 1)[0]
                        bindings[root] = root
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(module.module, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    bindings[local] = f"{base}.{alias.name}"
        stack: List[str] = []
        self._index_body(module, module.tree.body, stack, bindings)
        self._bindings[module.module] = bindings
        self._collect_import_edges(module)

    def _index_body(
        self,
        module: LintModule,
        body: Sequence[ast.stmt],
        stack: List[str],
        bindings: Dict[str, str],
    ) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = ".".join([module.module, *stack, node.name])
                class_qualname = (
                    ".".join([module.module, *stack]) if stack else None
                )
                info = FunctionInfo(
                    qualname=qualname,
                    module=module.module,
                    node=node,
                    class_qualname=class_qualname,
                )
                self.functions[qualname] = info
                if stack:
                    owner = self.classes[".".join([module.module, *stack])]
                    owner.methods.setdefault(node.name, qualname)
                else:
                    bindings[node.name] = qualname
            elif isinstance(node, ast.ClassDef):
                qualname = ".".join([module.module, *stack, node.name])
                self.classes[qualname] = ClassInfo(
                    qualname=qualname, module=module.module, node=node
                )
                if not stack:
                    bindings[node.name] = qualname
                self._index_body(module, node.body, stack + [node.name], bindings)

    def _import_base(
        self, module_name: str, node: ast.ImportFrom
    ) -> Optional[str]:
        """The absolute package an ``ImportFrom`` resolves against."""
        if not node.level:
            return node.module
        parts = module_name.split(".")
        is_package = module_name in self.modules and self.modules[
            module_name
        ].path.name == "__init__.py"
        package = parts if is_package else parts[:-1]
        drop = node.level - 1
        if drop:
            package = package[:-drop] if drop < len(package) else []
        if not package:
            return node.module
        base = ".".join(package)
        return f"{base}.{node.module}" if node.module else base

    def _collect_import_edges(self, module: LintModule) -> None:
        def visit(
            body: Sequence[ast.stmt], top_level: bool, type_only: bool
        ) -> None:
            for node in body:
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        self._add_edge(
                            module, alias.name, node, top_level, type_only
                        )
                elif isinstance(node, ast.ImportFrom):
                    base = self._import_base(module.module, node)
                    if base is None:
                        continue
                    for alias in node.names:
                        if alias.name == "*":
                            target = base
                        else:
                            candidate = f"{base}.{alias.name}"
                            target = (
                                candidate if candidate in self.modules else base
                            )
                        self._add_edge(module, target, node, top_level, type_only)
                elif isinstance(node, ast.If):
                    marked = type_only or _is_type_checking_test(node.test)
                    visit(node.body, top_level, marked)
                    visit(node.orelse, top_level, type_only)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(node.body, False, type_only)
                elif isinstance(node, ast.ClassDef):
                    visit(node.body, top_level, type_only)
                elif isinstance(node, (ast.With, ast.AsyncWith)):
                    visit(node.body, top_level, type_only)
                elif isinstance(node, (ast.Try,)):
                    for block in (node.body, node.orelse, node.finalbody):
                        visit(block, top_level, type_only)
                    for handler in node.handlers:
                        visit(handler.body, top_level, type_only)
                elif isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                    visit(node.body, top_level, type_only)
                    visit(node.orelse, top_level, type_only)

        visit(module.tree.body, True, False)

    def _add_edge(
        self,
        module: LintModule,
        imported: str,
        node: ast.stmt,
        top_level: bool,
        type_only: bool,
    ) -> None:
        self.import_edges.append(
            ImportEdge(
                importer=module.module,
                imported=imported,
                lineno=node.lineno,
                column=node.col_offset,
                top_level=top_level,
                type_only=type_only,
            )
        )

    def _link_classes(self) -> None:
        for info in self.classes.values():
            resolved: List[str] = []
            for base in info.node.bases:
                dotted = self.canonical(info.module, base)
                if dotted is None:
                    continue
                target = self.lookup(dotted)
                if target is not None and target in self.classes:
                    resolved.append(target)
            info.bases = tuple(resolved)
            for base_q in resolved:
                self._subclasses.setdefault(base_q, set()).add(info.qualname)

    # ---------------------------------------------------------- resolution

    def canonical(self, module_name: str, node: ast.AST) -> Optional[str]:
        """The dotted name ``node`` refers to, after import substitution."""
        parts = _flatten(node)
        if parts is None:
            return None
        bindings = self._bindings.get(module_name, {})
        head = bindings.get(parts[0], parts[0])
        return ".".join((head,) + parts[1:])

    def lookup(self, dotted: str, _depth: int = 0) -> Optional[str]:
        """Canonical project symbol (module/class/function) for ``dotted``.

        Follows one level of package re-export per recursion step, so
        ``repro.sim.RandomStreams`` resolves through ``repro/sim/__init__``
        when re-exported there.
        """
        if dotted in self.functions or dotted in self.classes:
            return dotted
        if dotted in self.modules:
            return dotted
        head, _, last = dotted.rpartition(".")
        if head in self.classes:
            method = self._method_in_hierarchy(head, last)
            return method
        if _depth >= 4:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                binding = self._bindings[prefix].get(parts[cut])
                if binding is None:
                    return None
                return self.lookup(
                    ".".join([binding, *parts[cut + 1 :]]), _depth + 1
                )
        return None

    def _method_in_hierarchy(
        self, class_qualname: str, name: str, _seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        seen = _seen if _seen is not None else set()
        if class_qualname in seen:
            return None
        seen.add(class_qualname)
        info = self.classes.get(class_qualname)
        if info is None:
            return None
        if name in info.methods:
            return info.methods[name]
        for base in info.bases:
            found = self._method_in_hierarchy(base, name, seen)
            if found is not None:
                return found
        return None

    def transitive_subclasses(self, class_qualname: str) -> Set[str]:
        out: Set[str] = set()
        queue = [class_qualname]
        while queue:
            current = queue.pop()
            for sub in self._subclasses.get(current, ()):
                if sub not in out:
                    out.add(sub)
                    queue.append(sub)
        return out

    # ------------------------------------------------------ type inference

    def _annotation_class(
        self, module_name: str, annotation: Optional[ast.expr]
    ) -> Optional[str]:
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            try:
                parsed = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
            return self._annotation_class(module_name, parsed)
        if isinstance(annotation, ast.Subscript):
            outer = self.canonical(module_name, annotation.value)
            if outer in ("typing.Optional", "Optional"):
                return self._annotation_class(module_name, annotation.slice)
            return None
        if isinstance(annotation, (ast.Name, ast.Attribute)):
            dotted = self.canonical(module_name, annotation)
            if dotted is None:
                return None
            target = self.lookup(dotted)
            if target is not None and target in self.classes:
                return target
        return None

    def function_env(self, qualname: str) -> Dict[str, str]:
        """Local name -> class qualname, for one function's scope."""
        if qualname in self._env_memo:
            return self._env_memo[qualname]
        info = self.functions[qualname]
        node = info.def_node
        env: Dict[str, str] = {}
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        if info.class_qualname is not None and positional:
            decorators = {
                self.canonical(info.module, d) for d in node.decorator_list
            }
            if "staticmethod" not in decorators:
                env[positional[0].arg] = info.class_qualname
        for arg in positional + list(args.kwonlyargs):
            inferred = self._annotation_class(info.module, arg.annotation)
            if inferred is not None:
                env[arg.arg] = inferred
        self._env_memo[qualname] = env  # pre-publish: expr_type may recurse
        for _ in range(2):  # two passes pick up forward-referenced locals
            for sub in walk(node):
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    target = sub.targets[0]
                    value = sub.value
                elif isinstance(sub, ast.AnnAssign) and isinstance(
                    sub.target, ast.Name
                ):
                    annotated = self._annotation_class(
                        info.module, sub.annotation
                    )
                    if annotated is not None:
                        env[sub.target.id] = annotated
                    continue
                else:
                    continue
                if not isinstance(target, ast.Name):
                    continue
                inferred = self.expr_type(info.module, value, env)
                if inferred is not None:
                    env[target.id] = inferred
        return env

    def expr_type(
        self, module_name: str, expr: ast.expr, env: Dict[str, str]
    ) -> Optional[str]:
        """The project class an expression evaluates to, if inferable."""
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.expr_type(module_name, expr.value, env)
            if base is not None:
                return self.attribute_type(base, expr.attr)
            return None
        if isinstance(expr, ast.IfExp):
            # `x if x is not None else Default()` — either arm decides.
            body = self.expr_type(module_name, expr.body, env)
            if body is not None:
                return body
            return self.expr_type(module_name, expr.orelse, env)
        if isinstance(expr, ast.Call):
            target = self.resolve_call_target(module_name, expr.func, env)
            if target is None:
                return None
            if target in self.classes:
                return target
            info = self.functions.get(target)
            if info is not None:
                return self._annotation_class(
                    info.module, info.def_node.returns
                )
            return None
        return None

    def attribute_type(self, class_qualname: str, attr: str) -> Optional[str]:
        """Type of ``instance.attr`` from class-body and ``__init__`` AST."""
        key = (class_qualname, attr)
        if key in self._attr_types:
            return self._attr_types[key]
        self._attr_types[key] = None  # cycle guard
        result = self._infer_attribute(class_qualname, attr)
        self._attr_types[key] = result
        return result

    def _infer_attribute(self, class_qualname: str, attr: str) -> Optional[str]:
        info = self.classes.get(class_qualname)
        if info is None:
            return None
        for node in info.node.body:
            if (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id == attr
            ):
                return self._annotation_class(info.module, node.annotation)
        init = info.methods.get("__init__")
        if init is not None:
            init_info = self.functions[init]
            env = self.function_env(init)
            for sub in walk(init_info.def_node):
                target: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                annotation: Optional[ast.expr] = None
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    target, value = sub.targets[0], sub.value
                elif isinstance(sub, ast.AnnAssign):
                    target, value, annotation = (
                        sub.target,
                        sub.value,
                        sub.annotation,
                    )
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr == attr
                ):
                    if annotation is not None:
                        return self._annotation_class(
                            init_info.module, annotation
                        )
                    if value is not None:
                        return self.expr_type(init_info.module, value, env)
        for base in info.bases:
            inherited = self.attribute_type(base, attr)
            if inherited is not None:
                return inherited
        return None

    def resolve_call_target(
        self, module_name: str, func: ast.expr, env: Dict[str, str]
    ) -> Optional[str]:
        """The function/class qualname a call expression invokes."""
        if isinstance(func, ast.Attribute):
            receiver = self.expr_type(module_name, func.value, env)
            if receiver is not None and receiver in self.classes:
                return self._method_in_hierarchy(receiver, func.attr)
        dotted = self.canonical(module_name, func)
        if dotted is None:
            return None
        target = self.lookup(dotted)
        if target is not None and (
            target in self.functions or target in self.classes
        ):
            return target
        return None

    # ----------------------------------------------------------- callgraph

    def callees(self, qualname: str) -> FrozenSet[str]:
        """Function qualnames ``qualname`` may invoke (incl. overrides).

        Covers direct calls, method calls resolved through the inferred
        receiver type (fanned out to subclass overrides), constructor
        calls (``__init__``), and bare function *references* — a function
        passed as a callback is treated as called.
        """
        if qualname in self._callees_memo:
            return self._callees_memo[qualname]
        self._callees_memo[qualname] = frozenset()  # recursion guard
        info = self.functions.get(qualname)
        if info is None:
            return frozenset()
        env = self.function_env(qualname)
        out: Set[str] = set()
        for node in walk(info.def_node):
            if isinstance(node, ast.Call):
                target = self.resolve_call_target(info.module, node.func, env)
                if target is not None:
                    self._expand_target(target, out)
            elif isinstance(node, (ast.Name, ast.Attribute)):
                dotted = self.canonical(info.module, node)
                if dotted is None:
                    continue
                target = self.lookup(dotted)
                if target is not None and target in self.functions:
                    out.add(target)
        result = frozenset(out)
        self._callees_memo[qualname] = result
        return result

    def _expand_target(self, target: str, out: Set[str]) -> None:
        if target in self.classes:
            init = self._method_in_hierarchy(target, "__init__")
            if init is not None:
                out.add(init)
            return
        out.add(target)
        info = self.functions.get(target)
        if info is None or info.class_qualname is None:
            return
        name = info.def_node.name
        for sub in self.transitive_subclasses(info.class_qualname):
            override = self.classes[sub].methods.get(name)
            if override is not None:
                out.add(override)

    def reachable(
        self, entries: Iterable[str]
    ) -> Dict[str, Tuple[str, ...]]:
        """BFS closure over :meth:`callees`; qualname -> call chain."""
        chains: Dict[str, Tuple[str, ...]] = {}
        queue: List[str] = []
        for entry in entries:
            if entry in self.functions and entry not in chains:
                chains[entry] = (entry,)
                queue.append(entry)
        while queue:
            current = queue.pop(0)
            for callee in sorted(self.callees(current)):
                if callee not in chains:
                    chains[callee] = chains[current] + (callee,)
                    queue.append(callee)
        return chains

    # ------------------------------------------------------ module queries

    def module_mutables(self, module_name: str) -> FrozenSet[str]:
        """Module-level names bound to mutable containers."""
        if module_name in self._mutables_memo:
            return self._mutables_memo[module_name]
        module = self.modules.get(module_name)
        names: Set[str] = set()
        if module is not None:
            for node in module.tree.body:
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign):
                    targets, value = list(node.targets), node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                if value is None:
                    continue
                canonical = (
                    self.canonical(module_name, value.func)
                    if isinstance(value, ast.Call)
                    else None
                )
                if not _is_mutable_literal(value, canonical):
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        result = frozenset(names)
        self._mutables_memo[module_name] = result
        return result

    def module_functions(self, module_name: str) -> List[FunctionInfo]:
        """Indexed functions (incl. methods) defined in one module."""
        return [
            info
            for info in self.functions.values()
            if info.module == module_name
        ]

    def stream_derivations(
        self, module: LintModule
    ) -> Iterator[StreamDerivation]:
        """Every ``RandomStreams.get/child`` call site in ``module``.

        Receiver typing is inferred (annotations, constructor locals,
        ``__init__`` attribute types, chained ``child()`` returns); calls
        whose receiver cannot be shown to be a :class:`RandomStreams`
        are skipped — `.get` on a dict is not a stream derivation.
        """
        indexed_nodes = {
            id(info.node)
            for info in self.functions.values()
            if info.module == module.module
        }
        for info in self.module_functions(module.module):
            env = self.function_env(info.qualname)
            for call in walk(info.def_node):
                derivation = self._stream_call(module, call, env, info.qualname)
                if derivation is not None:
                    yield derivation
        # Module-level statements (skip the indexed function bodies).
        module_env: Dict[str, str] = {}
        for node in module.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                if isinstance(node.targets[0], ast.Name):
                    inferred = self.expr_type(
                        module.module, node.value, module_env
                    )
                    if inferred is not None:
                        module_env[node.targets[0].id] = inferred
        for top in self.module_level_nodes(module, indexed_nodes):
            derivation = self._stream_call(module, top, module_env, None)
            if derivation is not None:
                yield derivation

    def module_level_nodes(
        self, module: LintModule, skip: Set[int]
    ) -> Iterator[ast.AST]:
        def visit(node: ast.AST) -> Iterator[ast.AST]:
            for child in ast.iter_child_nodes(node):
                if id(child) in skip:
                    continue
                yield child
                yield from visit(child)

        yield from visit(module.tree)

    def _stream_call(
        self,
        module: LintModule,
        node: ast.AST,
        env: Dict[str, str],
        function: Optional[str],
    ) -> Optional[StreamDerivation]:
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in (
            "get",
            "child",
        ):
            return None
        receiver = self.expr_type(module.module, func.value, env)
        if receiver != RANDOM_STREAMS:
            return None
        name_arg: Optional[ast.expr] = None
        if node.args:
            name_arg = node.args[0]
        else:
            for keyword in node.keywords:
                if keyword.arg == "name":
                    name_arg = keyword.value
        return StreamDerivation(
            module=module.module,
            kind=func.attr,
            call=node,
            name_arg=name_arg,
            function=function,
        )


# ----------------------------------------------------------------- loading


def _load_src_tree(
    src_root: Path, parsed: Iterable[LintModule] = ()
) -> Dict[str, LintModule]:
    """Every module under ``src_root``, parsed once per process.

    A file the caller already ``parsed`` under its own name (a lint of
    ``src`` parses every one) is taken as it is.
    """
    key = str(src_root.resolve())
    if key in _TREE_CACHE:
        return _TREE_CACHE[key]
    reuse = {
        module.path.resolve(): module
        for module in parsed
        if module.module == module_name_for(module.path)
    }
    modules: Dict[str, LintModule] = {}

    def descend(directory: Path) -> None:
        for child in sorted(directory.iterdir()):
            if child.is_dir():
                if child.name not in _SKIP_DIRS:
                    descend(child)
            elif child.suffix == ".py":
                module = reuse.get(child.resolve()) or parse_module(child)
                modules[module.module] = module

    if src_root.is_dir():
        descend(src_root)
    _TREE_CACHE[key] = modules
    return modules


def universe(project: Project) -> FlowAnalysis:
    """The shared :class:`FlowAnalysis` for one lint invocation.

    The universe is every module under ``project.src_root`` overlaid by
    the invocation's own parsed modules *by dotted name* — a fixture
    file parsed as ``repro.runtime.boundary`` joins (or shadows) the
    real tree, so cross-module rules see it exactly as they would a real
    module.  Cached on the project so the flow rules build it once.
    """
    cached = project.flow
    if isinstance(cached, FlowAnalysis):
        return cached
    modules = dict(_load_src_tree(project.src_root, project.modules))
    for module in project.modules:
        modules[module.module] = module
    analysis = FlowAnalysis(modules.values())
    project.flow = analysis
    return analysis
