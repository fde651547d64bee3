"""boundary-purity: code that crosses the process boundary stays pure.

Whatever a worker process executes must be a pure function of its
pickled task arguments: serial/process parity (and replayability under
retries) dies the moment worker-reachable code reads ambient state.
This whole-program rule discovers the **boundary entry set** — the
public functions of :mod:`repro.runtime.workers`, every ``runner``
passed to :func:`repro.runtime.resilience.run_pool_with_retries` /
``serial_with_retries``, and every ``fn`` wrapped by
:func:`repro.runtime.sweep.make_task` — closes it over the inferred
call graph (:mod:`repro.devtools.flow`), and bans in the closure:

* reads of ``os.environ`` / ``os.getenv`` (spawned workers inherit a
  different environment than the parent you debugged);
* ``global`` statements and mutation of module-level mutable
  containers (state that silently diverges between serial and process
  engines), except in :data:`SANCTIONED_STATE_MODULES`.

Hidden-global RNG is not this rule's business: ``no-unseeded-rng`` bans
it in every module, worker-reachable or not.

Findings carry the call chain from the boundary entry, so a violation
three calls deep is still attributable.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.devtools.findings import Finding
from repro.devtools.flow import (
    MUTATOR_METHODS,
    FlowAnalysis,
    FunctionInfo,
    universe,
)
from repro.devtools.project import Project, walk
from repro.devtools.registry import Rule, register

#: The module whose public functions execute inside worker processes.
WORKERS_MODULE = "repro.runtime.workers"

#: Call targets whose ``runner`` argument (2nd positional / keyword)
#: becomes a boundary entry: the retry harness invokes it per task.
RUNNER_SINKS: FrozenSet[str] = frozenset(
    {
        "repro.runtime.resilience.run_pool_with_retries",
        "repro.runtime.resilience.serial_with_retries",
    }
)

#: Call targets whose ``fn`` argument (2nd positional / keyword) becomes
#: a boundary entry: the task callable shipped to workers.
TASK_SINKS: FrozenSet[str] = frozenset({"repro.runtime.sweep.make_task"})

#: Modules whose module-level state is *deliberately* per-process and
#: reset by ``init_worker`` (perf counters, tracer, the wall-clock
#: funnel, the workload memo).  State checks (mutation / ``global``)
#: are waived there; the environment check still applies.
SANCTIONED_STATE_MODULES: FrozenSet[str] = frozenset(
    {
        "repro.perf",
        "repro.obs.tracer",
        "repro.obs._clock",
        "repro.experiments.workload",
    }
)

#: ``os`` members that read or write the process environment.
_ENV_ATTRS = frozenset({"os.environ", "os.environb"})
_ENV_CALLS = frozenset({"os.getenv", "os.putenv", "os.unsetenv"})


@register
class BoundaryPurity(Rule):
    """Worker-reachable code must not touch ambient process state."""

    id = "boundary-purity"
    description = (
        "functions reachable from the worker boundary (runtime.workers "
        "entry points, retry runners, make_task callables) must not read "
        "os.environ or mutate module state"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        flow = universe(project)
        linted = {m.module for m in project.modules}
        chains = flow.reachable(self._entries(flow))
        for qualname in sorted(chains):
            info = flow.functions[qualname]
            if info.module not in linted:
                continue
            module = flow.modules.get(info.module)
            if module is None:
                continue
            chain = chains[qualname]
            for node, message, hint in self._violations(flow, info):
                yield Finding(
                    path=module.display_path,
                    line=node.lineno,
                    column=getattr(node, "col_offset", 0),
                    rule=self.id,
                    message=f"{message} [via {_render_chain(chain)}]",
                    hint=hint,
                )

    # ------------------------------------------------------ entry discovery

    def _entries(self, flow: FlowAnalysis) -> List[str]:
        entries: Set[str] = set()
        for info in flow.module_functions(WORKERS_MODULE):
            if info.class_qualname is None and not info.def_node.name.startswith(
                "_"
            ):
                entries.add(info.qualname)
        sinks = RUNNER_SINKS | TASK_SINKS
        for info in flow.functions.values():
            env = flow.function_env(info.qualname)
            for node in walk(info.def_node):
                if not isinstance(node, ast.Call):
                    continue
                target = flow.resolve_call_target(info.module, node.func, env)
                if target not in sinks:
                    continue
                keyword = "runner" if target in RUNNER_SINKS else "fn"
                callable_arg = self._second_arg(node, keyword)
                if callable_arg is None:
                    continue
                resolved = self._resolve_callable(
                    flow, info.module, callable_arg
                )
                if resolved is not None:
                    entries.add(resolved)
        return sorted(entries)

    @staticmethod
    def _second_arg(node: ast.Call, keyword: str) -> Optional[ast.expr]:
        for kw in node.keywords:
            if kw.arg == keyword:
                return kw.value
        if len(node.args) >= 2:
            return node.args[1]
        return None

    @staticmethod
    def _resolve_callable(
        flow: FlowAnalysis, module_name: str, node: ast.expr
    ) -> Optional[str]:
        dotted = flow.canonical(module_name, node)
        if dotted is None:
            return None
        target = flow.lookup(dotted)
        if target is not None and target in flow.functions:
            return target
        return None

    # ----------------------------------------------------------- violations

    def _violations(
        self, flow: FlowAnalysis, info: FunctionInfo
    ) -> Iterator[Tuple[ast.AST, str, str]]:
        module_name = info.module
        imported_roots = self._imported_roots(flow, module_name)
        check_state = module_name not in SANCTIONED_STATE_MODULES
        mutables = (
            flow.module_mutables(module_name) - _local_names(info.def_node)
            if check_state
            else frozenset()
        )
        for node in walk(info.def_node):
            if isinstance(node, ast.Global) and check_state:
                yield (
                    node,
                    f"`global {', '.join(node.names)}` in worker-reachable "
                    f"{info.qualname}",
                    "pass state through task arguments and return values",
                )
            elif isinstance(node, ast.Attribute):
                dotted = flow.canonical(module_name, node)
                if (
                    dotted in _ENV_ATTRS
                    and "os" in imported_roots
                    and not isinstance(node.ctx, ast.Store)
                ):
                    yield (
                        node,
                        f"{dotted} read in worker-reachable {info.qualname}",
                        "workers must not read the inherited environment; "
                        "pass configuration through the task payload",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(
                    flow, info, node, imported_roots, mutables
                )
            elif check_state and mutables:
                target = _mutated_subscript(node)
                if target is not None and target in mutables:
                    yield (
                        node,
                        f"module-level container {target!r} mutated in "
                        f"worker-reachable {info.qualname}",
                        "per-process caches belong in "
                        "SANCTIONED_STATE_MODULES resets, not ad-hoc globals",
                    )

    def _check_call(
        self,
        flow: FlowAnalysis,
        info: FunctionInfo,
        node: ast.Call,
        imported_roots: FrozenSet[str],
        mutables: FrozenSet[str],
    ) -> Iterator[Tuple[ast.AST, str, str]]:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATOR_METHODS
            and isinstance(func.value, ast.Name)
            and func.value.id in mutables
        ):
            yield (
                node,
                f"module-level container {func.value.id!r} mutated via "
                f".{func.attr}() in worker-reachable {info.qualname}",
                "per-process caches belong in SANCTIONED_STATE_MODULES "
                "resets, not ad-hoc globals",
            )
        dotted = flow.canonical(info.module, func)
        if dotted is None:
            return
        if dotted in _ENV_CALLS and "os" in imported_roots:
            yield (
                node,
                f"{dotted}() in worker-reachable {info.qualname}",
                "workers must not read the inherited environment; pass "
                "configuration through the task payload",
            )

    @staticmethod
    def _imported_roots(
        flow: FlowAnalysis, module_name: str
    ) -> FrozenSet[str]:
        return frozenset(
            edge.imported.split(".", 1)[0]
            for edge in flow.import_edges
            if edge.importer == module_name
        )


def _mutated_subscript(node: ast.AST) -> Optional[str]:
    """Name of a module-level container written through a subscript."""
    target: Optional[ast.expr] = None
    if isinstance(node, ast.Assign):
        for candidate in node.targets:
            if isinstance(candidate, ast.Subscript):
                target = candidate
                break
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        if isinstance(node.target, ast.Subscript):
            target = node.target
    elif isinstance(node, ast.Delete):
        for candidate in node.targets:
            if isinstance(candidate, ast.Subscript):
                target = candidate
                break
    if (
        isinstance(target, ast.Subscript)
        and isinstance(target.value, ast.Name)
    ):
        return target.value.id
    return None


def _local_names(def_node: ast.AST) -> Set[str]:
    """Names bound locally in ``def_node`` (they shadow module globals)."""
    names: Set[str] = set()
    assert isinstance(def_node, (ast.FunctionDef, ast.AsyncFunctionDef))
    args = def_node.args
    for arg in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        names.add(arg.arg)
    for node in walk(def_node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                _collect_targets(target, names)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            _collect_targets(node.target, names)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            _collect_targets(node.target, names)
        elif isinstance(node, ast.comprehension):
            _collect_targets(node.target, names)
        elif isinstance(node, ast.NamedExpr):
            _collect_targets(node.target, names)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    _collect_targets(item.optional_vars, names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not def_node
        ):
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            names.difference_update(node.names)
    return names


def _collect_targets(target: ast.expr, names: Set[str]) -> None:
    if isinstance(target, ast.Name):
        names.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _collect_targets(element, names)
    elif isinstance(target, ast.Starred):
        _collect_targets(target.value, names)


def _render_chain(chain: Tuple[str, ...]) -> str:
    shown = list(chain)
    if len(shown) > 4:
        shown = [shown[0], "...", shown[-2], shown[-1]]
    return " -> ".join(shown)
