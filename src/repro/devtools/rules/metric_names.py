"""metric-name-registry: every metric name is declared, owned, kind-true.

Metric names are merge keys: the cross-worker fold in
:meth:`repro.obs.metrics.MetricsRegistry.merge` and the journal's byte
contract both key series by name, so two modules emitting the same name
silently interleave their windows — a collision no per-file rule can
see.  This whole-program rule checks every instrumentation site against
:mod:`repro.obs.metric_registry` in **both directions**:

* a call to ``repro.obs.metrics.inc`` / ``set_gauge`` / ``observe``
  (resolved through the import graph), or a ``.counter(...)`` /
  ``.gauge(...)`` / ``.histogram(...)`` factory call, whose name is not
  a registered literal fails lint;
* a site naming a metric outside its registered ``owner`` module fails
  lint (global collision-freedom follows: names have unique owners);
* a site whose call form contradicts the registered kind fails lint —
  ``inc`` records counters, ``set_gauge`` gauges and ``observe``
  histograms;
* and — the reverse direction — a :class:`MetricSpec` with no surviving
  instrumentation site fails lint, so the registry cannot drift from
  the code.

:mod:`repro.obs.metrics` itself is exempt from findings (its factory
methods forward variable names by design) but is still scanned, and the
registered names keyed in its dict literals (the memory probe's fixed
source table, ``mem.peak_rss_bytes``) count as call sites.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.devtools.findings import Finding
from repro.devtools.flow import FlowAnalysis, universe
from repro.devtools.project import LintModule, Project, walk
from repro.devtools.registry import Rule, register
from repro.obs.metric_registry import SPECS_BY_NAME

#: Where findings against the registry itself are anchored.
REGISTRY_PATH = "src/repro/obs/metric_registry.py"

#: The module that owns the registry consumers (the factory itself).
EXEMPT_MODULE = "repro.obs.metrics"

#: Module-level recording functions -> the kind their call form implies.
MODULE_FUNCS: Dict[str, str] = {
    "repro.obs.metrics.inc": "counter",
    "repro.obs.metrics.set_gauge": "gauge",
    "repro.obs.metrics.observe": "histogram",
}

#: Registry factory methods -> the kind they create.
FACTORY_METHODS: Dict[str, str] = {
    "counter": "counter",
    "gauge": "gauge",
    "histogram": "histogram",
}

#: The class whose factory methods the heuristic belongs to.
_REGISTRY_CLASS = "repro.obs.metrics.MetricsRegistry"


def _name_argument(node: ast.Call) -> Optional[ast.expr]:
    """The ``name`` argument (first positional or keyword) of a call."""
    if node.args:
        return node.args[0]
    for keyword in node.keywords:
        if keyword.arg == "name":
            return keyword.value
    return None


def _table_keys(module: LintModule) -> Set[str]:
    """Registered names that key a dict literal in ``module``."""
    return {
        key.value
        for node in walk(module.tree)
        if isinstance(node, ast.Dict)
        for key in node.keys
        if isinstance(key, ast.Constant) and key.value in SPECS_BY_NAME
    }


@register
class MetricNameRegistry(Rule):
    """Every metric instrumentation site matches one registered spec."""

    id = "metric-name-registry"
    description = (
        "metric names recorded via repro.obs.metrics must match a "
        "MetricSpec in repro.obs.metric_registry — registered, owned by "
        "the recording module, kind-consistent, and checked against "
        "call sites in both directions"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        flow = universe(project)
        linted = {m.module for m in project.modules}
        used: Set[str] = set()
        for module_name in sorted(flow.modules):
            if not module_name.startswith("repro."):
                continue
            module = flow.modules[module_name]
            report = module_name in linted and module_name != EXEMPT_MODULE
            for finding, spec_name in self._sites(flow, module):
                if spec_name is not None:
                    used.add(spec_name)
                if finding is not None and report:
                    yield finding
            if module_name == EXEMPT_MODULE:
                used.update(_table_keys(module))
        # Reverse direction: the registry must not outlive the code.
        for name in sorted(SPECS_BY_NAME):
            if name not in used:
                spec = SPECS_BY_NAME[name]
                yield Finding(
                    path=REGISTRY_PATH,
                    line=1,
                    column=0,
                    rule=self.id,
                    message=(
                        f"metric spec {name!r} (owner {spec.owner}) matches "
                        "no instrumentation call site"
                    ),
                    hint="remove the MetricSpec or restore the recording site",
                )

    # ----------------------------------------------------------- call sites

    def _sites(
        self, flow: FlowAnalysis, module: LintModule
    ) -> Iterator[Tuple[Optional[Finding], Optional[str]]]:
        indexed = {
            id(info.node)
            for info in flow.functions.values()
            if info.module == module.module
        }
        for info in flow.module_functions(module.module):
            env = flow.function_env(info.qualname)
            for node in walk(info.def_node):
                yield from self._classify(flow, module, node, env)
        for node in flow.module_level_nodes(module, indexed):
            yield from self._classify(flow, module, node, {})

    def _classify(
        self,
        flow: FlowAnalysis,
        module: LintModule,
        node: ast.AST,
        env: Dict[str, str],
    ) -> Iterator[Tuple[Optional[Finding], Optional[str]]]:
        if not isinstance(node, ast.Call):
            return
        func = node.func
        # Factory methods: `.counter/.gauge/.histogram(<name>)`.  A
        # receiver typed to anything other than MetricsRegistry is not a
        # metric site; an untyped receiver engages the heuristic only
        # for string-literal names (`table.histogram(bins)` is spared).
        if isinstance(func, ast.Attribute) and func.attr in FACTORY_METHODS:
            receiver = flow.expr_type(module.module, func.value, env)
            if receiver is not None and receiver != _REGISTRY_CLASS:
                return
            arg = _name_argument(node)
            literal = self._literal(arg)
            if literal is not None:
                yield from self._check_name(
                    module, node, literal, FACTORY_METHODS[func.attr],
                    f".{func.attr}()",
                )
            elif receiver == _REGISTRY_CLASS:
                yield (
                    self._finding(
                        module,
                        node,
                        f"metric name for .{func.attr}() is not a string "
                        "literal",
                        "name the series with a literal registered in "
                        "repro/obs/metric_registry.py",
                    ),
                    None,
                )
            return
        # Module-level recording functions, resolved through imports.
        target = flow.resolve_call_target(module.module, func, env)
        if target not in MODULE_FUNCS:
            return
        arg = _name_argument(node)
        literal = self._literal(arg)
        if literal is None:
            yield (
                self._finding(
                    module,
                    node,
                    f"metric name passed to {target} is not a string literal",
                    "name the series with a literal registered in "
                    "repro/obs/metric_registry.py",
                ),
                None,
            )
            return
        assert target is not None
        yield from self._check_name(
            module, node, literal, MODULE_FUNCS[target], f"{target}()"
        )

    def _check_name(
        self,
        module: LintModule,
        node: ast.Call,
        name: str,
        expected_kind: str,
        label: str,
    ) -> Iterator[Tuple[Optional[Finding], Optional[str]]]:
        spec = SPECS_BY_NAME.get(name)
        if spec is None:
            yield (
                self._finding(
                    module,
                    node,
                    f"metric name {name!r} is not in the metric registry",
                    "add a MetricSpec to repro/obs/metric_registry.py",
                ),
                None,
            )
            return
        if spec.kind != expected_kind:
            yield (
                self._finding(
                    module,
                    node,
                    f"metric {name!r} is declared {spec.kind} but {label} "
                    f"records a {expected_kind}",
                    "match the call form to the registered kind",
                ),
                name,
            )
            return
        if spec.owner != module.module:
            yield (
                self._finding(
                    module,
                    node,
                    f"metric {name!r} is owned by {spec.owner}; recording "
                    f"it from {module.module} collides",
                    "record a module-specific name and register it",
                ),
                name,
            )
            return
        yield None, name

    # ------------------------------------------------------------- helpers

    @staticmethod
    def _literal(arg: Optional[ast.expr]) -> Optional[str]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        return None

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
