"""rng-stream-registry: the stream namespace is declared, owned, unique.

Stream names are seeds: ``RandomStreams`` derives a generator from
``crc32(name)``, so two modules deriving the same name share a stream
and their draws interleave — a collision no per-file rule can see.
This whole-program rule checks every ``streams.get(...)`` /
``streams.child(...)`` call site (receivers typed via
:mod:`repro.devtools.flow`) against
:mod:`repro.devtools.stream_registry`, plus the seeded
``default_rng(...)`` fallback sites, in **both directions**:

* a derivation whose name is not a registered literal / f-string prefix
  / deriver function fails lint;
* a derivation outside the registered owner module fails lint (global
  collision-freedom follows: names have unique owners);
* a ``default_rng`` call outside :data:`FALLBACK_GENERATORS` fails lint;
* and — the reverse direction — a registry entry, deriver, or fallback
  qualname with no surviving call site (or that no longer resolves)
  fails lint, so the registry cannot drift from the code.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.findings import Finding
from repro.devtools.flow import FlowAnalysis, StreamDerivation, universe
from repro.devtools.project import LintModule, Project, walk
from repro.devtools.registry import Rule, register
from repro.devtools.stream_registry import (
    DERIVERS,
    FALLBACK_GENERATORS,
    STREAM_REGISTRY,
    StreamEntry,
    find_deriver,
    find_entry,
    find_prefix_entry,
)

#: Where findings against the registry itself are anchored.
REGISTRY_PATH = "src/repro/devtools/stream_registry.py"

#: The module that owns derivation internals (the factory itself).
EXEMPT_MODULE = "repro.sim.rng"

#: Canonical names of the sanctioned generator constructor.
_DEFAULT_RNG = ("numpy.random.default_rng", "np.random.default_rng")


def _in_scope(module_name: str) -> bool:
    return module_name.startswith("repro.") and module_name != EXEMPT_MODULE


def _fstring_leading(node: ast.JoinedStr) -> str:
    """The literal prefix of an f-string, up to the first placeholder."""
    parts: List[str] = []
    for value in node.values:
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            parts.append(value.value)
        else:
            break
    return "".join(parts)


@register
class RngStreamRegistry(Rule):
    """Every stream derivation matches one registered, owned entry."""

    id = "rng-stream-registry"
    description = (
        "RandomStreams.get/child names and default_rng fallback sites "
        "must match repro.devtools.stream_registry, which is checked "
        "against call sites in both directions"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        flow = universe(project)
        yield from self._check_registry_consistency(flow)
        linted = {m.module for m in project.modules}
        used_entries: Set[Tuple[str, ...]] = set()
        used_derivers: Set[str] = set()
        fallback_hits: Set[str] = set()
        for module_name in sorted(flow.modules):
            if not _in_scope(module_name):
                continue
            module = flow.modules[module_name]
            report = module_name in linted
            for derivation in flow.stream_derivations(module):
                finding, entry, deriver = self._classify(
                    flow, module, derivation
                )
                if entry is not None:
                    used_entries.add(self._entry_key(entry))
                if deriver is not None:
                    used_derivers.add(deriver)
                if finding is not None and report:
                    yield finding
            for finding, hit in self._default_rng_sites(flow, module):
                if hit is not None:
                    fallback_hits.add(hit)
                if finding is not None and report:
                    yield finding
        # Reverse direction: the registry must not outlive the code.
        for entry in STREAM_REGISTRY:
            if self._entry_key(entry) not in used_entries:
                yield self._registry_finding(
                    f"entry {entry.label} (owner {entry.owner}) matches no "
                    "derivation call site"
                )
        for deriver in DERIVERS:
            if flow.lookup(deriver.function) not in flow.functions:
                yield self._registry_finding(
                    f"deriver {deriver.function} does not resolve under src/"
                )
            elif deriver.function not in used_derivers:
                yield self._registry_finding(
                    f"deriver {deriver.function} is never passed to a "
                    f"{deriver.kind}() derivation"
                )
        for qualname in FALLBACK_GENERATORS:
            if flow.lookup(qualname) is None:
                yield self._registry_finding(
                    f"fallback generator {qualname} does not resolve under src/"
                )
            elif qualname not in fallback_hits:
                yield self._registry_finding(
                    f"fallback generator {qualname} no longer calls "
                    "default_rng()"
                )

    # ------------------------------------------------------- registry shape

    def _check_registry_consistency(
        self, flow: FlowAnalysis
    ) -> Iterator[Finding]:
        families: Dict[str, List[Tuple[Optional[str], Optional[str], str]]] = {}
        for entry in STREAM_REGISTRY:
            if entry.kind not in ("get", "child") or (
                (entry.name is None) == (entry.prefix is None)
            ):
                yield self._registry_finding(
                    f"malformed entry {entry!r}: kind must be get/child and "
                    "exactly one of name/prefix must be set"
                )
                continue
            families.setdefault(entry.kind, []).append(
                (entry.name, entry.prefix, entry.label)
            )
        for deriver in DERIVERS:
            families.setdefault(deriver.kind, []).append(
                (None, deriver.prefix, f"deriver {deriver.function}")
            )
        for kind, members in sorted(families.items()):
            for i, (name_a, prefix_a, label_a) in enumerate(members):
                for name_b, prefix_b, label_b in members[i + 1 :]:
                    if self._collide(name_a, prefix_a, name_b, prefix_b):
                        yield self._registry_finding(
                            f"{kind} stream namespace collision: {label_a} "
                            f"overlaps {label_b}"
                        )

    @staticmethod
    def _collide(
        name_a: Optional[str],
        prefix_a: Optional[str],
        name_b: Optional[str],
        prefix_b: Optional[str],
    ) -> bool:
        if name_a is not None and name_b is not None:
            return name_a == name_b
        if prefix_a is not None and prefix_b is not None:
            return prefix_a.startswith(prefix_b) or prefix_b.startswith(
                prefix_a
            )
        name = name_a if name_a is not None else name_b
        prefix = prefix_a if prefix_a is not None else prefix_b
        assert name is not None and prefix is not None
        return name.startswith(prefix)

    @staticmethod
    def _entry_key(entry: StreamEntry) -> Tuple[str, ...]:
        return (entry.kind, entry.name or "", entry.prefix or "")

    # ----------------------------------------------------------- call sites

    def _classify(
        self,
        flow: FlowAnalysis,
        module: LintModule,
        derivation: StreamDerivation,
    ) -> Tuple[Optional[Finding], Optional[StreamEntry], Optional[str]]:
        """(finding-or-None, matched entry, matched deriver qualname)."""
        kind = derivation.kind
        arg = derivation.name_arg
        env = (
            flow.function_env(derivation.function)
            if derivation.function is not None
            else {}
        )
        if isinstance(arg, ast.Name):
            literal = self._local_constant(flow, derivation, arg.id)
            if literal is not None:
                arg = ast.copy_location(ast.Constant(value=literal), arg)
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            entry = find_entry(kind, arg.value)
            if entry is None:
                return (
                    self._finding(
                        module,
                        derivation.call,
                        f"stream name {arg.value!r} ({kind}) is not in the "
                        "stream registry",
                        "register a StreamEntry in "
                        "repro/devtools/stream_registry.py",
                    ),
                    None,
                    None,
                )
            if entry.owner != module.module:
                return (
                    self._finding(
                        module,
                        derivation.call,
                        f"stream {entry.label} is owned by {entry.owner}; "
                        f"deriving it from {module.module} collides",
                        "derive a module-specific name and register it",
                    ),
                    entry,
                    None,
                )
            return None, entry, None
        if isinstance(arg, ast.JoinedStr):
            leading = _fstring_leading(arg)
            entry = find_prefix_entry(kind, leading) if leading else None
            if entry is None:
                return (
                    self._finding(
                        module,
                        derivation.call,
                        f"f-string stream name with prefix {leading!r} "
                        f"({kind}) matches no registered prefix family",
                        "register a prefix StreamEntry in "
                        "repro/devtools/stream_registry.py",
                    ),
                    None,
                    None,
                )
            if entry.owner != module.module:
                return (
                    self._finding(
                        module,
                        derivation.call,
                        f"stream family {entry.label} is owned by "
                        f"{entry.owner}; deriving it from {module.module} "
                        "collides",
                        "derive a module-specific prefix and register it",
                    ),
                    entry,
                    None,
                )
            return None, entry, None
        if isinstance(arg, ast.Call):
            target = flow.resolve_call_target(module.module, arg.func, env)
            if target is not None and find_deriver(target, kind) is not None:
                return None, None, target
            shown = target or ast.unparse(arg.func)
            return (
                self._finding(
                    module,
                    derivation.call,
                    f"stream name computed by {shown} ({kind}) which is not "
                    "a registered deriver",
                    "register a DeriverEntry in "
                    "repro/devtools/stream_registry.py",
                ),
                None,
                None,
            )
        return (
            self._finding(
                module,
                derivation.call,
                f"stream name for {kind}() is not a string literal, "
                "registered prefix f-string, or registered deriver",
                "use a literal name and register it in "
                "repro/devtools/stream_registry.py",
            ),
            None,
            None,
        )

    def _local_constant(
        self, flow: FlowAnalysis, derivation: StreamDerivation, name: str
    ) -> Optional[str]:
        """The single `name = "literal"` binding in scope, if unambiguous."""
        if derivation.function is None:
            return None
        info = flow.functions.get(derivation.function)
        if info is None:
            return None
        values: List[str] = []
        for node in walk(info.def_node):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id == name:
                if isinstance(node.value, ast.Constant) and isinstance(
                    node.value.value, str
                ):
                    values.append(node.value.value)
                else:
                    return None  # rebound to something non-literal
        return values[0] if len(values) == 1 else None

    # -------------------------------------------------------- default_rng

    def _default_rng_sites(
        self, flow: FlowAnalysis, module: LintModule
    ) -> Iterator[Tuple[Optional[Finding], Optional[str]]]:
        indexed = {
            id(info.node)
            for info in flow.functions.values()
            if info.module == module.module
        }
        for info in flow.module_functions(module.module):
            for node in walk(info.def_node):
                site = self._default_rng_call(flow, module, node)
                if site is None:
                    continue
                if info.qualname in FALLBACK_GENERATORS:
                    yield None, info.qualname
                else:
                    yield self._fallback_finding(module, site, info.qualname), None
        for node in flow.module_level_nodes(module, indexed):
            site = self._default_rng_call(flow, module, node)
            if site is None:
                continue
            if module.module in FALLBACK_GENERATORS:
                yield None, module.module
            else:
                yield self._fallback_finding(module, site, module.module), None

    def _default_rng_call(
        self, flow: FlowAnalysis, module: LintModule, node: ast.AST
    ) -> Optional[ast.Call]:
        if not isinstance(node, ast.Call):
            return None
        dotted = flow.canonical(module.module, node.func)
        if dotted in _DEFAULT_RNG:
            return node
        return None

    def _fallback_finding(
        self, module: LintModule, node: ast.Call, where: str
    ) -> Finding:
        return self._finding(
            module,
            node,
            f"default_rng() in {where}, which is not a registered fallback "
            "generator",
            "thread a stream from RandomStreams, or add the qualname to "
            "FALLBACK_GENERATORS in repro/devtools/stream_registry.py",
        )

    # ------------------------------------------------------------- helpers

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

    def _registry_finding(self, message: str) -> Finding:
        return Finding(
            path=REGISTRY_PATH,
            line=1,
            column=0,
            rule=self.id,
            message=message,
            hint="update repro/devtools/stream_registry.py",
        )
