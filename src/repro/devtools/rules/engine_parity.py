"""engine-parity: every product function carries an equivalence proof.

The numpy kernels behind the Fig. 2-5 pipelines are only trustworthy
because byte-identity with their test oracles is asserted by tests.
This rule makes that pairing machine-checked in both directions:

* **module check** — every *public* function or method with an
  ``engine`` parameter must appear (by fully-qualified dotted name) in
  :data:`repro.devtools.parity_registry.PARITY_REGISTRY`;
* **project check** — every registry entry must still resolve: the
  product function itself, its ``fast`` path, its ``reference`` oracle
  (a ``tests/`` node or a ``src`` name), and each pytest node id in
  ``tests`` (matched statically against the file's AST, the same shape
  pytest collects).

So adding a fast path without tests fails lint, and renaming a test,
oracle or implementation without updating the registry fails lint too.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.devtools.findings import Finding
from repro.devtools.parity_registry import PARITY_REGISTRY
from repro.devtools.project import (
    LintModule,
    Project,
    reference_exists,
    resolve_dotted,
    test_node_exists,
)
from repro.devtools.registry import Rule, register

#: Where findings against the registry itself are anchored.
REGISTRY_PATH = "src/repro/devtools/parity_registry.py"


def _public_path(parts: List[str]) -> bool:
    """Whether every component of a qualified name is public."""
    return all(not part.startswith("_") for part in parts)


@register
class EngineParity(Rule):
    """Keep ``engine=`` dispatchers and their equivalence tests paired."""

    id = "engine-parity"
    description = (
        "public engine= functions must be registered in "
        "repro.devtools.parity_registry with live equivalence tests"
    )

    # ------------------------------------------------------- module check

    def check_module(self, module: LintModule) -> Iterator[Finding]:
        yield from self._walk(module, module.tree.body, [])

    def _walk(
        self, module: LintModule, body: List[ast.stmt], stack: List[str]
    ) -> Iterator[Finding]:
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from self._walk(module, node.body, stack + [node.name])
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node, stack)

    def _check_function(
        self,
        module: LintModule,
        node: ast.AST,
        stack: List[str],
    ) -> Iterator[Finding]:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        args = node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if "engine" not in names:
            return
        if node.name.startswith("test_"):
            # Tests parametrized over engines consume the dispatchers;
            # they are not dispatchers themselves.
            return
        qualified = stack + [node.name]
        if not _public_path(qualified):
            return
        dotted = ".".join([module.module] + qualified)
        if dotted not in PARITY_REGISTRY:
            yield Finding(
                path=module.display_path,
                line=node.lineno,
                column=node.col_offset,
                rule=self.id,
                message=(
                    f"public engine= dispatcher {dotted} is not in the "
                    "parity registry"
                ),
                hint=(
                    "add a ParityEntry (reference impl + equivalence tests) "
                    "to repro/devtools/parity_registry.py"
                ),
            )

    # ------------------------------------------------------ project check

    def check_project(self, project: Project) -> Iterator[Finding]:
        for dotted, entry in sorted(PARITY_REGISTRY.items()):
            implementations = [dotted]
            if entry.fast is not None:
                implementations.append(entry.fast)
            for name in implementations:
                if not resolve_dotted(name, project.src_root):
                    yield self._registry_finding(
                        f"registry entry {dotted}: implementation {name} "
                        "does not resolve under src/"
                    )
            if not reference_exists(entry.reference, project.repo_root):
                yield self._registry_finding(
                    f"registry entry {dotted}: oracle {entry.reference} "
                    "does not resolve"
                )
            if not entry.tests:
                yield self._registry_finding(
                    f"registry entry {dotted} lists no equivalence tests"
                )
            for test_id in entry.tests:
                if not test_node_exists(test_id, project.repo_root):
                    yield self._registry_finding(
                        f"registry entry {dotted}: equivalence test "
                        f"{test_id} is not collected"
                    )

    def _registry_finding(self, message: str) -> Finding:
        return Finding(
            path=REGISTRY_PATH,
            line=1,
            column=0,
            rule=self.id,
            message=message,
            hint="update repro/devtools/parity_registry.py",
        )
