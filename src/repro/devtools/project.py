"""Parsed-module and project context shared by the lint engine and rules.

Rules see two scopes: a :class:`LintModule` (one parsed file, with its
inferred dotted module name — scoped rules key off prefixes like
``repro.analysis``) and a :class:`Project` (the repo as a whole, for
cross-file invariants like parity-registry staleness).  Both are plain
data; the resolution helpers at the bottom answer "does this dotted name
/ pytest node still exist?" statically, by parsing the target file —
nothing here imports the code under analysis.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Set, Tuple

from repro.devtools.suppress import SuppressionMap, suppression_map

if TYPE_CHECKING:  # pragma: no cover - cycle guard (flow imports us)
    from repro.devtools.flow import FlowAnalysis


@dataclass
class LintModule:
    """One source file, parsed and named."""

    path: Path
    #: Dotted module name inferred from the ``__init__.py`` chain (e.g.
    #: ``repro.analysis.churn``); scoped rules match on its prefix.
    module: str
    source: str
    tree: ast.Module
    suppressions: SuppressionMap = field(default_factory=dict)

    @property
    def display_path(self) -> str:
        """The path as reported in findings (relative when possible)."""
        try:
            return self.path.resolve().relative_to(Path.cwd()).as_posix()
        except ValueError:
            return self.path.as_posix()


@dataclass
class Project:
    """Everything a cross-file check needs."""

    repo_root: Path
    src_root: Path
    tests_root: Path
    modules: List[LintModule] = field(default_factory=list)
    #: Lazily-built whole-program analysis (see :mod:`repro.devtools.flow`);
    #: populated by :func:`repro.devtools.flow.universe` so the flow rules
    #: share one symbol/call index per lint invocation.
    flow: Optional["FlowAnalysis"] = field(default=None, repr=False)


def default_repo_root() -> Path:
    """The repository root, located from this file (cwd-independent)."""
    # .../repo/src/repro/devtools/project.py -> parents[3] == repo
    return Path(__file__).resolve().parents[3]


def module_name_for(path: Path) -> str:
    """Infer the dotted module name by walking the ``__init__.py`` chain.

    ``src/repro/analysis/churn.py`` -> ``repro.analysis.churn``; a file
    outside any package keeps its bare stem, which scoped rules treat as
    out of scope.
    """
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def parse_module(path: Path, module: Optional[str] = None) -> LintModule:
    """Read and parse ``path`` into a :class:`LintModule`.

    ``module`` overrides the inferred dotted name — the fixture tests use
    this to exercise scoped rules on files outside the real package.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return LintModule(
        path=path,
        module=module if module is not None else module_name_for(path),
        source=source,
        tree=tree,
        suppressions=suppression_map(source),
    )


# ---------------------------------------------------------------- resolution


def _split_module(dotted: str, src_root: Path) -> Optional[Tuple[Path, List[str]]]:
    """Split ``pkg.mod.Class.attr`` into (module file, remaining parts)."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        stem = src_root.joinpath(*parts[:cut])
        for candidate in (stem.with_suffix(".py"), stem / "__init__.py"):
            if candidate.exists():
                return candidate, parts[cut:]
    return None


def resolve_dotted(dotted: str, src_root: Path) -> bool:
    """Whether ``dotted`` names an importable module, class or function.

    Resolution is purely syntactic: the longest module-file prefix is
    located under ``src_root`` and the remaining parts are matched
    against (possibly nested) ``class``/``def`` statements in its AST.
    """
    split = _split_module(dotted, src_root)
    if split is None:
        return False
    path, remainder = split
    if not remainder:
        return True
    body = ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
    for i, name in enumerate(remainder):
        match = next(
            (
                node
                for node in body
                if isinstance(
                    node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
                )
                and node.name == name
            ),
            None,
        )
        if match is None:
            return False
        if i == len(remainder) - 1:
            return True
        if not isinstance(match, ast.ClassDef):
            return False
        body = match.body
    return True


def split_test_id(test_id: str) -> Tuple[str, List[str]]:
    """Split ``tests/x.py::TestC::test_f[case]`` into (file, node parts).

    Parametrization suffixes (``[...]``) are dropped: the registry names
    test *functions*; pytest expands the cases.
    """
    file_part, _, node_part = test_id.partition("::")
    parts = [p.split("[", 1)[0] for p in node_part.split("::") if p]
    return file_part, parts


def test_node_exists(test_id: str, repo_root: Path) -> bool:
    """Whether the pytest node id resolves to a collected-shape function.

    Statically mirrors pytest collection: the file must exist and each
    ``::`` part must match a nested ``class``/``def`` in its AST.  The
    tier-1 suite cross-checks this against real ``pytest`` collection.
    """
    file_part, parts = split_test_id(test_id)
    path = repo_root / file_part
    if not path.exists() or not parts:
        return False
    body = ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
    for i, name in enumerate(parts):
        match = next(
            (
                node
                for node in body
                if isinstance(
                    node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
                )
                and node.name == name
            ),
            None,
        )
        if match is None:
            return False
        if i < len(parts) - 1:
            if not isinstance(match, ast.ClassDef):
                return False
            body = match.body
    return True


def reference_exists(name: str, repo_root: Path) -> bool:
    """Whether a parity oracle resolves.

    A ``tests/<file>.py::<function>`` oracle is matched like a test node
    (:func:`test_node_exists`); anything else is a dotted ``src`` name
    (:func:`resolve_dotted`).
    """
    if "::" in name:
        return test_node_exists(name, repo_root)
    return resolve_dotted(name, repo_root / "src")


def collect_test_ids(test_file: Path) -> Set[str]:
    """Top-level ``test_*`` function names defined in ``test_file``."""
    tree = ast.parse(test_file.read_text(encoding="utf-8"), filename=str(test_file))
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("test_")
    }
