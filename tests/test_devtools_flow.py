"""Whole-program flow rules: fixtures, both-direction registry, runtime.

Three layers of proof for the flow rules:

* **must-fail fixtures** — each rule's fixture under
  ``tests/fixtures/lint/`` produces its exact (line, rule) golden set;
* **both directions** — an unregistered derivation fails lint (the
  fixtures), and a registry entry/deriver/fallback with no surviving
  call site fails lint too (patched registries against the real src
  tree), with the unpatched registry exactly matching src (the
  session's one lint of ``src``, the ``src_lint`` fixture);
* **runtime cross-check** — the stream names an actual tiny workload
  derives (observed via :func:`repro.sim.rng.observe_streams`) all
  match the static registry, so the table describes reality.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple

from repro.devtools.flow import universe
from repro.devtools.lint import lint_paths
from repro.devtools.project import Project, default_repo_root, parse_module
from repro.devtools.registry import all_rules
from repro.devtools.rules import metric_names as metric_names_module
from repro.devtools.rules import rng_streams as rng_streams_module
from repro.devtools.rules.boundary_purity import BoundaryPurity
from repro.devtools.rules.import_contract import ImportContract
from repro.devtools.rules.metric_names import MetricNameRegistry
from repro.devtools.rules.rng_streams import RngStreamRegistry
from repro.devtools.stream_registry import (
    DERIVERS,
    DeriverEntry,
    StreamEntry,
    find_entry,
)

REPO = default_repo_root()
FIXTURES = REPO / "tests" / "fixtures" / "lint"


def _fresh_project() -> Project:
    return Project(
        repo_root=REPO, src_root=REPO / "src", tests_root=REPO / "tests"
    )


def _rule_findings(path: Path, rule: str) -> List[Tuple[int, str]]:
    """One rule's (line, message) findings on one fixture file."""
    rules = [r for r in all_rules() if r.id == rule]
    return [(f.line, f.message) for f in lint_paths([path], rules=rules)]


def _src_findings(src_lint, rule: str) -> List[str]:
    """One rule's findings in the session's lint of ``src``, rendered."""
    return [f.render() for f in src_lint.findings if f.rule == rule]


# ----------------------------------------------------------- flow universe


def test_universe_covers_src_and_is_cached_on_the_project(src_lint):
    project = src_lint.project
    flow = project.flow  # built by the lint's flow rules
    assert flow is not None
    assert universe(project) is flow  # one build per lint invocation
    # spot-check the symbol index across layers
    assert "repro.sim.rng" in flow.modules
    assert "repro.runtime.workers.run_sweep_call" in flow.functions
    assert "repro.sim.rng.RandomStreams" in flow.classes


def test_worker_closure_reaches_the_replay_engine(src_lint):
    flow = universe(src_lint.project)
    # balance_task reaches the engine through Workload.replay_test, a
    # method call on the value build_workload returns.
    chains = flow.reachable(["repro.runtime.sweep.balance_task"])
    target = "repro.wlan.replay.ReplayEngine.run"
    assert target in chains
    assert chains[target][0] == "repro.runtime.sweep.balance_task"


# ------------------------------------------------------------ rule fixtures


def test_rng_stream_registry_fixture():
    path = FIXTURES / "repro" / "trace" / "streamreg.py"
    findings = _rule_findings(path, "rng-stream-registry")
    assert [line for line, _ in findings] == [17, 22, 27, 32, 41, 48]
    by_line = dict(findings)
    assert "not in the stream registry" in by_line[17]
    assert "owned by repro.faults.schedule" in by_line[22]
    assert "matches no registered prefix family" in by_line[27]
    assert "owned by repro.trace.generator" in by_line[32]
    assert "not a registered deriver" in by_line[41]
    assert "owned by repro.trace.social" in by_line[48]  # local constant


def test_metric_name_registry_fixture():
    path = FIXTURES / "repro" / "obs" / "metricnames.py"
    findings = _rule_findings(path, "metric-name-registry")
    assert [line for line, _ in findings] == [16, 21, 26, 31, 36, 41]
    by_line = dict(findings)
    assert "not in the metric registry" in by_line[16]
    assert "owned by repro.faults.schedule" in by_line[21]
    assert "declared counter" in by_line[26]
    assert "not a string literal" in by_line[31]
    assert "not in the metric registry" in by_line[36]
    assert "declared gauge" in by_line[41]


def test_import_contract_fixture():
    path = FIXTURES / "repro" / "trace" / "contract.py"
    findings = _rule_findings(path, "import-contract")
    assert [line for line, _ in findings] == [11, 18, 25]
    by_line = dict(findings)
    assert "may not import repro.wlan.replay" in by_line[11]
    assert "private to repro.obs" in by_line[18]
    assert "may not import repro.runtime.workers" in by_line[25]


def test_boundary_purity_fixture():
    path = FIXTURES / "repro" / "runtime" / "boundary.py"
    findings = _rule_findings(path, "boundary-purity")
    assert [line for line, _ in findings] == [19, 25, 26]
    by_line = dict(findings)
    assert "global _TOTAL" in by_line[19]
    # the call chain from the boundary entry is part of the message
    assert "leaky_task" in by_line[19] and "_bump" in by_line[19]
    assert "'_SEEN' mutated" in by_line[25]
    assert "os.environ read" in by_line[26]


def test_stale_noqa_fixture():
    path = FIXTURES / "stale_noqa.py"
    findings = [
        (f.line, f.rule) for f in lint_paths([path], with_project_checks=False)
    ]
    # line 8's suppression is live (no finding); 12/16/21 are stale
    assert findings == [
        (12, "stale-noqa"),
        (16, "stale-noqa"),
        (21, "stale-noqa"),
    ]


# --------------------------------------------------- registry, reverse proof


def test_stream_registry_exactly_matches_src_in_both_directions(src_lint):
    """The shipped registry has no unused entry and src has no stray site."""
    findings = _src_findings(src_lint, "rng-stream-registry")
    assert findings == [], "\n".join(findings)


def test_unused_registry_entry_is_a_finding(monkeypatch, src_lint):
    extra = StreamEntry(
        kind="get",
        name="never-derived",
        owner="repro.trace.social",
        description="test-only entry with no call site",
    )
    monkeypatch.setattr(
        rng_streams_module,
        "STREAM_REGISTRY",
        rng_streams_module.STREAM_REGISTRY + (extra,),
    )
    findings = list(RngStreamRegistry().check_project(src_lint.project))
    assert len(findings) == 1
    assert "matches no derivation call site" in findings[0].message
    assert "never-derived" in findings[0].message


def test_unused_and_unresolved_derivers_are_findings(monkeypatch, src_lint):
    monkeypatch.setattr(
        rng_streams_module,
        "DERIVERS",
        DERIVERS
        + (
            DeriverEntry(
                function="repro.trace.social.build_world",
                kind="child",
                prefix="unused:",
                description="resolves but is never passed to child()",
            ),
            DeriverEntry(
                function="repro.nowhere.missing_fn",
                kind="child",
                prefix="ghost:",
                description="does not resolve at all",
            ),
        ),
    )
    messages = [
        f.message
        for f in RngStreamRegistry().check_project(src_lint.project)
    ]
    assert any(
        "repro.trace.social.build_world is never passed" in m for m in messages
    )
    assert any(
        "repro.nowhere.missing_fn does not resolve" in m for m in messages
    )


def test_stale_fallback_generators_are_findings(monkeypatch, src_lint):
    monkeypatch.setattr(
        rng_streams_module,
        "FALLBACK_GENERATORS",
        rng_streams_module.FALLBACK_GENERATORS
        + (
            "repro.trace.social.build_world",  # resolves, no default_rng
            "repro.nowhere.missing_fn",  # does not resolve
        ),
    )
    messages = [
        f.message
        for f in RngStreamRegistry().check_project(src_lint.project)
    ]
    assert any("no longer calls" in m and "build_world" in m for m in messages)
    assert any(
        "missing_fn does not resolve" in m for m in messages
    )


def test_metric_registry_exactly_matches_src_in_both_directions(src_lint):
    """The shipped specs have no unused entry and src has no stray site."""
    findings = _src_findings(src_lint, "metric-name-registry")
    assert findings == [], "\n".join(findings)


def test_unused_metric_spec_is_a_finding(monkeypatch, src_lint):
    from repro.obs.metric_registry import MetricSpec

    extra = MetricSpec(
        name="never.recorded",
        kind="counter",
        scope="run",
        owner="repro.wlan.replay",
        description="test-only spec with no call site",
    )
    monkeypatch.setattr(
        metric_names_module,
        "SPECS_BY_NAME",
        {**metric_names_module.SPECS_BY_NAME, extra.name: extra},
    )
    findings = list(MetricNameRegistry().check_project(src_lint.project))
    assert len(findings) == 1
    assert "matches no instrumentation call site" in findings[0].message
    assert "never.recorded" in findings[0].message
    assert findings[0].path == metric_names_module.REGISTRY_PATH


# -------------------------------------------------------------- layering


def test_src_layering_is_clean_and_acyclic(src_lint):
    findings = _src_findings(src_lint, "import-contract")
    assert findings == [], "\n".join(findings)


def test_import_cycle_is_detected(tmp_path):
    (tmp_path / "cyc_a.py").write_text(
        "import repro.cyc_b\n\nVALUE = repro.cyc_b\n", encoding="utf-8"
    )
    (tmp_path / "cyc_b.py").write_text(
        "import repro.cyc_a\n\nVALUE = repro.cyc_a\n", encoding="utf-8"
    )
    project = _fresh_project()
    project.modules.append(
        parse_module(tmp_path / "cyc_a.py", module="repro.cyc_a")
    )
    project.modules.append(
        parse_module(tmp_path / "cyc_b.py", module="repro.cyc_b")
    )
    findings = list(ImportContract().check_project(project))
    cycles = [f for f in findings if "import cycle" in f.message]
    assert len(cycles) == 1
    assert "repro.cyc_a -> repro.cyc_b -> repro.cyc_a" in cycles[0].message


def test_lazy_imports_are_exempt_from_the_cycle_check_only(tmp_path):
    # same shape, but one edge is a function-body import: no cycle ...
    (tmp_path / "cyc_a.py").write_text(
        "import repro.cyc_b\n\nVALUE = repro.cyc_b\n", encoding="utf-8"
    )
    (tmp_path / "cyc_b.py").write_text(
        "def late():\n    import repro.cyc_a\n    return repro.cyc_a\n",
        encoding="utf-8",
    )
    project = _fresh_project()
    project.modules.append(
        parse_module(tmp_path / "cyc_a.py", module="repro.cyc_a")
    )
    project.modules.append(
        parse_module(tmp_path / "cyc_b.py", module="repro.cyc_b")
    )
    findings = list(ImportContract().check_project(project))
    assert [f for f in findings if "import cycle" in f.message] == []


# ------------------------------------------------------- boundary entries


def test_boundary_entries_include_workers_and_task_callables(src_lint):
    flow = universe(src_lint.project)
    entries = BoundaryPurity()._entries(flow)
    assert "repro.runtime.workers.run_sweep_call" in entries
    assert "repro.runtime.workers.init_worker" in entries
    # make_task callables resolved through the sweep call sites
    assert "repro.runtime.sweep.balance_task" in entries
    assert "repro.runtime.sweep.experiment_task" in entries


def test_src_boundary_is_pure(src_lint):
    # The lint linted every src module, so the rule reports in all of them.
    assert src_lint.project.modules
    findings = _src_findings(src_lint, "boundary-purity")
    assert findings == [], "\n".join(findings)


# ------------------------------------------------------ runtime cross-check


def test_runtime_derived_streams_all_match_the_registry():
    from repro.experiments import workload as workload_module
    from repro.experiments.config import TINY
    from repro.experiments.workload import build_workload
    from repro.sim.rng import observe_streams
    from repro.wlan.strategies import StrongestSignal

    derived: List[Tuple[str, str]] = []
    # build from a cold cache so every derivation fires, then restore the
    # memo contents (other tests hold identity-based references into it)
    saved_workloads = dict(workload_module._WORKLOADS)
    saved_models = dict(workload_module._MODELS)
    workload_module._WORKLOADS.clear()
    workload_module._MODELS.clear()
    try:
        with observe_streams(lambda kind, name: derived.append((kind, name))):
            # collection is an LLF replay, which reads no RSSI and so
            # draws no radio stream; a strongest-signal replay draws one
            # per arrival through its controller's child factory
            build_workload(TINY).replay_test(StrongestSignal())
    finally:
        workload_module._WORKLOADS.clear()
        workload_module._MODELS.clear()
        workload_module._WORKLOADS.update(saved_workloads)
        workload_module._MODELS.update(saved_models)
    assert derived, "the tiny workload derives no streams?"
    kinds = {kind for kind, _ in derived}
    assert kinds == {"get", "child"}
    assert any(
        kind == "get" and name.startswith("radio-") for kind, name in derived
    ), "the strongest-signal replay derived no radio stream"
    for kind, name in derived:
        registered = find_entry(kind, name) is not None or any(
            d.kind == kind and name.startswith(d.prefix) for d in DERIVERS
        )
        assert registered, f"runtime stream {kind}:{name!r} is unregistered"
