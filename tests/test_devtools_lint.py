"""The lint framework: golden fixture findings, suppression, CLI, parity.

Each rule has a fixture file under ``tests/fixtures/lint/`` with known
violations; the tests pin the exact (line, rule) set so a rule that
drifts (misses a case or over-fires) fails loudly.  The suite also
asserts the invariant the framework exists for: ``src/`` is clean (the
session's one lint of it, the ``src_lint`` fixture), and deliberately
seeded violations are caught.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.devtools.lint import iter_python_files, lint_module, lint_paths, main
from repro.devtools.parity_registry import PARITY_REGISTRY, ParityEntry
from repro.devtools.project import (
    Project,
    default_repo_root,
    module_name_for,
    parse_module,
    reference_exists,
    resolve_dotted,
    split_test_id,
)
from repro.devtools.project import test_node_exists as node_exists
from repro.devtools.registry import all_rules, rule_ids
from repro.devtools.rules import engine_parity

REPO = default_repo_root()
FIXTURES = REPO / "tests" / "fixtures" / "lint"

EXPECTED_RULES = {
    "bare-except",
    "boundary-purity",
    "cache-invalidation",
    "engine-parity",
    "fault-determinism",
    "import-contract",
    "metric-name-registry",
    "mutable-default",
    "no-unseeded-rng",
    "no-wallclock",
    "ordered-iteration",
    "rng-stream-registry",
    "stale-noqa",
}


def findings_for(name: str):
    """Module-level findings for one fixture file (no project checks)."""
    module = parse_module(FIXTURES / name)
    return lint_module(module)


def lines_by_rule(findings, rule):
    return [f.line for f in findings if f.rule == rule]


# ------------------------------------------------------------------ registry


def test_rule_suite_is_complete():
    assert set(rule_ids()) == EXPECTED_RULES
    rules = all_rules()
    assert [r.id for r in rules] == sorted(EXPECTED_RULES)
    assert all(r.description for r in rules)


# ------------------------------------------------------------ fixture goldens


def test_wallclock_fixture():
    findings = findings_for("wallclock.py")
    assert lines_by_rule(findings, "no-wallclock") == [9, 10, 11, 12]
    assert {f.rule for f in findings} == {"no-wallclock"}


def test_wallclock_obs_allowlist_is_exact():
    # An unregistered wall-clock read inside repro.obs still fails ...
    path = FIXTURES / "repro" / "obs" / "unregistered.py"
    assert module_name_for(path) == "repro.obs.unregistered"
    findings = lint_module(parse_module(path))
    assert lines_by_rule(findings, "no-wallclock") == [8]
    # ... the registered funnel module is exempt ...
    exempt = lint_module(parse_module(path, module="repro.obs._clock"))
    assert lines_by_rule(exempt, "no-wallclock") == []
    # ... and the allowlist is exact, not a package prefix.
    from repro.devtools.rules.wallclock import module_is_exempt

    assert module_is_exempt("repro.obs._clock")
    assert not module_is_exempt("repro.obs")
    assert not module_is_exempt("repro.obs.tracer")
    assert not module_is_exempt("repro.obs._clock.sub")


def test_rng_fixture():
    findings = findings_for("rng.py")
    assert lines_by_rule(findings, "no-unseeded-rng") == [3, 5, 9, 10, 11]
    assert {f.rule for f in findings} == {"no-unseeded-rng"}
    unseeded = [f for f in findings if f.line == 11]
    assert "unseeded" in unseeded[0].message


def test_ordered_iteration_fixture_scoped_by_module_name():
    path = FIXTURES / "repro" / "analysis" / "ordered.py"
    assert module_name_for(path) == "repro.analysis.ordered"
    findings = lint_module(parse_module(path))
    assert lines_by_rule(findings, "ordered-iteration") == [10, 12, 14, 16]
    # the same code outside the scoped packages is not flagged
    relaxed = lint_module(parse_module(path, module="examples.ordered"))
    assert lines_by_rule(relaxed, "ordered-iteration") == []


def test_cache_invalidation_fixture():
    findings = findings_for("cache_invalidation.py")
    assert lines_by_rule(findings, "cache-invalidation") == [4, 53]
    assert "StaleModel" in findings[0].message
    # the fine-grained patch-in-place contract (PR 9) satisfies the rule:
    # per-user generation stamps count as invalidation, a bare wipe does not
    messages = "\n".join(f.message for f in findings)
    assert "PatchedModel" not in messages
    assert "WipedModel" in messages


def test_engine_parity_fixture():
    findings = findings_for("engine_parity.py")
    assert lines_by_rule(findings, "engine-parity") == [4, 9]
    messages = "\n".join(f.message for f in findings)
    assert "engine_parity.resample" in messages
    assert "engine_parity.Pipeline.transform" in messages


def test_fault_determinism_fixture_scoped_by_module_name():
    path = FIXTURES / "repro" / "faults" / "determinism.py"
    assert module_name_for(path) == "repro.faults.determinism"
    findings = lint_module(parse_module(path))
    assert lines_by_rule(findings, "fault-determinism") == [13, 17, 21, 25]
    messages = "\n".join(f.message for f in findings)
    assert "default_rng" in messages
    assert 'child("faults")' in messages
    # the same code outside repro.faults is not flagged by this rule
    relaxed = lint_module(parse_module(path, module="repro.wlan.determinism"))
    assert lines_by_rule(relaxed, "fault-determinism") == []


def test_fault_determinism_extends_to_service_supervisor_and_soak():
    path = FIXTURES / "repro" / "service" / "supervisor.py"
    assert module_name_for(path) == "repro.service.supervisor"
    findings = lint_module(parse_module(path))
    assert lines_by_rule(findings, "fault-determinism") == [13, 17, 21]
    # the soak module is in scope too ...
    as_soak = lint_module(parse_module(path, module="repro.service.soak"))
    assert lines_by_rule(as_soak, "fault-determinism") == [13, 17, 21]
    # ... but the rest of repro.service (live dispatch) is not
    relaxed = lint_module(parse_module(path, module="repro.service.loop"))
    assert lines_by_rule(relaxed, "fault-determinism") == []


def test_mutable_default_fixture():
    findings = findings_for("mutable_default.py")
    assert lines_by_rule(findings, "mutable-default") == [4, 9, 9]


def test_bare_except_fixture():
    findings = findings_for("bare_except.py")
    assert lines_by_rule(findings, "bare-except") == [7]


def test_clean_fixture_has_no_findings():
    assert findings_for("clean.py") == []


def test_suppressions_silence_matching_rules_only():
    findings = findings_for("suppressed.py")
    # lines 3 (import time is not a call), 8, 9 suppressed; 15 names the
    # wrong rule so the wallclock finding survives — and the suppression
    # that silenced nothing is itself a stale-noqa finding
    assert [(f.line, f.rule) for f in findings] == [
        (15, "no-wallclock"),
        (15, "stale-noqa"),
    ]


def test_multi_rule_noqa_suppresses_each_named_rule(tmp_path):
    bad = tmp_path / "multi.py"
    bad.write_text(
        "import time\n"
        "def f(xs=[]): return time.time()"
        "  # repro: noqa[mutable-default,no-wallclock]\n"
    )
    # both named rules fire on line 2 and both are suppressed; the
    # comment is therefore live, so no stale-noqa either
    assert lint_module(parse_module(bad)) == []
    # narrowing to one rule leaves the other finding standing
    bad.write_text(
        "import time\n"
        "def f(xs=[]): return time.time()  # repro: noqa[mutable-default]\n"
    )
    findings = lint_module(parse_module(bad))
    assert [(f.line, f.rule) for f in findings] == [(2, "no-wallclock")]


def test_noqa_on_continuation_line_suppresses_that_physical_line(tmp_path):
    bad = tmp_path / "continued.py"
    bad.write_text(
        "import time\n"
        "x = (\n"
        "    time.time()  # repro: noqa[no-wallclock]\n"
        ")\n"
    )
    # the finding anchors to line 3, where the comment also lives
    assert lint_module(parse_module(bad)) == []


def test_noqa_inside_a_string_literal_is_not_a_suppression(tmp_path):
    from repro.devtools.suppress import suppression_comments, suppression_map

    source = 'MARKER = "x  # repro: noqa[no-wallclock]"\n'
    assert suppression_comments(source) == []
    assert suppression_map(source) == {}
    # ... and therefore it cannot be stale either
    bad = tmp_path / "stringed.py"
    bad.write_text(source)
    assert lint_module(parse_module(bad)) == []


def test_suppression_comments_report_rules_and_position():
    from repro.devtools.suppress import suppression_comments

    source = (
        "a = 1  # repro: noqa[rule-one, rule-two]\n"
        "b = 2  # repro: noqa\n"
        "c = 3  # unrelated comment\n"
    )
    comments = suppression_comments(source)
    assert [(c.line, c.rules) for c in comments] == [
        (1, ("rule-one", "rule-two")),
        (2, ()),
    ]
    assert all(c.column == 7 for c in comments)


# ------------------------------------------------------------------ engine


def test_src_tree_is_clean(src_lint):
    findings = src_lint.findings
    assert findings == [], "\n".join(f.render() for f in findings)


def test_seeded_violation_is_caught(tmp_path):
    bad = tmp_path / "sneaky.py"
    bad.write_text(
        "import time\n"
        "def run(engine='auto'):\n"
        "    return time.time()\n"
    )
    findings = lint_paths([tmp_path], with_project_checks=False)
    assert lines_by_rule(findings, "no-wallclock") == [3]
    assert lines_by_rule(findings, "engine-parity") == [2]


def test_iter_python_files_skips_pycache(tmp_path):
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
    (tmp_path / "mod.py").write_text("x = 1\n")
    assert [p.name for p in iter_python_files([tmp_path])] == ["mod.py"]


def test_cli_exit_codes(tmp_path, capsys):
    assert main([str(FIXTURES / "clean.py"), "--no-project"]) == 0
    assert main([str(FIXTURES / "wallclock.py"), "--no-project"]) == 1
    out = capsys.readouterr().out
    assert "wallclock.py:9:" in out
    assert main([str(tmp_path / "missing.py")]) == 2
    assert main(["--list-rules"]) == 0
    listed = capsys.readouterr().out
    for rule_id in EXPECTED_RULES:
        assert rule_id in listed


def _run_cli(*args: str) -> "subprocess.CompletedProcess[str]":
    return subprocess.run(
        [sys.executable, "-m", "repro.devtools.lint", *args],
        cwd=REPO,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )


def test_cli_subprocess_matches_in_process():
    # The default run (project checks included) passes a clean file ...
    clean = _run_cli(str(FIXTURES / "clean.py"))
    assert clean.returncode == 0, clean.stdout + clean.stderr
    # ... and fails a dirty one, printing what the in-process lint finds.
    dirty = _run_cli(str(FIXTURES / "wallclock.py"), "--no-project")
    assert dirty.returncode == 1, dirty.stdout + dirty.stderr
    expected = lint_paths(
        [FIXTURES / "wallclock.py"], with_project_checks=False
    )
    assert expected
    assert [line.split(":", 1)[1] for line in dirty.stdout.splitlines()] == [
        f.render().split(":", 1)[1] for f in expected
    ]


# ------------------------------------------------------------ parity registry


def test_resolution_rejects_missing_names(monkeypatch):
    src_root = REPO / "src"
    assert not resolve_dotted("repro.analysis.churn.no_such_function", src_root)
    assert not resolve_dotted("repro.no_such_module.f", src_root)
    assert not resolve_dotted(
        "repro.core.social.SocialModel.no_such_method", src_root
    )
    assert not node_exists("tests/test_missing.py::test_x", REPO)
    assert not reference_exists("tests/churn_oracle.py::no_such_oracle", REPO)
    assert not reference_exists("repro.analysis.churn.no_such_oracle", REPO)
    assert not node_exists(
        "tests/test_analysis_fastchurn.py::test_no_such", REPO
    )
    assert not node_exists("tests/test_analysis_fastchurn.py", REPO)
    assert not node_exists(
        "tests/test_analysis_balance.py::TestNoSuchClass::test_x", REPO
    )
    # The shipped registry resolves (the session's src lint runs this
    # check); a registry with a dead entry is a finding per dead name.
    monkeypatch.setattr(
        engine_parity,
        "PARITY_REGISTRY",
        {
            "repro.analysis.churn.no_such_function": ParityEntry(
                reference="tests/churn_oracle.py::no_such_oracle",
                tests=(),
                fast="repro.no_such_module.fast",
            ),
            "repro.analysis.churn.extract_churn": ParityEntry(
                reference="tests/churn_oracle.py::extract_churn_python",
                tests=("tests/test_analysis_fastchurn.py::test_no_such",),
            ),
        },
    )
    project = Project(
        repo_root=REPO, src_root=src_root, tests_root=REPO / "tests"
    )
    messages = [
        f.message for f in engine_parity.EngineParity().check_project(project)
    ]
    assert messages == [
        "registry entry repro.analysis.churn.extract_churn: equivalence test "
        "tests/test_analysis_fastchurn.py::test_no_such is not collected",
        "registry entry repro.analysis.churn.no_such_function: implementation "
        "repro.analysis.churn.no_such_function does not resolve under src/",
        "registry entry repro.analysis.churn.no_such_function: implementation "
        "repro.no_such_module.fast does not resolve under src/",
        "registry entry repro.analysis.churn.no_such_function: oracle "
        "tests/churn_oracle.py::no_such_oracle does not resolve",
        "registry entry repro.analysis.churn.no_such_function lists no "
        "equivalence tests",
    ]


def test_split_test_id_strips_parametrization():
    file_part, parts = split_test_id(
        "tests/test_analysis_fastchurn.py::test_extract_churn_engines_identical_random[3]"
    )
    assert file_part == "tests/test_analysis_fastchurn.py"
    assert parts == ["test_extract_churn_engines_identical_random"]


REGISTRY_TEST_FILES = sorted(
    {split_test_id(t)[0] for e in PARITY_REGISTRY.values() for t in e.tests}
)


@pytest.fixture(scope="module")
def collected_registry_tests():
    """Every registry test file collected by one real ``pytest`` run.

    Returns ``file -> {node path}`` with parametrization stripped.
    """
    proc = subprocess.run(
        # no explicit -q: addopts already passes one, and a second would
        # collapse the listing to per-file counts
        [sys.executable, "-m", "pytest", "--collect-only"]
        + REGISTRY_TEST_FILES,
        cwd=REPO,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = {test_file: set() for test_file in REGISTRY_TEST_FILES}
    for line in proc.stdout.splitlines():
        if "::" in line:
            file_part, node = line.split("::", 1)
            collected.setdefault(file_part, set()).add(node.split("[", 1)[0])
    return collected


@pytest.mark.parametrize("test_file", REGISTRY_TEST_FILES)
def test_registry_tests_are_collected_by_pytest(
    test_file, collected_registry_tests
):
    """Cross-check static resolution against real pytest collection."""
    collected = collected_registry_tests[test_file]
    assert collected, f"pytest collected nothing from {test_file}"
    for entry in PARITY_REGISTRY.values():
        for test_id in entry.tests:
            file_part, parts = split_test_id(test_id)
            if file_part == test_file:
                assert "::".join(parts) in collected, test_id
