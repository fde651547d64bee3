"""The lint framework: golden fixture findings, suppression, CLI, parity.

Each rule has a fixture file under ``tests/fixtures/lint/`` with known
violations; the tests pin the exact (line, rule) set so a rule that
drifts (misses a case or over-fires) fails loudly.  The suite also
asserts the invariant the framework exists for: ``src/`` is clean, and
deliberately seeded violations are caught.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.lint import iter_python_files, lint_module, lint_paths, main
from repro.devtools.parity_registry import PARITY_REGISTRY
from repro.devtools.project import (
    default_repo_root,
    module_name_for,
    parse_module,
    reference_exists,
    resolve_dotted,
    split_test_id,
)
from repro.devtools.project import test_node_exists as node_exists
from repro.devtools.registry import all_rules, rule_ids

REPO = default_repo_root()
FIXTURES = REPO / "tests" / "fixtures" / "lint"

EXPECTED_RULES = {
    "bare-except",
    "boundary-purity",
    "cache-invalidation",
    "engine-parity",
    "fault-determinism",
    "fork-safe-rng",
    "import-contract",
    "metric-name-registry",
    "mutable-default",
    "no-pickled-columns",
    "no-unseeded-rng",
    "no-wallclock",
    "ordered-iteration",
    "rng-stream-registry",
    "shard-safe-note",
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


def test_fork_safe_rng_fixture_scoped_by_module_name():
    path = FIXTURES / "repro" / "runtime" / "forkrng.py"
    assert module_name_for(path) == "repro.runtime.forkrng"
    findings = lint_module(parse_module(path))
    assert lines_by_rule(findings, "fork-safe-rng") == [12, 17]
    messages = "\n".join(f.message for f in findings)
    assert "root-seeded" in messages
    # the same code outside repro.runtime is not flagged
    relaxed = lint_module(parse_module(path, module="repro.wlan.forkrng"))
    assert lines_by_rule(relaxed, "fork-safe-rng") == []


def test_no_pickled_columns_fixture_scoped_by_module_name():
    path = FIXTURES / "repro" / "runtime" / "pickledcols.py"
    assert module_name_for(path) == "repro.runtime.pickledcols"
    findings = lint_module(parse_module(path))
    assert lines_by_rule(findings, "no-pickled-columns") == [17, 26, 30, 35]
    messages = "\n".join(f.message for f in findings)
    assert "repro.trace.columnar.DemandArrays" in messages
    assert "demand_columns" in messages
    # the same code outside repro.runtime is not flagged
    relaxed = lint_module(parse_module(path, module="repro.wlan.pickledcols"))
    assert lines_by_rule(relaxed, "no-pickled-columns") == []


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


def test_shard_safe_fixture():
    findings = findings_for("shard_safe.py")
    assert lines_by_rule(findings, "shard-safe-note") == [5, 12, 19]
    messages = "\n".join(f.message for f in findings)
    assert "SilentOptOut" in messages
    assert "EmptyReason" in messages
    assert "ConditionalOptOut" in messages
    assert "Documented" not in messages.replace("DocumentedConditional", "")


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


def test_src_tree_is_clean():
    findings = lint_paths([REPO / "src"])
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


def test_cli_subprocess_matches_in_process():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.devtools.lint", "src"],
        cwd=REPO,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ------------------------------------------------------------ parity registry


def test_registry_names_resolve_statically():
    src_root = REPO / "src"
    for dotted, entry in PARITY_REGISTRY.items():
        assert resolve_dotted(dotted, src_root), dotted
        assert reference_exists(entry.reference, REPO), entry.reference
        if entry.fast is not None:
            assert resolve_dotted(entry.fast, src_root), entry.fast
        assert entry.tests, dotted
        for test_id in entry.tests:
            assert node_exists(test_id, REPO), test_id


def test_resolution_rejects_missing_names():
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


def test_split_test_id_strips_parametrization():
    file_part, parts = split_test_id(
        "tests/test_analysis_fastchurn.py::test_extract_churn_engines_identical_random[3]"
    )
    assert file_part == "tests/test_analysis_fastchurn.py"
    assert parts == ["test_extract_churn_engines_identical_random"]


@pytest.mark.parametrize(
    "test_file",
    sorted({split_test_id(t)[0] for e in PARITY_REGISTRY.values() for t in e.tests}),
)
def test_registry_tests_are_collected_by_pytest(test_file):
    """Cross-check static resolution against real pytest collection."""
    proc = subprocess.run(
        # no explicit -q: addopts already passes one, and a second would
        # collapse the listing to per-file counts
        [sys.executable, "-m", "pytest", "--collect-only", test_file],
        cwd=REPO,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = {
        line.split("::", 1)[1].split("[", 1)[0]
        for line in proc.stdout.splitlines()
        if "::" in line
    }
    for entry in PARITY_REGISTRY.values():
        for test_id in entry.tests:
            file_part, parts = split_test_id(test_id)
            if file_part == test_file:
                assert "::".join(parts) in collected, test_id
