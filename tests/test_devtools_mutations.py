"""One mutation per rule: each rule catches something nothing else does.

A rule earns its place in the suite by one *mutation*: a one-line edit
of a real ``src`` module that the rule flags, that no other rule flags,
and that the tier-1 suite does not catch (``docs/static_analysis.md``,
"Mutation evidence", lists each edit and how it was checked).  Each test
below copies the module to ``tmp_path``, applies its edit and lints the
copy in the module's place: every rule's module check on the copy, plus
every rule's project check over the session's lint of ``src`` with the
copy in place of the original.  Exactly one rule may fire.  The metric
registry is data the ``metric-name-registry`` rule imports rather than
parses, so its copy is loaded in its place.
"""

from __future__ import annotations

import difflib
import runpy
from pathlib import Path
from typing import Dict, NamedTuple

import pytest

from repro.devtools.lint import lint_module
from repro.devtools.project import (
    Project,
    default_repo_root,
    module_name_for,
    parse_module,
)
from repro.devtools.registry import all_rules, rule_ids
from repro.devtools.rules import metric_names

REPO = default_repo_root()


class Mutation(NamedTuple):
    """Replace ``old`` (unique in ``path``) by ``new``: one line differs."""

    path: str
    old: str
    new: str


MUTATIONS: Dict[str, Mutation] = {
    # Ctrl-C inside the S³ selector becomes an LLF fallback decision.
    "bare-except": Mutation(
        "src/repro/wlan/strategies.py",
        '        except Exception:\n'
        '            self._note = "fallback:llf:selector-error"\n',
        '        except:\n'
        '            self._note = "fallback:llf:selector-error"\n',
    ),
    # Whether a sweep worker resets its perf registry hangs on its env.
    "boundary-purity": Mutation(
        "src/repro/runtime/workers.py",
        "    perf.reset()\n    value = call.fn(**call.kwargs_dict)\n",
        '    import os; os.environ.get("REPRO_KEEP_PERF") or perf.reset()\n'
        "    value = call.fn(**call.kwargs_dict)\n",
    ),
    # A memo in a class whose observe() moves the values it would hold.
    "cache-invalidation": Mutation(
        "src/repro/core/demand.py",
        "        self._observations: Dict[str, int] = {}\n",
        "        self._observations: Dict[str, int] = {}\n"
        "        self._estimate_cache: Dict[str, float] = {}\n",
    ),
    # A second, unregistered product path behind an engine switch.
    "engine-parity": Mutation(
        "src/repro/analysis/balance.py",
        "def normalized_balance_index(loads: Sequence[float]) -> float:\n",
        "def normalized_balance_index(loads: Sequence[float], "
        'engine: str = "auto") -> float:\n',
    ),
    # Chaos plans drawn from the root factory, not the faults family.
    "fault-determinism": Mutation(
        "src/repro/faults/schedule.py",
        "    config = config if config is not None else ChaosConfig()\n"
        '    rng = streams.child("faults").get("schedule")\n',
        "    config = config if config is not None else ChaosConfig()\n"
        '    rng = streams.get("schedule")\n',
    ),
    # The analysis layer reaching up into core.
    "import-contract": Mutation(
        "src/repro/analysis/balance.py",
        "        return 1.0\n    floor = 1.0 / n\n",
        "        return 1.0\n"
        "    from repro.core.selection import balance_squares\n"
        "    floor = 1.0 / n\n",
    ),
    # The decision counter claimed by the loop, not the admission queue.
    "metric-name-registry": Mutation(
        "src/repro/obs/metric_registry.py",
        '        name="service.decisions",\n'
        '        kind="counter",\n'
        '        scope="run",\n'
        '        owner="repro.service.admission",\n',
        '        name="service.decisions",\n'
        '        kind="counter",\n'
        '        scope="run",\n'
        '        owner="repro.service.loop",\n',
    ),
    # One shared list default for every Prometheus label rendering.
    "mutable-default": Mutation(
        "src/repro/obs/metrics.py",
        "def _prom_labels(labels: Labels, extra: Labels = ()) -> str:\n",
        "def _prom_labels(labels: Labels, extra: Labels = []) -> str:\n",
    ),
    # RandomSelection's fallback generator seeded from the OS.
    "no-unseeded-rng": Mutation(
        "src/repro/wlan/strategies.py",
        "np.random.default_rng(0)",
        "np.random.default_rng()",
    ),
    # The admission latency read off the host clock, past the funnel.
    "no-wallclock": Mutation(
        "src/repro/service/admission.py",
        "        latency = perf.wall_seconds() - enqueued\n",
        "        import time; latency = time.perf_counter() - enqueued\n",
    ),
    # Social pairs inserted in hash order.
    "ordered-iteration": Mutation(
        "src/repro/core/social.py",
        "    for pair in sorted(set(encounters) | set(co_leavings)):\n",
        "    for pair in set(encounters) | set(co_leavings):\n",
    ),
    # The CLI's random strategy draws from the world's stream.
    "rng-stream-registry": Mutation(
        "src/repro/cli.py",
        "        return RandomSelection(np.random.default_rng(0))\n",
        '        return RandomSelection(RandomStreams(0).get("world"))\n',
    ),
    # A waiver naming a rule that never fires on its line.
    "stale-noqa": Mutation(
        "src/repro/core/selection.py",
        "class CostIndex:  # repro: noqa[cache-invalidation]\n",
        "class CostIndex:  # repro: noqa[cache-invalidation,"
        "ordered-iteration]\n",
    ),
}


def test_every_rule_has_a_mutation():
    assert sorted(MUTATIONS) == rule_ids()


@pytest.mark.parametrize("rule", sorted(MUTATIONS))
def test_mutation_trips_only_its_rule(
    rule: str, tmp_path: Path, monkeypatch: pytest.MonkeyPatch, src_lint
) -> None:
    mutation = MUTATIONS[rule]
    original = REPO / mutation.path
    source = original.read_text(encoding="utf-8")
    assert source.count(mutation.old) == 1, "the edit's anchor moved"
    mutated = source.replace(mutation.old, mutation.new)
    changed = [
        line
        for line in difflib.ndiff(source.splitlines(), mutated.splitlines())
        if line.startswith(("- ", "+ "))
    ]
    assert 1 <= len(changed) <= 2, changed  # one line edited, added or cut
    copy = tmp_path / original.name
    copy.write_text(mutated, encoding="utf-8")

    module = parse_module(copy, module=module_name_for(original))
    if module.module == "repro.obs.metric_registry":
        specs = runpy.run_path(str(copy))["SPECS_BY_NAME"]
        monkeypatch.setattr(metric_names, "SPECS_BY_NAME", specs)
    linted = src_lint.project.modules
    assert module.module in {m.module for m in linted}
    project = Project(
        repo_root=REPO,
        src_root=REPO / "src",
        tests_root=REPO / "tests",
        modules=[module if m.module == module.module else m for m in linted],
    )
    rules = all_rules()
    findings = lint_module(module, rules)
    for other in rules:
        findings.extend(other.check_project(project))
    assert findings, f"{rule} missed its mutation"
    assert {f.rule for f in findings} == {rule}, "\n".join(
        f.render() for f in findings
    )
