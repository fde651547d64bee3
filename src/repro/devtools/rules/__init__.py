"""The repo-specific rule suite.

Importing this package registers every rule (each module applies the
:func:`repro.devtools.registry.register` decorator at import time).
The table is generated by ``python -m repro.devtools.lint --list-rules
--markdown``; ``boundary-purity``, ``import-contract``,
``metric-name-registry`` and ``rng-stream-registry`` are whole-program
rules over the shared flow index of :mod:`repro.devtools.flow`.  Each
rule is kept by one mutation of ``src`` that only it catches
(``tests/test_devtools_mutations.py``).

| rule | invariant |
| --- | --- |
| `bare-except` | no bare except: clauses (they swallow KeyboardInterrupt too) |
| `boundary-purity` | functions reachable from the worker boundary (runtime.workers entry points, retry runners, make_task callables) must not read os.environ or mutate module state |
| `cache-invalidation` | a class with a *_cache/_memo* attribute and mutating methods must also maintain a generation/epoch counter |
| `engine-parity` | public engine= functions must be registered in repro.devtools.parity_registry with live equivalence tests |
| `fault-determinism` | fault-plan code (repro.faults, the service supervisor/soak) may not call numpy.random.default_rng or .get() on anything but a child("faults") stream family |
| `import-contract` | repro.* imports must follow the layering table in repro/devtools/rules/import_contract.py; private modules stay package-internal; no top-level import cycles |
| `metric-name-registry` | metric names recorded via repro.obs.metrics must match a MetricSpec in repro.obs.metric_registry — registered, owned by the recording module, kind-consistent, and checked against call sites in both directions |
| `mutable-default` | no mutable argument defaults ([] / {} / set() / dict()) |
| `no-unseeded-rng` | no `import random`, no legacy np.random.* global-state calls, no unseeded default_rng(); thread seeded Generator objects instead |
| `no-wallclock` | wall-clock reads (time.time / datetime.now / time.monotonic ...) are only allowed in repro.perf and repro.prototype |
| `ordered-iteration` | no iteration over sets / .keys() in repro.analysis, repro.core, repro.wlan — wrap in sorted() to fix the order |
| `rng-stream-registry` | RandomStreams.get/child names and default_rng fallback sites must match repro.devtools.stream_registry, which is checked against call sites in both directions |
| `stale-noqa` | a `# repro: noqa[...]` must suppress at least one current finding on its line; stale suppressions are findings themselves |
"""

from __future__ import annotations

from repro.devtools.rules import (  # noqa: F401  (registration side effects)
    basics,
    boundary_purity,
    cache_invalidation,
    engine_parity,
    fault_determinism,
    import_contract,
    metric_names,
    ordered_iteration,
    rng,
    rng_streams,
    stale_noqa,
    wallclock,
)
