"""The repo-specific rule suite.

Importing this package registers every rule (each module applies the
:func:`repro.devtools.registry.register` decorator at import time):

================== ====================================================
rule id            invariant
================== ====================================================
no-wallclock       no wall-clock reads outside ``repro.perf`` /
                   ``repro.prototype`` — replay must not observe real
                   time
no-unseeded-rng    no ``random`` module, no legacy ``np.random.*``
                   global state, no unseeded ``default_rng()`` — all
                   randomness flows through seeded ``Generator``
                   objects (:mod:`repro.sim.rng`)
engine-parity      every public ``engine=`` dispatcher is registered in
                   :mod:`repro.devtools.parity_registry`, and every
                   entry's functions, oracle and equivalence tests
                   still resolve
ordered-iteration  no iteration over set-valued expressions or
                   ``.keys()`` in ``analysis``/``core``/``wlan`` —
                   event lists, pair counts and RNG draws must not
                   depend on hash order
cache-invalidation memoizing classes that also mutate state must carry
                   a generation counter (``core/social.py`` pattern)
mutable-default    no mutable argument defaults
bare-except        no ``except:`` clauses
fork-safe-rng      code under ``repro.runtime`` may not call
                   ``RandomStreams.get()`` on a root-seeded factory —
                   workers derive ``child()`` streams, the invariant
                   serial/process parity rests on
fault-determinism  code under ``repro.faults`` draws only from the
                   dedicated ``child("faults")`` stream family — chaos
                   plans are pure functions of their seed
no-pickled-columns code under ``repro.runtime`` may not pickle
                   ``SessionArrays``/``DemandArrays``/``FlowArrays``/
                   ``TraceBundle`` across a process pool — columnar
                   payloads travel through ``repro.runtime.shm``
shard-safe-note    a class setting ``shard_safe = False`` must declare
                   a ``shard_safe_reason`` string naming the mutable
                   cross-controller state that forbids sharding
================== ====================================================

Whole-program (flow) rules — these build the shared import/symbol/call
index from :mod:`repro.devtools.flow` and check cross-module invariants
no single file can witness:

=================== ===================================================
rule id             invariant
=================== ===================================================
rng-stream-registry every ``RandomStreams.get/child`` name (and every
                    seeded ``default_rng`` fallback site) matches
                    :mod:`repro.devtools.stream_registry`, checked
                    against call sites in **both** directions
metric-name-registry every metric recorded via ``repro.obs.metrics``
                    matches a :class:`MetricSpec` in
                    :mod:`repro.obs.metric_registry` — registered,
                    owned, kind-consistent, checked in both directions
import-contract     package imports follow the layering table in
                    :mod:`repro.devtools.rules.import_contract`;
                    private modules stay package-internal; no
                    top-level import cycles
boundary-purity     code reachable from the worker boundary must not
                    read ``os.environ``, mutate module-level state, or
                    draw hidden-global RNG
stale-noqa          a ``# repro: noqa[...]`` that suppresses no current
                    finding is itself a finding
=================== ===================================================
"""

from __future__ import annotations

from repro.devtools.rules import (  # noqa: F401  (registration side effects)
    basics,
    boundary_purity,
    cache_invalidation,
    engine_parity,
    fault_determinism,
    fork_safe_rng,
    import_contract,
    metric_names,
    no_pickled_columns,
    ordered_iteration,
    rng,
    rng_streams,
    shard_safe,
    stale_noqa,
    wallclock,
)
