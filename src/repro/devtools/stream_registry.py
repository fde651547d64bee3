"""The RNG stream-name registry: every derivation is declared here.

:class:`~repro.sim.rng.RandomStreams` derives child generators and
sub-factories from *names* (``crc32(name)`` seeds), so two modules
deriving the same name from the same factory silently share a stream —
their draws interleave and every downstream float decorrelates from the
run that had only one consumer.  The per-file rules cannot see that
collision; it is a whole-program property.  This registry makes the
stream namespace explicit:

* every ``streams.get(...)`` / ``streams.child(...)`` call site in
  ``src`` must use a string literal (or f-string prefix, or registered
  deriver function) that matches exactly one :class:`StreamEntry`, and
  must live in that entry's ``owner`` module;
* entry names and prefixes must be globally collision-free per kind;
* the seeded ``default_rng(...)`` *fallback* idiom (strategies and
  fitters that accept ``rng=None``) is closed over the same way: only
  the functions listed in :data:`FALLBACK_GENERATORS` may construct a
  generator directly.

The ``rng-stream-registry`` rule checks all of this against the actual
call sites **in both directions** (like ``parity_registry``): an
unregistered derivation fails lint, and a registered entry with no
surviving call site fails lint too — the table cannot rot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class StreamEntry:
    """One registered stream name (or name family) and its owner.

    Exactly one of ``name`` (exact match) or ``prefix`` (f-string /
    deriver family) is set.  ``owner`` is the one module whose call
    sites may derive it — ownership is what makes collisions loud.
    A family whose draw layout is versioned carries the version in its
    prefix (``flows.v2-``): a new layout registers a new prefix and so
    derives new streams, instead of reading old ones in a new order.
    """

    #: ``"get"`` (generator) or ``"child"`` (sub-factory).
    kind: str
    owner: str
    description: str
    name: Optional[str] = None
    prefix: Optional[str] = None

    def matches(self, literal: str) -> bool:
        """Whether an exact literal stream name belongs to this entry."""
        if self.name is not None:
            return literal == self.name
        assert self.prefix is not None
        return literal.startswith(self.prefix)

    def matches_prefix(self, leading: str) -> bool:
        """Whether an f-string's leading literal falls in this family."""
        return self.prefix is not None and leading.startswith(self.prefix)

    @property
    def label(self) -> str:
        if self.name is not None:
            return f"{self.kind}:{self.name!r}"
        return f"{self.kind}:{self.prefix!r}*"


@dataclass(frozen=True)
class DeriverEntry:
    """A function whose return value is a sanctioned stream name.

    ``streams.child(shard_stream_name(cid))`` derives per-controller
    factories from a *computed* name; registering the deriver (and the
    prefix it emits) keeps such sites checkable without banning them.
    """

    #: Dotted qualname of the name-producing function.
    function: str
    #: ``"get"`` or ``"child"`` — where its result may be passed.
    kind: str
    #: The literal prefix every returned name starts with.
    prefix: str
    description: str


#: Every stream name the reproduction derives, by family.
STREAM_REGISTRY: Tuple[StreamEntry, ...] = (
    StreamEntry(
        kind="get",
        name="world",
        owner="repro.trace.social",
        description="campus layout + social-world construction draws",
    ),
    StreamEntry(
        kind="get",
        prefix="day-",
        owner="repro.trace.generator",
        description="per-day session schedule jitter (one stream per day)",
    ),
    StreamEntry(
        kind="get",
        prefix="mood-",
        owner="repro.trace.generator",
        description="per-day mood/shock modulation of traffic volumes",
    ),
    StreamEntry(
        kind="get",
        prefix="flows.v2-",
        owner="repro.trace.generator",
        description=(
            "flow layout v2: one stream per day for the batched flow "
            "columns (counts, shares, apps, ports, timing, server IPs, "
            "source ports); the version is part of the name, so a new "
            "layout derives new streams"
        ),
    ),
    StreamEntry(
        kind="child",
        name="faults",
        owner="repro.faults.schedule",
        description="the chaos-plan sub-factory (fault-determinism rule)",
    ),
    StreamEntry(
        kind="get",
        name="schedule",
        owner="repro.faults.schedule",
        description="fault-plan event schedule draws (under child('faults'))",
    ),
    StreamEntry(
        kind="get",
        prefix="radio-",
        owner="repro.wlan.replay",
        description="per-demand RSSI jitter (one stream per arrival)",
    ),
    StreamEntry(
        kind="get",
        name="service",
        owner="repro.service.workload",
        description="synthetic service-session event stream draws",
    ),
)

#: Functions allowed to compute stream names (prefix families).
DERIVERS: Tuple[DeriverEntry, ...] = (
    DeriverEntry(
        function="repro.wlan.replay.shard_stream_name",
        kind="child",
        prefix="shard:",
        description=(
            "per-controller shard factories — the cross-process stream "
            "identity serial/process parity rests on"
        ),
    ),
)

#: Functions (by dotted qualname) sanctioned to construct a generator
#: directly via seeded ``default_rng(...)`` — the documented fallback
#: idiom for components that accept ``rng=None``.  Anything else must
#: thread a Generator in from :class:`~repro.sim.rng.RandomStreams`.
FALLBACK_GENERATORS: Tuple[str, ...] = (
    "repro.cli.make_strategy",
    "repro.cluster.gap.gap_statistic",
    "repro.cluster.kmeans.KMeans.__init__",
    "repro.core.pipeline.train_s3",
    "repro.core.temporal.fit_extended_type_model",
    "repro.core.typing.fit_user_clusters",
    "repro.experiments.fig7_gap.run",
    "repro.experiments.forecast.run",
    "repro.prototype.testbed.Testbed.add_station",
    "repro.prototype.testbed.run_feasibility_demo",
    "repro.wlan.strategies.RandomSelection.__init__",
)


def find_entry(kind: str, literal: str) -> Optional[StreamEntry]:
    """The registry entry an exact literal name matches, if any.

    Exact-name entries win over prefix families; among prefix matches
    the longest prefix wins (collision checks keep this unambiguous).
    """
    exact = [
        e
        for e in STREAM_REGISTRY
        if e.kind == kind and e.name is not None and e.name == literal
    ]
    if exact:
        return exact[0]
    prefixed = [
        e for e in STREAM_REGISTRY if e.kind == kind and e.matches(literal)
    ]
    if not prefixed:
        return None
    return max(prefixed, key=lambda e: len(e.prefix or ""))


def find_prefix_entry(kind: str, leading: str) -> Optional[StreamEntry]:
    """The prefix-family entry an f-string's leading literal matches."""
    matches = [
        e
        for e in STREAM_REGISTRY
        if e.kind == kind and e.matches_prefix(leading)
    ]
    if not matches:
        return None
    return max(matches, key=lambda e: len(e.prefix or ""))


def find_deriver(function: str, kind: str) -> Optional[DeriverEntry]:
    """The deriver entry for a resolved call target, if registered."""
    for entry in DERIVERS:
        if entry.function == function and entry.kind == kind:
            return entry
    return None
