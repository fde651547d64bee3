"""Fixture: metric instrumentation that violates the metric registry.

Parsed (never imported) by the flow-rule tests with the module name
``repro.obs.metricnames``; every recording call here is a deliberate
metric-name-registry violation except the last two.
"""

from typing import Dict

from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry, inc


def unregistered_literal() -> None:
    # "rogue" matches no MetricSpec at all.
    obs_metrics.inc("rogue")


def owner_mismatch() -> None:
    # registered, but owned by repro.faults.schedule.
    inc("faults.planned_events", 3.0)


def kind_mismatch() -> None:
    # "replay.decisions" is declared a counter; set_gauge records gauges.
    obs_metrics.set_gauge("replay.decisions", 1.0)


def computed_name(day: int) -> None:
    # the name is not a string literal: the registry cannot vouch for it.
    obs_metrics.observe(f"window-{day}", 0.5)


def factory_unregistered(registry: MetricsRegistry) -> None:
    # typed receiver, literal name, no MetricSpec.
    registry.counter("rogue.counter")


def factory_kind_mismatch(registry: MetricsRegistry) -> None:
    # "sim.queue_depth" is declared a gauge, not a histogram.
    registry.histogram("sim.queue_depth")


def untyped_nonliteral_is_spared(table: Dict[str, int], key: str) -> int:
    # `.counter`-shaped call on an untyped receiver with a non-literal
    # argument must not be flagged.
    return table.counter(key)  # type: ignore[attr-defined]


class Tally:
    """A non-registry class that happens to have a ``counter`` method."""

    def counter(self, name: str) -> int:
        return len(name)


def typed_elsewhere_is_spared(rows: Tally) -> int:
    # a literal name on a receiver typed to a non-registry class is not
    # a metric site either.
    return rows.counter("replay.decisions")
