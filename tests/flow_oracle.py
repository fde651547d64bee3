"""Per-record flow materialisation: the test oracle of the columnar log.

:meth:`repro.trace.generator.TraceGenerator._day_flows` draws whole numpy
columns and returns them as :class:`~repro.trace.columnar.FlowArrays`.
Before the flow log became columnar, the same draws were turned into one
:class:`FlowRecord` per flow by the list comprehension below, and
``TraceGenerator.generate`` sorted the concatenated days with
``sorted(key=(start, user_id, dst_port))``.  The tests require the columns,
materialised with ``to_flows()``, to equal these records repr for repr.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.trace.columnar import FLOW_PROTOCOLS
from repro.trace.generator import (
    _APP_COUNT,
    _APP_OFFSET,
    _PORT_COUNT,
    _PORT_OFFSET,
    _PORT_PROTOCOL,
    _PORTS,
    _SERVER_IP_HIGH,
    _SERVER_IP_LOW,
    TraceGenerator,
    _user_ip,
)
from repro.trace.records import DemandSession, FlowRecord


def day_flow_records(
    generator: TraceGenerator, day: int, demands: List[DemandSession]
) -> List[FlowRecord]:
    """One day's flows (layout v2) as records, in draw order."""
    if not demands:
        return []
    volumes = np.array([d.realm_bytes for d in demands], dtype=float)
    group_demand, group_realm = np.nonzero(volumes > 0)
    if not len(group_demand):
        return []
    rng = generator.streams.get(f"flows.v2-{day}")
    max_flows = generator.config.max_flows_per_realm
    counts = rng.integers(1, max_flows + 1, size=len(group_demand))
    group = np.repeat(np.arange(len(counts)), counts)
    n_flows = len(group)
    weights = rng.standard_exponential(n_flows)
    share = weights / np.add.reduceat(weights, np.cumsum(counts) - counts)[group]
    realm = group_realm[group]
    app = _APP_OFFSET[realm] + rng.integers(0, _APP_COUNT[realm])
    port = _PORT_OFFSET[app] + rng.integers(0, _PORT_COUNT[app])
    long_lived = rng.random(n_flows) < 0.85
    start_fraction, end_fraction = rng.random((2, n_flows))
    octets = rng.integers(_SERVER_IP_LOW, _SERVER_IP_HIGH, size=(n_flows, 4))
    src_ports = rng.integers(32768, 61000, size=n_flows)

    demand = group_demand[group]
    arrival = np.array([d.arrival for d in demands])[demand]
    departure = np.array([d.departure for d in demands])[demand]
    span = departure - arrival
    bursty_start = arrival + start_fraction * 0.5 * span
    start = np.where(
        long_lived, arrival + start_fraction * 0.02 * span, bursty_start
    )
    end = np.where(
        long_lived,
        departure - end_fraction * 0.02 * span,
        bursty_start + np.maximum(1.0, end_fraction * (departure - bursty_start)),
    )
    end = np.minimum(end, departure)
    flow_bytes = volumes[demand, realm] * share

    user_ids = [d.user_id for d in demands]
    src_ips = [_user_ip(user_id) for user_id in user_ids]
    protocols = [FLOW_PROTOCOLS[code] for code in _PORT_PROTOCOL.tolist()]
    port_numbers = _PORTS.tolist()
    return [
        FlowRecord(
            user_id=user_ids[d],
            start=f_start,
            end=f_end,
            src_ip=src_ips[d],
            dst_ip=f"{a}.{b}.{c}.{e}",
            protocol=protocols[p],
            src_port=src_port,
            dst_port=port_numbers[p],
            bytes_total=size,
        )
        for d, f_start, f_end, (a, b, c, e), p, src_port, size in zip(
            demand.tolist(),
            start.tolist(),
            end.tolist(),
            octets.tolist(),
            port.tolist(),
            src_ports.tolist(),
            flow_bytes.tolist(),
        )
    ]


def trace_flow_records(generator: TraceGenerator) -> List[FlowRecord]:
    """Every day's flows as records, in the bundle's sorted order.

    Draws each day's demands first, as ``generate`` does; the generator
    must be fresh (its streams not yet drawn from).
    """
    flows: List[FlowRecord] = []
    for day in range(generator.config.n_days):
        flows.extend(day_flow_records(generator, day, generator.generate_day(day)))
    return sorted(flows, key=lambda r: (r.start, r.user_id, r.dst_port))
