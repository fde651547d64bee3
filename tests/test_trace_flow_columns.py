"""The columnar flow log: generator, bundle, checks and profiles.

The flow log lives only as :class:`~repro.trace.columnar.FlowArrays`.
These tests hold it to the record form it replaced: the generator's
columns materialise to the records the per-flow list comprehension built
(``tests/flow_oracle.py``), bundle operations on columns equal the same
operations on records, every :class:`FlowRecord` check is a column check,
and profiles from columns equal the per-flow loop bit for bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.profiles import build_daily_profiles
from repro.experiments import fig12_compare
from repro.experiments.config import SMALL, TINY
from repro.experiments.workload import build_workload, trained_model
from repro.sim.rng import RandomStreams
from repro.sim.timeline import DAY
from repro.trace.apps import port_table
from repro.trace.classifier import PortClassifier
from repro.trace.columnar import FLOW_PROTOCOLS, FlowArrays
from repro.trace.generator import TraceGenerator
from repro.trace.records import FlowRecord, TraceBundle, format_ipv4, parse_ipv4
from repro.trace.social import build_world
from tests.flow_oracle import day_flow_records, trace_flow_records
from tests.test_core_profiles import assert_same_store, loop_daily_profiles


def fresh_generator(config):
    streams = RandomStreams(config.seed)
    world = build_world(config.world, streams)
    return TraceGenerator(world, config.generator_config(), streams=streams)


def reprs(flows):
    return [repr(flow) for flow in flows]


def flow(user="u1", start=0.0, end=1.0, dst_ip="8.8.8.8", protocol="tcp",
         src_port=40000, dst_port=443, size=1.0, src_ip="10.0.0.1"):
    return FlowRecord(
        user, start, end, src_ip, dst_ip, protocol, src_port, dst_port, size
    )


# ------------------------------------------------------------- generator


class TestGeneratorColumns:
    @pytest.mark.parametrize("config", [TINY, SMALL], ids=["tiny", "small"])
    def test_bundle_rows_equal_per_record_materialisation(self, config):
        bundle = fresh_generator(config).generate()
        assert reprs(bundle.flows) == reprs(trace_flow_records(fresh_generator(config)))

    def test_each_day_equals_per_record_materialisation(self):
        columnar, oracle = fresh_generator(TINY), fresh_generator(TINY)
        for day in range(TINY.generator_config().n_days):
            columns = columnar._day_flows(day, columnar._day(day)[1])
            records = day_flow_records(oracle, day, oracle.generate_day(day))
            assert reprs(columns.to_flows()) == reprs(records)


# ---------------------------------------------------------------- bundle


@pytest.fixture(scope="module")
def tiny_records():
    return fresh_generator(TINY).generate().flows


class TestBundleColumns:
    def test_records_and_columns_build_the_same_bundle(self, tiny_records):
        shuffled = list(reversed(tiny_records))
        from_rows = TraceBundle(flows=shuffled)
        from_columns = TraceBundle(flows=FlowArrays.from_flows(shuffled))
        expected = sorted(tiny_records, key=lambda r: (r.start, r.user_id, r.dst_port))
        assert reprs(from_rows.flows) == reprs(expected)
        assert reprs(from_columns.flows) == reprs(expected)

    def test_sorted_columns_pass_through(self, tiny_records):
        columns = TraceBundle(flows=tiny_records).flow_columns()
        assert TraceBundle(flows=columns).flow_columns() is columns

    def test_flows_property_caches_nothing(self, tiny_records):
        bundle = TraceBundle(flows=tiny_records)
        assert bundle.flows is not bundle.flows
        assert bundle.flows == bundle.flows

    def test_flows_before_is_a_prefix_view(self, tiny_records):
        bundle = TraceBundle(flows=tiny_records)
        split = 3 * DAY + 0.5
        prefix = bundle.flows_before(split)
        assert reprs(prefix.to_flows()) == reprs(
            [f for f in bundle.flows if f.start < split]
        )
        assert np.shares_memory(prefix.start, bundle.flow_columns().start)

    def test_flows_in_and_restrict_match_records(self, tiny_records):
        bundle = TraceBundle(flows=tiny_records)
        lo, hi = 1.5 * DAY, 2.25 * DAY
        expected = [f for f in bundle.flows if f.start < hi and f.end > lo]
        assert reprs(bundle.flows_in(lo, hi).to_flows()) == reprs(expected)
        assert reprs(bundle.restrict(lo, hi).flows) == reprs(expected)

    def test_merged_with_matches_sorted_union(self, tiny_records):
        half = len(tiny_records) // 2
        odd = [
            dataclasses.replace(f, user_id=f.user_id + "x") for f in tiny_records[:half]
        ]
        a = TraceBundle(flows=odd)
        b = TraceBundle(flows=tiny_records[half:])
        merged = a.merged_with(b)
        expected = sorted(
            odd + tiny_records[half:], key=lambda r: (r.start, r.user_id, r.dst_port)
        )
        assert reprs(merged.flows) == reprs(expected)
        assert merged.user_ids == sorted({f.user_id for f in expected})

    def test_user_ids_count_only_present_rows(self, tiny_records):
        bundle = TraceBundle(flows=tiny_records)
        first = bundle.flows_before(tiny_records[0].start + 1.0)
        assert TraceBundle(flows=first).user_ids == sorted(
            {f.user_id for f in first.to_flows()}
        )

    def test_flows_by_user_keeps_log_order(self, tiny_records):
        bundle = TraceBundle(flows=tiny_records)
        by_user = bundle.flows_by_user()
        assert list(by_user) == sorted(by_user)
        for user_id, rows in by_user.items():
            assert reprs(rows.to_flows()) == reprs(
                [f for f in bundle.flows if f.user_id == user_id]
            )

    def test_empty_bundle(self):
        bundle = TraceBundle()
        assert bundle.n_flows == 0
        assert bundle.flows == []
        assert bundle.flows_before(10.0).n_rows == 0
        assert bundle.flows_by_user() == {}


# ---------------------------------------------------------------- checks


def columns(**overrides):
    """One valid flow as columns, with some columns replaced."""
    fields = {
        "user_ids": ["u1"], "src_ips": ["10.0.0.1"], "user": [0], "src_ip": [0],
        "dst_ip": [parse_ipv4("8.8.8.8")], "protocol": [0], "src_port": [40000],
        "dst_port": [443], "start": [0.0], "end": [1.0], "bytes_total": [1.0],
    }
    fields.update(overrides)
    return FlowArrays(**fields)


class TestFlowArraysChecks:
    def test_valid_row_round_trips(self):
        assert columns().to_flows() == [flow()]

    def test_rejects_end_before_start(self):
        with pytest.raises(ValueError, match="before start"):
            columns(start=[5.0], end=[1.0])

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ValueError, match="protocol"):
            columns(protocol=[len(FLOW_PROTOCOLS)])

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError, match="negative"):
            columns(bytes_total=[-1.0])

    @pytest.mark.parametrize(
        "ports", [(0, 443), (65536, 443), (40000, 0), (40000, 70000)]
    )
    def test_rejects_port_out_of_range(self, ports):
        with pytest.raises(ValueError, match="port out of range"):
            columns(src_port=[ports[0]], dst_port=[ports[1]])

    @pytest.mark.parametrize("packed", [-1, 1 << 32])
    def test_rejects_non_ipv4_dst(self, packed):
        with pytest.raises(ValueError, match="IPv4"):
            columns(dst_ip=[packed])

    def test_rejects_codes_outside_table(self):
        with pytest.raises(ValueError, match="outside its table"):
            columns(user=[1])

    def test_rejects_unsorted_table(self):
        with pytest.raises(ValueError, match="sorted"):
            columns(user_ids=["u2", "u1"])

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="lengths"):
            columns(end=[1.0, 2.0])

    @pytest.mark.parametrize(
        "overrides",
        [
            {"start": 5.0, "end": 1.0},
            {"protocol": "icmp"},
            {"size": -1.0},
            {"src_port": 0},
            {"dst_port": 65536},
            {"dst_ip": "8.8.8"},
        ],
    )
    def test_record_and_columns_reject_alike(self, overrides):
        with pytest.raises(ValueError):
            flow(**overrides)
        # A record that skipped its own checks, so only the columns judge.
        record = FlowRecord.__new__(FlowRecord)
        record.__dict__.update(flow().__dict__)
        record.__dict__.update(
            {("bytes_total" if k == "size" else k): v for k, v in overrides.items()}
        )
        with pytest.raises(ValueError):
            FlowArrays.from_flows([record])


class TestDottedQuad:
    @pytest.mark.parametrize(
        "text", ["0.0.0.0", "8.8.8.8", "255.255.255.255", "10.0.12.1"]
    )
    def test_round_trips(self, text):
        assert format_ipv4(parse_ipv4(text)) == text

    @pytest.mark.parametrize(
        "text",
        ["8.8.8", "8.8.8.8.8", "256.1.1.1", "01.2.3.4", "a.b.c.d", "1.2.3.-4", ""],
    )
    def test_record_rejects_non_canonical(self, text):
        with pytest.raises(ValueError, match="IPv4"):
            flow(dst_ip=text)


# -------------------------------------------------------------- profiles


#: Unknown ports that take each fallback: P2P (both ports high), web (tcp
#: to a low port) and unclassifiable (udp low, tcp mid).
_FALLBACKS = [("tcp", 25000), ("udp", 25000), ("tcp", 700), ("udp", 700), ("tcp", 5000)]


class TestProfilesFromColumns:
    def test_generated_log_equals_per_flow_loop(self, tiny_records):
        bundle = TraceBundle(flows=tiny_records)
        assert_same_store(
            build_daily_profiles(bundle.flow_columns()),
            loop_daily_profiles(bundle.flows),
        )

    def test_heuristic_branches_equal_per_flow_loop(self):
        rng = np.random.default_rng(11)
        known = sorted(port_table())
        choices = known + _FALLBACKS
        records = []
        for i in range(400):
            protocol, dst_port = choices[int(rng.integers(len(choices)))]
            start = float(rng.integers(0, 4)) * DAY + float(rng.random()) * DAY
            records.append(
                flow(
                    user=f"u{int(rng.integers(5))}", start=start, end=start + 1.0,
                    protocol=protocol, dst_port=dst_port,
                    src_port=int(rng.choice([1024, 9999, 10000, 40000])),
                    size=float(rng.lognormal(10, 3)),
                )
            )
        store = build_daily_profiles(FlowArrays.from_flows(records))
        assert_same_store(store, loop_daily_profiles(records))
        codes = PortClassifier().classify_columns(FlowArrays.from_flows(records))
        expected = [PortClassifier().classify(r) for r in records]
        assert codes.tolist() == [-1 if r is None else int(r) for r in expected]
        assert {int(r) for r in expected if r is not None} >= {0, 1, 2, 3, 4, 5}
        assert None in expected


# ------------------------------------------------------------------ guard


def test_paper_pipeline_builds_no_flow_record(monkeypatch):
    """Set-up, training and Fig. 12 read the columns only."""

    def refuse(*args, **kwargs):
        raise AssertionError("a product path built FlowRecord rows")

    monkeypatch.setattr(FlowRecord, "__post_init__", refuse)
    monkeypatch.setattr(FlowArrays, "to_flows", refuse)
    config = dataclasses.replace(TINY, seed=TINY.seed + 1)
    build_workload(config)
    trained_model(config)
    fig12_compare.run(config)
