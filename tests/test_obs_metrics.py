"""Unit tests for the windowed metrics layer (:mod:`repro.obs.metrics`).

Covers the windowing arithmetic, histogram ``le`` bucket semantics at
the boundaries, the by-value capture/install pair a service checkpoint
restores through, the registry-name and label
contracts, the memory probe, the allocation-free disabled path, and the
byte identity of a fault-armed replay's run-scoped series across two
same-seed runs.
"""

from __future__ import annotations

import pickle
import sys

import pytest

from repro.faults import ChaosConfig, generate_plan
from repro.obs import metrics as obs_metrics
from repro.obs.journal import render_journal
from repro.obs.metric_registry import DEFAULT_BUCKETS, spec_for
from repro.obs.metrics import (
    MemoryProbe,
    MetricsRegistry,
    metric_records,
    metrics_rollup,
    render_csv,
    render_prometheus,
    series_key,
)
from repro.sim.rng import RandomStreams
from repro.wlan.replay import ReplayEngine, window_for
from repro.wlan.strategies import LeastLoadedFirst

WINDOW = obs_metrics.DEFAULT_WINDOW_SECONDS


def fresh_registry(**kwargs) -> MetricsRegistry:
    """An enabled registry with a probe that samples nothing."""
    probe = MemoryProbe()
    probe.sources = lambda: {}  # type: ignore[method-assign]
    kwargs.setdefault("probe", probe)
    return MetricsRegistry(enabled=True, **kwargs)


class TestWindowing:
    def test_counter_sums_per_sim_time_window(self):
        registry = fresh_registry()
        registry.inc("replay.decisions", 1.0, sim_time=10.0)
        registry.inc("replay.decisions", 2.0, sim_time=WINDOW - 0.001)
        registry.inc("replay.decisions", 5.0, sim_time=WINDOW)
        series = registry.counter("replay.decisions")
        assert series.windows == {0: 3.0, 1: 5.0}
        assert series.total == 8.0

    def test_window_boundary_belongs_to_the_new_window(self):
        registry = fresh_registry()
        registry.inc("replay.decisions", 1.0, sim_time=2 * WINDOW)
        assert list(registry.counter("replay.decisions").windows) == [2]

    def test_gauge_keeps_last_write_per_window(self):
        registry = fresh_registry()
        registry.set_gauge("replay.controller_load", 5.0, sim_time=100.0)
        registry.set_gauge("replay.controller_load", 7.0, sim_time=200.0)
        # An out-of-order earlier point must not clobber the later one.
        registry.set_gauge("replay.controller_load", 9.0, sim_time=150.0)
        series = registry.gauge("replay.controller_load")
        assert series.windows == {0: (200.0, 7.0)}
        assert series.last == (200.0, 7.0)

    def test_custom_window_rebuckets(self):
        registry = fresh_registry(window_seconds=60.0)
        registry.inc("replay.decisions", 1.0, sim_time=59.0)
        registry.inc("replay.decisions", 1.0, sim_time=61.0)
        assert registry.counter("replay.decisions").windows == {0: 1.0, 1: 1.0}

    def test_non_positive_window_rejected(self):
        with pytest.raises(ValueError, match="non-positive window"):
            MetricsRegistry(window_seconds=0.0)


class TestHistogramBuckets:
    # replay.candidate_set_size declares buckets (1, 2, 4, 8, 16, 32).
    NAME = "replay.candidate_set_size"

    def observe_all(self, values):
        registry = fresh_registry()
        for value in values:
            registry.observe(self.NAME, value, sim_time=0.0)
        return registry.histogram(self.NAME).windows[0]

    def test_boundary_value_lands_in_its_own_bucket(self):
        # Prometheus ``le`` semantics: a value equal to a bound counts
        # in that bound's bucket, not the next.
        window = self.observe_all([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        assert window.counts == [1, 1, 1, 1, 1, 1, 0]

    def test_between_bounds_rounds_up(self):
        window = self.observe_all([2.5])
        assert window.counts == [0, 0, 1, 0, 0, 0, 0]

    def test_above_last_bound_lands_in_inf(self):
        window = self.observe_all([33.0, 1e9])
        assert window.counts == [0, 0, 0, 0, 0, 0, 2]
        assert window.count == 2
        assert window.total == 33.0 + 1e9

    def test_below_first_bound_lands_in_first_bucket(self):
        window = self.observe_all([0.0, -1.0])
        assert window.counts == [2, 0, 0, 0, 0, 0, 0]

    def test_default_buckets_apply_when_spec_declares_none(self):
        assert spec_for("sim.events").effective_buckets == DEFAULT_BUCKETS


class TestNameAndLabelContracts:
    def test_unregistered_name_rejected(self):
        registry = fresh_registry()
        with pytest.raises(ValueError, match="not registered"):
            registry.inc("replay.typo", 1.0)

    def test_kind_mismatch_rejected(self):
        registry = fresh_registry()
        with pytest.raises(TypeError, match="registered as a counter"):
            registry.set_gauge("replay.decisions", 1.0)

    def test_existing_series_kind_is_sticky(self):
        registry = fresh_registry()
        registry.inc("replay.decisions", 1.0)
        with pytest.raises(TypeError, match="already exists"):
            registry.gauge("replay.decisions")

    def test_unsorted_labels_rejected(self):
        registry = fresh_registry()
        with pytest.raises(ValueError, match="sorted"):
            registry.inc(
                "replay.decisions", 1.0,
                labels=(("b", "1"), ("a", "2")),
            )

    def test_series_key_renders_labels(self):
        assert series_key("x") == "x"
        assert (
            series_key("x", (("ctrl", "c0"), ("shard", "1")))
            == "x{ctrl=c0,shard=1}"
        )

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry()  # disabled by default
        registry.inc("replay.decisions", 1.0)
        registry.set_gauge("replay.controller_load", 1.0)
        registry.observe("replay.candidate_set_size", 1.0)
        assert not registry


class TestCaptureInstall:
    def fill(self, registry, offset=0.0, amount=1.0):
        registry.inc("replay.decisions", amount, sim_time=offset)
        registry.set_gauge(
            "replay.controller_load", amount * 10, sim_time=offset
        )
        registry.observe(
            "replay.candidate_set_size", 2.0 + amount, sim_time=offset
        )

    def test_capture_is_deep_and_pickles(self):
        registry = fresh_registry()
        self.fill(registry, offset=5.0)
        records = metric_records(registry)
        captured = registry.capture()
        pickled = pickle.loads(pickle.dumps(captured))
        # Specs pickle as their names and unpickle as the table's entries.
        assert all(s.spec is spec_for(s.spec.name) for s in pickled.series())
        self.fill(registry, offset=6.0, amount=99.0)  # same windows
        for source in (captured, pickled):
            fresh = fresh_registry()
            fresh.install(source)
            assert metric_records(fresh) == records
            assert fresh.counter("replay.decisions").total == 1.0
            # The installed series are copies: recording into them
            # leaves the capture as it was.
            self.fill(fresh, offset=7.0, amount=5.0)
            assert metric_records(source) == records

    def test_install_restores_lifecycle_and_keeps_the_probe(self):
        source = fresh_registry(window_seconds=60.0)
        self.fill(source, offset=130.0)
        polled = []
        probe = MemoryProbe(sources={"mem.peak_rss_bytes": lambda: 1.0})
        probe.sample = lambda *args: polled.append(args)  # type: ignore[method-assign]
        target = MetricsRegistry(probe=probe)
        target.install(source.capture())
        assert target.enabled and target.window_seconds == 60.0
        assert target.probe is probe
        assert metric_records(target) == metric_records(source)
        # The frontier came along: window 2 is not a new crossing.
        target.inc("replay.decisions", 1.0, sim_time=150.0)
        assert polled == []
        target.inc("replay.decisions", 1.0, sim_time=185.0)
        assert len(polled) == 1


class TestGlobalLifecycle:
    def test_enable_cannot_change_window_of_populated_registry(self):
        obs_metrics.enable(reset=True, window_seconds=60.0)
        obs_metrics.inc("replay.decisions", 1.0, 5.0)
        with pytest.raises(ValueError, match="pass reset=True"):
            obs_metrics.enable(reset=False, window_seconds=120.0)
        # A reset makes the change legal again.
        registry = obs_metrics.enable(reset=True, window_seconds=120.0)
        assert registry.window_seconds == 120.0

    def test_disable_keeps_series(self):
        obs_metrics.enable(reset=True)
        obs_metrics.inc("replay.decisions", 1.0, 5.0)
        registry = obs_metrics.disable()
        assert not registry.enabled
        assert registry.counter("replay.decisions").total == 1.0

    def test_disabled_module_functions_allocate_nothing(self):
        registry = obs_metrics.get_metrics()
        assert not registry.enabled
        calls = [
            obs_metrics.inc,
            obs_metrics.set_gauge,
            obs_metrics.observe,
        ] * 256
        for fn in calls:  # warm up caches before measuring
            fn("replay.decisions", 1.0, 0.0)
        deltas = []
        for _ in range(5):
            before = sys.getallocatedblocks()
            for fn in calls:
                fn("replay.decisions", 1.0, 0.0)
            deltas.append(sys.getallocatedblocks() - before)
        # Interpreter-internal churn can dirty a trial; the disabled
        # path itself must manage at least one allocation-free pass.
        assert min(deltas) <= 0, f"disabled path allocated: {deltas}"
        assert not registry


class TestMemoryProbe:
    def test_probe_fires_once_per_window_crossing(self):
        polled = []

        def source():
            polled.append(True)
            return 123.0

        probe = MemoryProbe(sources={"mem.peak_rss_bytes": source})
        probe.sources = lambda: {"mem.peak_rss_bytes": source}  # type: ignore[method-assign]
        registry = MetricsRegistry(enabled=True, probe=probe)
        registry.inc("replay.decisions", 1.0, sim_time=10.0)
        registry.inc("replay.decisions", 1.0, sim_time=20.0)  # same window
        assert len(polled) == 1
        registry.inc("replay.decisions", 1.0, sim_time=WINDOW + 1.0)
        assert len(polled) == 2
        gauge = registry.gauge("mem.peak_rss_bytes")
        assert gauge.windows[0] == (10.0, 123.0)
        assert gauge.spec.scope == "host"

    def test_default_probe_samples_peak_rss(self):
        registry = MetricsRegistry(enabled=True)
        registry.inc("replay.decisions", 1.0, sim_time=10.0)
        gauge = registry.gauge("mem.peak_rss_bytes")
        assert gauge.last is not None
        assert gauge.last[1] > 0


class TestRecordsAndExport:
    def filled(self):
        registry = fresh_registry()
        registry.inc("replay.decisions", 2.0, sim_time=10.0)
        registry.inc("replay.decisions", 3.0, sim_time=WINDOW + 1.0)
        registry.set_gauge("replay.controller_load", 4.5, sim_time=30.0)
        registry.observe("replay.candidate_set_size", 2.0, sim_time=30.0)
        registry.observe("replay.candidate_set_size", 40.0, sim_time=30.0)
        return registry

    def test_metric_records_are_canonically_sorted(self):
        records = metric_records(self.filled())
        keys = [(r.name, r.labels, r.window) for r in records]
        assert keys == sorted(keys)
        counter = [r for r in records if r.kind == "counter"]
        assert [(r.window, r.value) for r in counter] == [(0, 2.0), (1, 3.0)]
        assert all(
            r.window_start == r.window * WINDOW for r in records
        )

    def test_rollup_totals_by_scope(self):
        rollup = metrics_rollup(self.filled())
        assert rollup.run_series["replay.decisions"] == {"total": 5.0}
        assert rollup.run_series["replay.controller_load"] == {
            "last": 4.5, "at": 30.0,
        }
        assert rollup.run_series["replay.candidate_set_size"] == {
            "count": 2.0, "sum": 42.0,
        }
        assert rollup.host_series == {}

    def test_prometheus_export_aggregates_and_cumulates(self):
        text = render_prometheus(metric_records(self.filled()))
        assert "# TYPE replay_decisions counter" in text
        assert "replay_decisions_total 5.0" in text
        assert "replay_controller_load 4.5" in text
        # Cumulative buckets: the 2.0 observation reaches every bound
        # >= 2; the 40.0 one only +Inf.
        assert 'replay_candidate_set_size_bucket{le="2.0"} 1' in text
        assert 'replay_candidate_set_size_bucket{le="32.0"} 1' in text
        assert 'replay_candidate_set_size_bucket{le="+Inf"} 2' in text
        assert "replay_candidate_set_size_sum 42.0" in text

    def test_prometheus_per_window_adds_window_label(self):
        text = render_prometheus(
            metric_records(self.filled()), per_window=True
        )
        assert 'replay_decisions_total{window="0"} 2.0' in text
        assert 'replay_decisions_total{window="1"} 3.0' in text

    def test_csv_export_shape(self):
        lines = render_csv(metric_records(self.filled())).splitlines()
        assert lines[0] == "name,kind,scope,labels,window,start,field,value"
        assert "replay.decisions,counter,run,,0,0.0,value,2.0" in lines
        # Per-window histogram rows are raw bucket counts plus sum/count.
        assert any(line.endswith(",le=+Inf,1") for line in lines)
        assert any(line.endswith(",count,2") for line in lines)


class TestReplaySeries:
    @staticmethod
    def run_scoped_lines(workload, plan):
        """One metrics-on replay's run-scoped records, rendered."""
        registry = obs_metrics.get_metrics()
        try:
            registry.reset()
            registry.enabled = True
            ReplayEngine(
                workload.world.layout, LeastLoadedFirst(),
                workload.config.replay, fault_plan=plan,
            ).run(workload.test_demands)
            records = [r for r in metric_records() if r.scope == "run"]
        finally:
            registry.reset()
            registry.enabled = False
        return records, render_journal(records)

    def test_same_seed_replays_record_identical_run_series(
        self, small_workload
    ):
        # Chaos stays armed so the fault counters are part of the check.
        window = window_for(
            small_workload.test_demands, small_workload.config.replay
        )
        plan = generate_plan(
            small_workload.world.layout,
            window.start,
            window.horizon,
            RandomStreams(7),
            ChaosConfig(ap_outages=2, controller_outages=1, stale_reports=2),
        )
        assert not plan.is_empty
        first, first_text = self.run_scoped_lines(small_workload, plan)
        second, second_text = self.run_scoped_lines(small_workload, plan)
        assert first, "the replay recorded no run-scoped metrics?"
        assert second == first
        assert second_text == first_text
        names = {record.name for record in first}
        assert "faults.injected" in names
        assert "replay.decisions" in names
