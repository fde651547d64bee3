"""Tests for the trace-driven replay engine."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro import perf
from repro.analysis.balance import normalized_balance_index
from repro.core.selection import CostIndex
from repro.experiments import fig12_compare
from repro.experiments.config import TINY
from repro.faults import ControllerOutage, FaultPlan, targeted_ap_outage
from repro.trace.records import DemandSession, TraceBundle
from repro.trace.social import CampusLayout
from repro.sim.rng import observe_streams
from repro.wlan.replay import (
    ReplayConfig,
    ReplayEngine,
    StationRssi,
    collect_trace,
    demand_constants,
)
from repro.wlan.strategies import LeastLoadedFirst, S3Strategy, StrongestSignal
from tests.selection_oracle import rebuilt


def demand(user, t0, t1, building="B00", volume=600.0, group=None):
    return DemandSession(user, building, t0, t1, tuple([volume / 6] * 6), group)


@pytest.fixture
def layout():
    return CampusLayout.grid(1, 3)


class TestReplayBasics:
    def test_every_demand_becomes_a_session(self, layout):
        demands = [demand(f"u{i}", 10.0 * i, 1000.0 + i) for i in range(5)]
        result = ReplayEngine(layout, LeastLoadedFirst()).run(demands)
        assert len(result.sessions) == 5
        assert result.strategy_name == "llf"

    def test_session_times_and_bytes_match_demand(self, layout):
        demands = [demand("u1", 100.0, 2000.0, volume=1200.0)]
        result = ReplayEngine(layout, LeastLoadedFirst()).run(demands)
        session = result.sessions[0]
        assert session.connect == 100.0
        assert session.disconnect == 2000.0
        assert session.bytes_total == pytest.approx(1200.0)
        assert session.controller_id == "ctrl-B00"

    def test_empty_demands(self, layout):
        result = ReplayEngine(layout, LeastLoadedFirst()).run([])
        assert result.sessions == []
        assert result.series == {}

    def test_overlapping_demand_for_same_user_dropped(self, layout):
        demands = [
            demand("u1", 0.0, 1000.0),
            demand("u1", 500.0, 800.0),  # second radio link impossible
        ]
        result = ReplayEngine(layout, LeastLoadedFirst()).run(demands)
        assert len(result.sessions) == 1

    def test_deterministic(self, layout):
        demands = [demand(f"u{i}", 5.0 * i, 500.0 + i) for i in range(20)]
        a = ReplayEngine(layout, LeastLoadedFirst()).run(demands)
        b = ReplayEngine(layout, LeastLoadedFirst()).run(demands)
        assert [(s.user_id, s.ap_id) for s in a.sessions] == [
            (s.user_id, s.ap_id) for s in b.sessions
        ]

    def test_unknown_building_raises(self, layout):
        with pytest.raises(KeyError):
            ReplayEngine(layout, LeastLoadedFirst()).run(
                [demand("u", 0.0, 10.0, building="nope")]
            )


class TestLoadDynamics:
    def test_llf_spreads_simultaneous_heavy_users(self, layout):
        # Users arriving in the same batch tie on (stale) load; the fresh
        # association-count tie-break must spread them.
        demands = [demand(f"u{i}", 0.0, 10000.0, volume=6e6) for i in range(6)]
        result = ReplayEngine(layout, LeastLoadedFirst()).run(demands)
        per_ap = {}
        for session in result.sessions:
            per_ap[session.ap_id] = per_ap.get(session.ap_id, 0) + 1
        assert max(per_ap.values()) == 2

    def test_stale_load_measurement_visible_to_strategy(self, layout):
        # With a long measurement interval, sequential arrivals all see
        # zero load; the count tie-break still spreads them, so we assert
        # on the *measured* series instead: samples lag the truth.
        config = ReplayConfig(
            batch_window=0.0, sample_interval=10.0, load_measurement_interval=1e6
        )
        demands = [demand("u1", 0.0, 500.0)]
        result = ReplayEngine(layout, LeastLoadedFirst(), config).run(demands)
        series = result.series["ctrl-B00"]
        # The metrics series records the true load.
        assert series.loads.sum() > 0

    def test_departures_release_load(self, layout):
        config = ReplayConfig(sample_interval=100.0, batch_window=0.0)
        demands = [demand("u1", 0.0, 150.0, volume=1500.0)]
        result = ReplayEngine(layout, LeastLoadedFirst(), config).run(demands)
        series = result.series["ctrl-B00"]
        # First sample (t=0? no, first at arrival+interval) ... find one
        # sample during and one after the session.
        during = series.loads[series.times <= 150.0]
        after = series.loads[series.times > 160.0]
        assert during.sum() > 0
        assert after.sum() == 0


class TestBatching:
    def test_batch_window_groups_coarrivals_for_s3(self, layout, tiny_model):
        from repro.wlan.strategies import S3Strategy

        users = sorted(tiny_model.types.assignments)[:4]
        demands = [demand(u, 10.0 + i, 5000.0 + i) for i, u in enumerate(users)]
        config = ReplayConfig(batch_window=60.0)
        strategy = S3Strategy(tiny_model.selector())
        result = ReplayEngine(layout, strategy, config).run(demands)
        assert len(result.sessions) == 4

    def test_zero_batch_window_still_works(self, layout):
        config = ReplayConfig(batch_window=0.0)
        demands = [demand(f"u{i}", 0.0, 100.0) for i in range(3)]
        result = ReplayEngine(layout, LeastLoadedFirst(), config).run(demands)
        assert len(result.sessions) == 3

    def test_short_session_within_batch_window(self, layout):
        # Session shorter than the batch window must still be recorded
        # with its true (demand) times.
        config = ReplayConfig(batch_window=60.0)
        demands = [demand("u1", 0.0, 10.0)]
        result = ReplayEngine(layout, LeastLoadedFirst(), config).run(demands)
        assert len(result.sessions) == 1
        assert result.sessions[0].disconnect == 10.0


class TestMetricsSeries:
    def test_series_shape(self, layout):
        config = ReplayConfig(sample_interval=50.0)
        demands = [demand("u1", 0.0, 400.0)]
        result = ReplayEngine(layout, LeastLoadedFirst(), config).run(demands)
        series = result.series["ctrl-B00"]
        assert series.loads.shape[1] == 3  # three APs
        assert series.times.shape[0] == series.loads.shape[0]
        assert series.user_counts.max() == 1

    def test_balance_series_matches_loads(self, layout):
        config = ReplayConfig(sample_interval=50.0)
        demands = [demand("u1", 0.0, 400.0), demand("u2", 0.0, 400.0)]
        result = ReplayEngine(layout, LeastLoadedFirst(), config).run(demands)
        series = result.series["ctrl-B00"]
        betas = series.balance_series()
        for row, beta in zip(series.loads, betas):
            assert beta == pytest.approx(normalized_balance_index(row))

    def test_mean_balance_bounds(self, layout):
        demands = [demand(f"u{i}", 0.0, 1000.0) for i in range(6)]
        result = ReplayEngine(layout, LeastLoadedFirst()).run(demands)
        assert 0.0 <= result.mean_balance() <= 1.0


class TestCollectTrace:
    def test_collected_bundle_carries_flows_and_demands(self, layout):
        demands = [demand("u1", 0.0, 100.0)]
        source = TraceBundle(demands=demands)
        collected = collect_trace(layout, source, LeastLoadedFirst())
        assert len(collected.sessions) == 1
        assert collected.demands == source.demands

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReplayConfig(batch_window=-1.0)
        with pytest.raises(ValueError):
            ReplayConfig(sample_interval=0.0)
        with pytest.raises(ValueError):
            ReplayConfig(load_measurement_interval=0.0)


class TestStrategiesUnderReplay:
    def test_rssi_strategy_prefers_nearby_ap(self, layout):
        # Not a strict invariant per-user (positions random), but across
        # many users RSSI must produce a valid assignment on every AP id.
        demands = [demand(f"u{i}", 5.0 * i, 2000.0 + i) for i in range(30)]
        result = ReplayEngine(layout, StrongestSignal()).run(demands)
        assert len(result.sessions) == 30
        assert {s.ap_id for s in result.sessions} <= set(layout.aps)


def _placements(result):
    return [(s.user_id, s.ap_id, s.connect, s.disconnect) for s in result.sessions]


class TestRadioDraws:
    def _demands(self):
        buildings = ("B00", "B01", "B02")
        return [
            demand(f"u{i}", 7.0 * i, 1500.0 + 3 * i, building=buildings[i % 3])
            for i in range(60)
        ]

    def test_rerun_on_one_engine_reproduces_the_first_run(self):
        layout = CampusLayout.grid(3, 3)
        engine = ReplayEngine(layout, StrongestSignal())
        first = engine.run(self._demands())
        second = engine.run(self._demands())
        fresh = ReplayEngine(layout, StrongestSignal()).run(self._demands())
        assert _placements(second) == _placements(first) == _placements(fresh)
        assert sorted(second.series) == sorted(first.series)
        for controller_id, series in first.series.items():
            again = second.series[controller_id]
            assert again.loads.tobytes() == series.loads.tobytes()
            assert again.user_counts.tobytes() == series.user_counts.tobytes()

    def test_replay_that_reads_no_rssi_draws_no_radio_stream(self):
        layout = CampusLayout.grid(3, 3)
        derived = []
        with observe_streams(lambda kind, name: derived.append(name)):
            ReplayEngine(layout, LeastLoadedFirst()).run(self._demands())
        assert not [name for name in derived if name.startswith("radio-")]
        with observe_streams(lambda kind, name: derived.append(name)):
            ReplayEngine(layout, StrongestSignal()).run(self._demands())
        assert [name for name in derived if name.startswith("radio-")]

    def test_strategy_that_declares_no_rssi_read_gets_no_radio_view(self):
        layout = CampusLayout.grid(3, 3)

        class Recording(LeastLoadedFirst):
            def __init__(self, reads_rssi):
                super().__init__()
                self.reads_rssi = reads_rssi
                self.handed = []

            def select(self, user_id, aps, rssi=None):
                self.handed.append(rssi)
                return super().select(user_id, aps, rssi=rssi)

        blind, reading = Recording(False), Recording(True)
        first = ReplayEngine(layout, blind).run(self._demands())
        second = ReplayEngine(layout, reading).run(self._demands())
        assert _placements(first) == _placements(second)
        assert blind.handed and all(rssi is None for rssi in blind.handed)
        assert all(isinstance(rssi, StationRssi) for rssi in reading.handed)
        assert not LeastLoadedFirst().reads_rssi
        assert StrongestSignal().reads_rssi

    def test_controller_outage_still_steers_a_blind_strategy_by_signal(self):
        layout = CampusLayout.grid(1, 3)
        demands = [demand(f"u{i}", 100.0 + i, 3000.0) for i in range(6)]
        plan = FaultPlan(
            (ControllerOutage(time=100.0, controller_id="ctrl-B00", duration=500.0),)
        )
        outage = ReplayEngine(layout, LeastLoadedFirst(), fault_plan=plan).run(demands)
        rssi = ReplayEngine(layout, StrongestSignal()).run(demands)
        assert _placements(outage) == _placements(rssi)

    def test_station_rssi_draws_once_on_first_read(self):
        draws = []

        def draw():
            draws.append(1)
            return {"ap-b": -60.0, "ap-a": -50.0}

        rssi = StationRssi(draw)
        assert draws == []
        assert rssi["ap-a"] == -50.0
        assert dict(rssi) == {"ap-b": -60.0, "ap-a": -50.0}
        assert len(rssi) == 2 and bool(rssi)
        assert draws == [1]


class TestBoundedMemory:
    """A finished run leaves no reference cycle: reference counting frees
    its session log, sampler rows, campus and radio factories with it,
    not the next full collection."""

    @pytest.mark.parametrize("strategy", ["llf", "rssi", "s3", "llf-outage"])
    def test_finished_run_leaves_no_cyclic_garbage(
        self, tiny_workload, tiny_model, strategy
    ):
        layout = tiny_workload.world.layout
        demands = tiny_workload.test_demands
        config = tiny_workload.config.replay
        plan = None
        if strategy == "llf-outage":
            # An AP outage evicts its residents; a controller outage
            # steers a blind strategy by signal.
            ap_id = sorted(layout.aps)[0]
            start = demands[len(demands) // 2].arrival
            plan = FaultPlan(
                targeted_ap_outage(ap_id, start, 3600.0).events
                + (
                    ControllerOutage(
                        time=start,
                        controller_id=layout.controller_of_ap(ap_id),
                        duration=600.0,
                    ),
                )
            )
        chosen = {
            "llf": LeastLoadedFirst,
            "llf-outage": LeastLoadedFirst,
            "rssi": StrongestSignal,
            "s3": lambda: S3Strategy(tiny_model.selector()),
        }[strategy]()
        engine = ReplayEngine(layout, chosen, config, fault_plan=plan)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            result = engine.run(demands)
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert result.sessions
        assert garbage == []


class _RebuildCheckedS3(S3Strategy):
    """S³ that checks every live cost row against a rebuilt index."""

    checked = 0

    def _check(self, user_ids, aps):
        oracle = rebuilt(self.social, aps)
        for user in user_ids:
            assert aps.costs(user) == oracle.costs(user), user
        self.checked += len(user_ids)

    def select(self, user_id, aps, rssi=None):
        self._check([user_id], aps)
        return super().select(user_id, aps, rssi=rssi)

    def assign_batch(self, user_ids, aps, rssi_by_user=None):
        self._check(user_ids, aps)
        return super().assign_batch(user_ids, aps, rssi_by_user=rssi_by_user)


class TestLiveCostIndex:
    """Each replay domain keeps one live cost index, and reads from it
    what a rebuild from the snapshots would."""

    def test_tiny_fig12_builds_one_cost_index_per_s3_domain(
        self, monkeypatch, tiny_workload
    ):
        built = []
        original = CostIndex.__init__

        def counting(index, social, residents):
            built.append(len(residents))
            original(index, social, residents)

        monkeypatch.setattr(CostIndex, "__init__", counting)
        fig12_compare.run(TINY)
        # One S³ run in the pass; the baselines keep no index.
        controllers = tiny_workload.world.layout.controller_ids
        assert len(built) == len(controllers) >= 1

    @pytest.mark.parametrize("outage", [False, True])
    def test_live_rows_equal_rebuilt_rows(self, tiny_workload, tiny_model, outage):
        layout = tiny_workload.world.layout
        demands = tiny_workload.test_demands
        config = tiny_workload.config.replay
        plan = None
        if outage:
            # The AP of the longest session goes down mid-session for an
            # hour: its residents are evicted and re-arrive in one batch.
            plain = ReplayEngine(layout, S3Strategy(tiny_model.selector()), config)
            longest = max(
                plain.run(demands).sessions, key=lambda s: s.disconnect - s.connect
            )
            start = (longest.connect + longest.disconnect) / 2
            plan = targeted_ap_outage(longest.ap_id, start, 3600.0)
        strategy = _RebuildCheckedS3(tiny_model.selector())
        perf.reset()
        result = ReplayEngine(layout, strategy, config, fault_plan=plan).run(demands)
        assert strategy.checked >= len(result.sessions) > 40
        evicted = perf.snapshot().counters.get("faults.evicted_users", 0.0)
        assert (evicted > 0) == outage


_VOLUME = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(
    arrival=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
    dwell=st.one_of(
        st.just(0.0), st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
    ),
    volumes=st.lists(_VOLUME, min_size=6, max_size=6),
)
def test_demand_constants_equal_the_demand_properties(arrival, dwell, volumes):
    session = DemandSession("u", "B00", arrival, arrival + dwell, tuple(volumes))
    total, rate = demand_constants(session)
    assert (total, type(total)) == (session.bytes_total, type(session.bytes_total))
    assert (rate, type(rate)) == (session.mean_rate, type(session.mean_rate))
