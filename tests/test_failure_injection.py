"""Failure-injection tests: malformed inputs and hostile conditions.

A library is adoptable when its failure modes are loud and early.  These
tests feed every layer the garbage a real deployment would eventually
produce — truncated CSVs, impossible records, buggy strategies, saturated
APs — and assert a clear error (or a documented graceful path), never a
silent wrong answer.
"""

import pytest

from repro.core.selection import APState
from repro.trace.io import read_flows, read_sessions, save_bundle, load_bundle
from repro.trace.records import DemandSession, SessionRecord, TraceBundle
from repro.trace.social import CampusLayout
from repro.wlan.replay import ReplayEngine
from repro.wlan.strategies import LeastLoadedFirst, SelectionStrategy
from tests.selection_oracle import rebuilt


class TestMalformedFiles:
    def test_truncated_session_csv(self, tmp_path):
        path = tmp_path / "sessions.csv"
        path.write_text(
            "user_id,ap_id,controller_id,connect,disconnect,bytes_total\n"
            "u1,ap1,c1,0.0\n"  # missing columns
        )
        with pytest.raises(Exception):
            read_sessions(path)

    def test_non_numeric_timestamps(self, tmp_path):
        path = tmp_path / "sessions.csv"
        path.write_text(
            "user_id,ap_id,controller_id,connect,disconnect,bytes_total\n"
            "u1,ap1,c1,yesterday,tomorrow,12\n"
        )
        with pytest.raises(ValueError):
            read_sessions(path)

    def test_inverted_session_times_rejected_on_load(self, tmp_path):
        path = tmp_path / "sessions.csv"
        path.write_text(
            "user_id,ap_id,controller_id,connect,disconnect,bytes_total\n"
            "u1,ap1,c1,100.0,50.0,12\n"
        )
        with pytest.raises(ValueError):
            read_sessions(path)

    def test_bad_flow_protocol_rejected_on_load(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text(
            "user_id,start,end,src_ip,dst_ip,protocol,src_port,dst_port,bytes_total\n"
            "u1,0.0,1.0,10.0.0.1,8.8.8.8,carrier-pigeon,1000,80,5\n"
        )
        with pytest.raises(ValueError):
            read_flows(path)

    def test_empty_directory_loads_empty_bundle(self, tmp_path):
        bundle = load_bundle(tmp_path)
        assert len(bundle.sessions) == 0
        assert len(bundle.demands) == 0


class TestHostileReplayInputs:
    def _layout(self):
        return CampusLayout.grid(1, 2)

    def test_demand_for_unknown_building_raises(self):
        demand = DemandSession("u", "atlantis", 0.0, 10.0, (1.0,) * 6)
        with pytest.raises(KeyError):
            ReplayEngine(self._layout(), LeastLoadedFirst()).run([demand])

    def test_strategy_returning_foreign_ap_raises(self):
        class Hostile(SelectionStrategy):
            name = "hostile"

            def select(self, user_id, aps, rssi=None):
                return "ap-of-another-network"

            def assign_batch(self, user_ids, aps, rssi_by_user=None):
                return {user: "ap-of-another-network" for user in user_ids}

        demand = DemandSession("u", "B00", 0.0, 10.0, (1.0,) * 6)
        with pytest.raises(Exception):
            ReplayEngine(self._layout(), Hostile()).run([demand])

    def test_strategy_dropping_users_from_batch_raises(self):
        class Forgetful(SelectionStrategy):
            name = "forgetful"

            def select(self, user_id, aps, rssi=None):
                return aps[0].ap_id

            def assign_batch(self, user_ids, aps, rssi_by_user=None):
                return {}  # loses everyone

        demand = DemandSession("u", "B00", 0.0, 10.0, (1.0,) * 6)
        with pytest.raises(RuntimeError):
            ReplayEngine(self._layout(), Forgetful()).run([demand])

    def test_saturating_demand_still_serves_everyone(self):
        """Demands far beyond total AP bandwidth: nobody is rejected (the
        paper's model has no admission control), the replay completes and
        records every session."""
        layout = CampusLayout.grid(1, 2, ap_bandwidth=1000.0)
        demands = [
            DemandSession(
                f"u{i}", "B00", 0.0, 3600.0, (1e9 / 6,) * 6
            )
            for i in range(10)
        ]
        result = ReplayEngine(layout, LeastLoadedFirst()).run(demands)
        assert len(result.sessions) == 10

    def test_zero_length_everything(self):
        result = ReplayEngine(self._layout(), LeastLoadedFirst()).run([])
        assert result.sessions == []
        assert result.mean_balance() == 1.0


class TestHostileSelectorInputs:
    def test_ap_state_requires_positive_bandwidth(self):
        with pytest.raises(ValueError):
            APState("ap", bandwidth=0.0, load=0.0)

    def test_selector_survives_unknown_users(self, tiny_model):
        selector = tiny_model.selector()
        states = rebuilt(
            selector.social, [APState("a", 1e9, 0.0), APState("b", 1e9, 0.0)]
        )
        # A MAC address never seen in training must still be assignable.
        assert selector.select("brand-new-device", states) in ("a", "b")
        placement = selector.assign_batch(
            ["ghost-1", "ghost-2", "ghost-3"], states
        )
        assert sorted(placement) == ["ghost-1", "ghost-2", "ghost-3"]

    def test_round_trip_of_adversarial_ids(self, tmp_path):
        """User ids containing CSV-hostile characters survive the save/load
        path unmangled (csv quoting must handle them)."""
        weird = 'user,with"quotes\tand tabs'
        bundle = TraceBundle(
            sessions=[SessionRecord(weird, "ap1", "c1", 0.0, 1.0, 0.0)]
        )
        save_bundle(tmp_path / "t", bundle)
        loaded = load_bundle(tmp_path / "t")
        assert loaded.sessions[0].user_id == weird
