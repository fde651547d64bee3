"""End-to-end tests of the workflow CLI."""

import pickle

import pytest

from repro.cli import main, make_strategy
from repro.trace.io import load_bundle, read_layout
from tests.selection_oracle import rebuilt


class TestMakeStrategy:
    def test_known_strategies(self):
        for name in ("llf", "llf-users", "rssi", "random", "cell-breathing", "best-headroom"):
            strategy = make_strategy(name)
            assert strategy.name in (name, "llf", "llf-users")

    def test_s3_requires_model(self):
        with pytest.raises(SystemExit):
            make_strategy("s3", model=None)

    def test_unknown_rejected(self):
        with pytest.raises(SystemExit):
            make_strategy("quantum")


class TestWorkflow:
    @pytest.fixture(scope="class")
    def workspace(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli")
        trace = root / "trace"
        collected = root / "collected"
        model = root / "model.pkl"
        assert main([
            "generate", "--out", str(trace), "--preset", "tiny", "--days", "8",
            "--seed", "3",
        ]) == 0
        assert main([
            "collect", "--trace", str(trace), "--out", str(collected),
            "--train-days", "6",
        ]) == 0
        assert main([
            "train", "--trace", str(collected), "--model", str(model),
        ]) == 0
        return root, trace, collected, model

    def test_generate_outputs(self, workspace):
        _, trace, _, _ = workspace
        bundle = load_bundle(trace)
        assert len(bundle.demands) > 0
        assert len(bundle.flows) > 0
        layout = read_layout(trace / "layout.json")
        assert len(layout.aps) == 3

    def test_collect_outputs_trainable_bundle(self, workspace):
        _, _, collected, _ = workspace
        bundle = load_bundle(collected)
        assert len(bundle.sessions) > 0
        assert len(bundle.flows) > 0
        # Sessions restricted to the training span.
        assert max(s.disconnect for s in bundle.sessions) <= 6 * 86400 + 1

    def test_model_unpickles_and_serves(self, workspace):
        _, _, _, model_path = workspace
        with open(model_path, "rb") as handle:
            model = pickle.load(handle)
        assert model.types.k == 4
        from repro.core.selection import APState

        selector = model.selector()
        choice = selector.select(
            "anyone",
            rebuilt(
                selector.social, [APState("x", 1e9, 0.0), APState("y", 1e9, 0.0)]
            ),
        )
        assert choice in ("x", "y")

    def test_evaluate_runs(self, workspace, capsys):
        root, trace, _, model_path = workspace
        assert main([
            "evaluate", "--trace", str(trace), "--model", str(model_path),
            "--from-day", "6", "--strategies", "llf", "s3",
        ]) == 0
        output = capsys.readouterr().out
        assert "llf" in output
        assert "s3" in output

    def test_evaluate_without_demands_fails(self, workspace):
        _, trace, _, _ = workspace
        with pytest.raises(SystemExit):
            main(["evaluate", "--trace", str(trace), "--from-day", "99"])


class TestLayoutRoundTrip:
    def test_layout_json_round_trip(self, tmp_path, tiny_workload):
        from repro.trace.io import read_layout, write_layout

        path = tmp_path / "layout.json"
        write_layout(path, tiny_workload.world.layout)
        loaded = read_layout(path)
        original = tiny_workload.world.layout
        assert set(loaded.aps) == set(original.aps)
        assert set(loaded.buildings) == set(original.buildings)
        for ap_id, ap in loaded.aps.items():
            assert ap.bandwidth == original.aps[ap_id].bandwidth
            assert ap.position == tuple(original.aps[ap_id].position)
