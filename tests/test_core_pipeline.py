"""Tests for the end-to-end S³ training pipeline."""

import pytest

from repro.core.pipeline import S3Model, TrainingConfig, train_s3
from repro.trace.records import TraceBundle
from tests.selection_oracle import rebuilt


class TestTrainingConfig:
    def test_paper_defaults(self):
        config = TrainingConfig()
        assert config.coleave_window == 5 * 60.0
        assert config.alpha == 0.3
        assert config.lookback_days == 15
        assert config.k == 4
        assert config.selection.edge_threshold == 0.3
        assert config.selection.top_fraction == 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(coleave_window=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(lookback_days=0)
        with pytest.raises(ValueError):
            TrainingConfig(alpha=-1.0)


class TestTrainS3:
    def test_requires_sessions_and_flows(self, tiny_workload):
        with pytest.raises(ValueError):
            train_s3(TraceBundle(flows=tiny_workload.collected.flows))
        with pytest.raises(ValueError):
            train_s3(TraceBundle(sessions=tiny_workload.collected.sessions))

    def test_trained_model_structure(self, tiny_model, tiny_workload):
        assert isinstance(tiny_model, S3Model)
        assert tiny_model.types.k == 4
        # Most campus users should be typed (everyone with traffic).
        assert len(tiny_model.types.assignments) > 0.8 * len(
            tiny_workload.world.users
        )
        assert tiny_model.social.known_pairs() > 0
        assert tiny_model.demand.known_users

    def test_selector_is_usable(self, tiny_model):
        from repro.core.selection import APState

        selector = tiny_model.selector()
        users = sorted(tiny_model.types.assignments)[:2]
        choice = selector.select(
            users[0],
            rebuilt(
                selector.social, [APState("x", 1e9, 0.0), APState("y", 1e9, 0.0)]
            ),
        )
        assert choice in ("x", "y")

    def test_deterministic_training(self, tiny_workload):
        a = train_s3(tiny_workload.collected)
        b = train_s3(tiny_workload.collected)
        assert a.types.assignments == b.types.assignments
        assert a.social.known_pairs() == b.social.known_pairs()
        users = sorted(a.types.assignments)[:10]
        for i, u in enumerate(users):
            for v in users[i + 1:]:
                assert a.social.social_index(u, v) == pytest.approx(
                    b.social.social_index(u, v)
                )

    def test_summary_renders(self, tiny_model):
        text = tiny_model.summary()
        assert "types=4" in text
        assert "alpha=0.3" in text

    def test_alpha_propagates(self, tiny_workload):
        model = train_s3(tiny_workload.collected, TrainingConfig(alpha=0.5))
        assert model.social.alpha == 0.5

    def test_k_none_uses_gap_selection(self, tiny_workload):
        model = train_s3(tiny_workload.collected, TrainingConfig(k=None))
        assert model.types.k >= 2
