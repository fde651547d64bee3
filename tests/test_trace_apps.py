"""Unit tests for application realms, port tables and traffic models."""

import numpy as np
import pytest

from repro.trace.apps import (
    APPLICATIONS,
    AppRealm,
    N_REALMS,
    REALMS,
    TrafficModel,
    VolumeModel,
    applications_for_realm,
    port_table,
)


class TestRealms:
    def test_six_realms_in_paper_order(self):
        assert N_REALMS == 6
        assert [r.label for r in REALMS] == [
            "IM", "P2P", "music", "email", "video", "browsing",
        ]

    def test_every_realm_has_applications(self):
        for realm in REALMS:
            assert applications_for_realm(realm), realm

    def test_port_table_covers_all_applications(self):
        table = port_table()
        for app in APPLICATIONS:
            for port in app.ports:
                assert table[(app.protocol, port)] == app.realm

    def test_port_table_has_no_conflicts(self):
        # port_table raises internally on conflicts; building it is the test
        table = port_table()
        assert len(table) >= len(APPLICATIONS)


class TestVolumeModel:
    def test_sample_scales_with_duration(self):
        model = VolumeModel(median_bytes=1e6, sigma=0.5)
        rng = np.random.default_rng(0)
        short = model.sample(rng, hours=1.0, n=400).mean()
        rng = np.random.default_rng(0)
        long = model.sample(rng, hours=4.0, n=400).mean()
        assert long == pytest.approx(4 * short, rel=1e-9)

    def test_negative_duration_rejected(self):
        model = VolumeModel(median_bytes=1e6, sigma=0.5)
        with pytest.raises(ValueError):
            model.sample(np.random.default_rng(0), hours=-1.0)

    def test_nan_duration_rejected(self):
        model = VolumeModel(median_bytes=1e6, sigma=0.5)
        with pytest.raises(ValueError, match="NaN duration"):
            model.sample(np.random.default_rng(0), hours=float("nan"))

    def test_samples_positive(self):
        model = VolumeModel(median_bytes=1e6, sigma=1.0)
        draws = model.sample(np.random.default_rng(1), hours=2.0, n=100)
        assert np.all(draws > 0)


class TestTrafficModel:
    def test_default_covers_all_realms(self):
        model = TrafficModel()
        for realm in REALMS:
            assert model.volume(realm).median_bytes > 0

    def test_missing_realm_rejected(self):
        partial = {AppRealm.IM: VolumeModel(1e6, 0.5)}
        with pytest.raises(ValueError):
            TrafficModel(partial)

    def test_session_volumes_follow_interest(self):
        model = TrafficModel()
        rng = np.random.default_rng(0)
        # All interest on video: only video volume non-zero.
        weights = [0, 0, 0, 0, 1.0, 0]
        volumes = model.sample_session_volumes(rng, weights, 3600.0)
        assert volumes[AppRealm.VIDEO] > 0
        assert volumes.sum() == pytest.approx(volumes[AppRealm.VIDEO])

    def test_session_volumes_shape_checked(self):
        model = TrafficModel()
        with pytest.raises(ValueError):
            model.sample_session_volumes(np.random.default_rng(0), [1, 2], 60.0)

    def test_negative_weights_rejected(self):
        model = TrafficModel()
        with pytest.raises(ValueError, match="non-negative"):
            model.sample_session_volumes(
                np.random.default_rng(0), [-1.0, 0, 0, 0, 0, 0], 60.0
            )

    def test_nan_weights_rejected(self):
        model = TrafficModel()
        with pytest.raises(ValueError, match="non-negative"):
            model.sample_session_volumes(
                np.random.default_rng(0), [float("nan"), 0, 0, 0, 0, 0], 60.0
            )

    def test_session_negative_duration_rejected(self):
        model = TrafficModel()
        with pytest.raises(ValueError, match="negative duration"):
            model.sample_session_volumes(np.random.default_rng(0), [1.0] * 6, -1.0)

    def test_session_nan_duration_rejected(self):
        model = TrafficModel()
        with pytest.raises(ValueError, match="NaN duration"):
            model.sample_session_volumes(
                np.random.default_rng(0), [1.0] * 6, float("nan")
            )

    def test_interest_bias_visible_in_expectation(self):
        model = TrafficModel()
        rng = np.random.default_rng(7)
        video_heavy = np.array([0.05, 0.05, 0.05, 0.05, 0.75, 0.05])
        totals = np.zeros(N_REALMS)
        for _ in range(200):
            totals += model.sample_session_volumes(rng, video_heavy, 3600.0)
        assert np.argmax(totals) == AppRealm.VIDEO
