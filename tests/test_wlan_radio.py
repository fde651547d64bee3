"""Tests for the log-distance RSSI model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.trace.social import CampusLayout
from repro.wlan.radio import (
    SENSITIVITY_FLOOR_DBM,
    path_loss_rssi,
    rssi_map,
    sample_position,
    strongest_ap,
)


class TestPathLoss:
    def test_monotone_decreasing_with_distance(self):
        rssi = [path_loss_rssi(d) for d in (1, 5, 20, 80)]
        assert rssi == sorted(rssi, reverse=True)

    def test_reference_point(self):
        # At 1 m: tx 20 dBm - 40 dB reference loss.
        assert path_loss_rssi(1.0) == pytest.approx(-20.0)

    def test_distance_below_reference_clamped(self):
        assert path_loss_rssi(0.1) == path_loss_rssi(1.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            path_loss_rssi(-1.0)

    def test_shadowing_shifts_rssi(self):
        assert path_loss_rssi(10.0, shadowing_db=5.0) == pytest.approx(
            path_loss_rssi(10.0) + 5.0
        )

    @given(st.floats(min_value=0.0, max_value=10000.0, allow_nan=False))
    def test_rssi_below_tx_power(self, distance):
        assert path_loss_rssi(distance) <= 20.0


class TestRssiMap:
    @pytest.fixture
    def layout(self):
        return CampusLayout.grid(1, 4)

    def test_nearest_ap_strongest(self, layout):
        aps = list(layout.aps.values())
        position = aps[0].position
        rssi = rssi_map(position, aps)
        assert strongest_ap(rssi) == aps[0].ap_id

    def test_far_aps_dropped_below_floor(self, layout):
        aps = list(layout.aps.values())
        rssi = rssi_map((1e6, 1e6), aps)
        assert rssi == {}

    def test_all_in_building_visible(self, layout):
        building = next(iter(layout.buildings.values()))
        rssi = rssi_map(building.position, layout.aps_of_building(building.building_id))
        assert len(rssi) == 4
        assert all(v >= SENSITIVITY_FLOOR_DBM for v in rssi.values())

    def test_shadowing_deterministic_with_seed(self, layout):
        aps = list(layout.aps.values())
        a = rssi_map((0, 0), aps, rng=np.random.default_rng(5), shadowing_sigma_db=4.0)
        b = rssi_map((0, 0), aps, rng=np.random.default_rng(5), shadowing_sigma_db=4.0)
        assert a == b

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_aps=st.integers(0, 12),
        sigma=st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=12.0)),
        spread=st.floats(min_value=0.5, max_value=400.0),
    )
    def test_map_equals_one_scalar_draw_per_ap(self, seed, n_aps, sigma, spread):
        layout = CampusLayout.grid(1, max(n_aps, 1))
        aps = list(layout.aps.values())[:n_aps]
        points = np.random.default_rng(seed ^ 0x5EED).uniform(-spread, spread, size=2)
        position = (float(points[0]), float(points[1]))
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = {}
        for ap in aps:
            distance = float(np.hypot(position[0] - ap.position[0], position[1] - ap.position[1]))
            shadow = float(scalar.normal(0.0, sigma)) if sigma > 0 else 0.0
            loss = 40.0 + 10.0 * 3.0 * np.log10(max(distance, 1.0) / 1.0)
            rssi = float(20.0 - loss + shadow)
            if rssi >= SENSITIVITY_FLOOR_DBM:
                expected[ap.ap_id] = rssi
        got = rssi_map(position, aps, rng=batched, shadowing_sigma_db=sigma)
        assert {k: v.hex() for k, v in got.items()} == {
            k: v.hex() for k, v in expected.items()
        }
        assert batched.random() == scalar.random()

    def test_strongest_of_empty_rejected(self):
        with pytest.raises(ValueError):
            strongest_ap({})


class TestSamplePosition:
    def test_within_radius(self):
        layout = CampusLayout.grid(1, 2)
        building = next(iter(layout.buildings.values()))
        rng = np.random.default_rng(0)
        for _ in range(200):
            x, y = sample_position(building, rng, radius=45.0)
            distance = np.hypot(x - building.position[0], y - building.position[1])
            assert distance <= 45.0 + 1e-9

    def test_radius_validation(self):
        layout = CampusLayout.grid(1, 2)
        building = next(iter(layout.buildings.values()))
        with pytest.raises(ValueError):
            sample_position(building, np.random.default_rng(0), radius=0.0)

    def test_positions_spread_over_disc(self):
        layout = CampusLayout.grid(1, 2)
        building = next(iter(layout.buildings.values()))
        rng = np.random.default_rng(1)
        points = np.array(
            [sample_position(building, rng, radius=40.0) for _ in range(300)]
        )
        # area-uniform: mean radius ~ 2/3 * R
        radii = np.hypot(
            points[:, 0] - building.position[0], points[:, 1] - building.position[1]
        )
        assert 0.55 * 40 < radii.mean() < 0.75 * 40
