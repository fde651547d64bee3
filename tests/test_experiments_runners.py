"""Integration tests: every experiment runner produces a well-formed,
qualitatively sane result on the SMALL preset.

The benchmark harness (benchmarks/) asserts the paper's shapes on the full
PAPER preset; here the goal is that each runner executes end-to-end, its
result renders, and its basic structure holds at small scale.
"""

import numpy as np
import pytest

from repro.experiments import (
    fig2_balance,
    fig3_appdyn,
    fig4_userload,
    fig5_coleave,
    fig6_nmi,
    fig7_gap,
    fig8_centroids,
    table1,
    fig10_window,
    fig11_history,
    fig12_compare,
)
from repro.experiments.config import SMALL, TINY
from repro.sim.timeline import MINUTE


@pytest.fixture(scope="module", autouse=True)
def _warm(small_workload, small_model):
    """Materialize the SMALL workload/model once for all runner tests."""


class TestFig2:
    def test_runs_and_renders(self):
        result = fig2_balance.run(SMALL)
        assert result.all_hours.size > 0
        assert result.peak_hours.size > 0
        assert 0.0 <= result.frac_below_half_all <= 1.0
        assert "Fig. 2" in result.render()

    def test_indexes_in_range(self):
        result = fig2_balance.run(SMALL)
        assert np.all(result.all_hours >= 0.0)
        assert np.all(result.all_hours <= 1.0)


class TestFig3:
    def test_runs_with_three_subperiods(self):
        result = fig3_appdyn.run(SMALL)
        assert set(result.variations) == {5 * MINUTE, 10 * MINUTE, 20 * MINUTE}
        assert all(v.size > 0 for v in result.variations.values())
        assert "Fig. 3" in result.render()

    def test_fixed_population_steps_are_small(self):
        result = fig3_appdyn.run(SMALL)
        # The paper's conclusion: most steps tiny.
        assert result.frac_below(10 * MINUTE, 0.05) > 0.5


class TestFig4:
    def test_series_paired_and_correlated(self):
        result = fig4_userload.run(SMALL)
        assert result.times.shape == result.traffic_index.shape
        assert result.times.shape == result.user_index.shape
        assert "correlation" in result.render()
        assert result.correlation > 0.2  # co-movement visible

    def test_explicit_controller_and_day(self, small_workload):
        controller = sorted(small_workload.world.layout.controller_ids)[-1]
        result = fig4_userload.run(SMALL, controller_id=controller, day=3)
        assert result.controller_id == controller
        assert result.day == 3


class TestFig5:
    def test_windows_and_monotonicity(self):
        result = fig5_coleave.run(SMALL)
        medians = [result.median(w) for w in sorted(result.fractions)]
        # Larger windows can only find more co-leavings.
        assert medians == sorted(medians)
        assert all(0 <= m <= 1 for m in medians)

    def test_sociality_present(self):
        result = fig5_coleave.run(SMALL)
        # A socially-driven campus: typical user co-leaves often.
        assert result.median(10 * MINUTE) > 0.2


class TestFig6:
    def test_two_target_days(self):
        result = fig6_nmi.run(SMALL)
        assert len(result.curves) == 2
        for lookbacks, nmi in result.curves.values():
            assert np.all(nmi >= 0) and np.all(nmi <= 1)
            assert nmi[-1] >= nmi[0] - 0.05  # rises (or flat), never crashes
        assert "Fig. 6" in result.render()


class TestFig7:
    def test_gap_selects_planted_k(self):
        result = fig7_gap.run(SMALL, k_max=8, n_references=8)
        assert result.selected_k == 4
        assert "selected k = 4" in result.render()


class TestFig8:
    def test_centroids_distinct_and_pure(self):
        result = fig8_centroids.run(SMALL)
        assert result.centroids.shape == (4, 6)
        assert np.allclose(result.centroids.sum(axis=1), 1.0, atol=1e-6)
        assert len(set(result.dominant_realms)) >= 3
        assert result.purity > 0.75
        assert result.type_sizes.sum() > 0


class TestTable1:
    def test_diagonal_dominance(self):
        result = table1.run(SMALL)
        assert result.affinity.shape == (4, 4)
        assert np.allclose(result.affinity, result.affinity.T, atol=1e-9)
        assert result.diagonal_mean > result.offdiagonal_mean
        assert "Table I" in result.render()


class TestFig10:
    def test_small_sweep_runs(self):
        result = fig10_window.run(
            SMALL, windows_minutes=(1.0, 5.0, 15.0), alphas=(0.3,)
        )
        assert result.balance.shape == (3, 1)
        assert np.all(result.balance > 0)
        assert result.best_window(0.3) in (1.0, 5.0, 15.0)
        assert len(result.graph_quality) == 3
        assert "Fig. 10" in result.render()

    def test_graph_quality_fallback_without_alpha_03(self):
        # When 0.3 is not in the alpha sweep, quality is measured at the
        # first alpha instead of being silently absent.
        result = fig10_window.run(SMALL, windows_minutes=(5.0,), alphas=(0.1,))
        assert len(result.graph_quality) == 1
        assert result.best_f1_window() == 5.0


class TestFig11:
    def test_small_sweep_runs(self):
        result = fig11_history.run(SMALL, history_days=(1, 5, 9), alphas=(0.3,))
        assert result.balance.shape == (3, 1)
        assert result.plateau_day(0.3) in (1, 5, 9)
        assert "Fig. 11" in result.render()

    def test_more_history_does_not_hurt_much(self):
        result = fig11_history.run(SMALL, history_days=(1, 9), alphas=(0.3,))
        assert result.balance[1, 0] >= result.balance[0, 0] - 0.05


class TestFig12:
    def test_comparison_structure(self):
        result = fig12_compare.run(SMALL, include_extra_baselines=False)
        assert set(result.outcomes) == {"llf", "s3"}
        assert 0 <= result.outcomes["llf"].mean_balance <= 1
        assert result.outcomes["s3"].per_controller
        rendered = result.render()
        assert "S3 gain over LLF" in rendered
        assert type(result.errorbar_reduction_percent) is float

    def test_s3_beats_llf_at_small_scale(self):
        result = fig12_compare.run(SMALL, include_extra_baselines=False)
        # The headline shape must already hold at SMALL scale.
        assert result.gain_percent > 0
