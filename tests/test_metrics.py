"""Error aggregation, the theoretical floor, and comparison summaries."""

import numpy as np
import pytest

from dmrecon import metrics, states
from dmrecon.correlations import (
    PAIRS_EXACT_I,
    PAIRS_WEAK,
    exact_correlation_set,
    sampled_correlation_set,
    stack_sets,
)
from dmrecon.metrics import compare, ensemble_delta_rho, error_lower_bound, mean_square_error
from dmrecon.protocol import CouplingConfig
from dmrecon.reconstruct import reconstruct_exact_i, reconstruct_weak


class TestMeanSquareError:
    def test_zero_matrix(self):
        assert mean_square_error(np.zeros((3, 3))) == 0.0

    def test_single_entry(self):
        e = np.zeros((2, 2))
        e[0, 1] = 0.3
        assert mean_square_error(e) == pytest.approx(0.3)

    def test_uniform_matrix(self):
        assert mean_square_error(np.full((2, 2), 0.1)) == pytest.approx(0.2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            mean_square_error(np.array([[-0.1]]))


class TestErrorLowerBound:
    def test_alpha_weak_d2(self):
        b = error_lower_bound("W", 2, 0.5, 100)
        assert b.alpha == pytest.approx(0.5)
        assert b.bound == pytest.approx(0.5 / (0.5**2 * 10))

    def test_method_i_shares_alpha(self):
        assert error_lower_bound("I", 3, 0.2, 50).alpha == pytest.approx(
            error_lower_bound("W", 3, 0.2, 50).alpha
        )

    def test_quadratic_strength_scaling(self):
        full = error_lower_bound("W", 2, 0.4, 1000).bound
        half = error_lower_bound("W", 2, 0.2, 1000).bound
        assert half == pytest.approx(4 * full)

    def test_method_ii_d5(self):
        b = error_lower_bound("II", 5, 0.3, 100)
        assert b.alpha == pytest.approx(np.sqrt(20) / 2)
        assert metrics.has_error_floor("II", 5)

    def test_method_ii_rejects_small_d(self):
        for d in (2, 3, 4):
            assert not metrics.has_error_floor("II", d)
            assert metrics.has_error_floor("W", d) and metrics.has_error_floor("I", d)
            with pytest.raises(ValueError, match="radicand"):
                error_lower_bound("II", d, 0.3, 100)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            error_lower_bound("QST", 2, 0.3, 100)

    def test_bound_recomputed_from_fields(self):
        b = error_lower_bound("W", 4, 0.7, 1234)
        assert b.bound == pytest.approx(b.alpha / (b.theta**2 * np.sqrt(b.n)))


class TestCompare:
    def test_exact_reconstruction_summary(self):
        rho = states.random_density(3, 40)
        cfg = CouplingConfig(3, 0.8, 0.8)
        result = reconstruct_exact_i(exact_correlation_set(rho, cfg, PAIRS_EXACT_I), cfg)
        summary = compare(result, rho)
        assert summary.trace_distance < 1e-10
        assert summary.delta_rho == 0.0
        assert summary.method == "I"
        assert summary.purity_reconstructed == pytest.approx(summary.purity_reference, abs=1e-9)

    def test_reference_against_itself(self):
        rho = states.random_density(2, 41)
        cfg = CouplingConfig(2, 0.8, 0.8)
        result = reconstruct_exact_i(exact_correlation_set(rho, cfg, PAIRS_EXACT_I), cfg)
        assert compare(result, result.finalized).trace_distance == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        rho = states.random_density(2, 41)
        cfg = CouplingConfig(2, 0.8, 0.8)
        result = reconstruct_exact_i(exact_correlation_set(rho, cfg, PAIRS_EXACT_I), cfg)
        with pytest.raises(ValueError, match="mismatch"):
            compare(result, states.maximally_mixed(3))

    def test_rejects_stacked_result(self):
        rho = states.random_density(2, 41)
        cfg = CouplingConfig(2, 0.8, 0.8)
        correls = exact_correlation_set(rho, cfg, PAIRS_EXACT_I)
        result = reconstruct_exact_i(stack_sets([correls, correls]), cfg)
        with pytest.raises(ValueError, match="stacked"):
            compare(result, rho)

    def test_sampled_error_exceeds_floor_every_seed(self):
        # theta = 0.1, n = 1e4, d = 2: per-seed propagated error vs the floor
        rho = states.pure_state(states.b0_state(2))
        cfg = CouplingConfig(2, 0.1, 0.1)
        floor = error_lower_bound("W", 2, 0.1, 10**4).bound
        for seed in range(50):
            correls = sampled_correlation_set(rho, cfg, PAIRS_WEAK, 10**4, root_seed=seed)
            summary = compare(reconstruct_weak(correls, cfg), rho)
            assert summary.delta_rho >= 0.9 * floor


class TestStatisticalScaling:
    def _weak_delta_rhos(self, rho, theta, n, seeds):
        cfg = CouplingConfig(2, theta, theta)
        out = []
        for seed in seeds:
            correls = sampled_correlation_set(rho, cfg, PAIRS_WEAK, n, root_seed=seed)
            try:
                out.append(mean_square_error(reconstruct_weak(correls, cfg).element_errors))
            except ValueError:
                out.append(float("inf"))  # raw trace lost in the noise
        return out

    def test_event_count_scaling(self):
        # slope of log(delta rho) vs log(N) is -0.5 +/- 0.1
        rho = states.pure_state(states.b0_state(2))
        ns = [10**3, 10**4, 10**5]
        medians = [float(np.median(self._weak_delta_rhos(rho, 0.2, n, range(20)))) for n in ns]
        slope = np.polyfit(np.log(ns), np.log(medians), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_strength_scaling(self):
        # slope of log(delta rho) vs log(theta) is -2 +/- 0.3
        rho = states.pure_state(states.b0_state(2))
        thetas = [0.05, 0.1, 0.2]
        medians = [
            float(np.median(self._weak_delta_rhos(rho, t, 10**4, range(20)))) for t in thetas
        ]
        slope = np.polyfit(np.log(thetas), np.log(medians), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.3)

    def test_tracks_floor_within_calibrated_factor(self):
        # Monte Carlo calibration: the median error sits between the floor
        # and 2.1x the floor for theta <= 0.3
        rho = states.pure_state(states.b0_state(2))
        for theta in (0.1, 0.2, 0.3):
            med = float(np.median(self._weak_delta_rhos(rho, theta, 10**4, range(20))))
            floor = error_lower_bound("W", 2, theta, 10**4).bound
            assert 0.9 * floor <= med <= 2.1 * floor

    def test_doubling_events_shrinks_error_by_sqrt2(self):
        rho = states.pure_state(states.b0_state(2))
        med_n = float(np.median(self._weak_delta_rhos(rho, 0.3, 10**4, range(30))))
        med_2n = float(np.median(self._weak_delta_rhos(rho, 0.3, 2 * 10**4, range(30))))
        assert med_n / med_2n == pytest.approx(np.sqrt(2), rel=0.15)

    def test_strong_coupling_beats_weak_for_every_method(self):
        from dmrecon.correlations import PAIRS_EXACT_II
        from dmrecon.reconstruct import reconstruct_exact_ii

        rho = states.pure_state(states.b0_state(2))
        cases = [
            ("W", PAIRS_WEAK, reconstruct_weak),
            ("I", PAIRS_EXACT_I, reconstruct_exact_i),
            ("II", PAIRS_EXACT_II, reconstruct_exact_ii),
        ]
        for method, pairs, rebuild in cases:
            meds = {}
            for theta in (0.1, np.pi / 2):
                cfg = CouplingConfig(2, theta, theta)
                vals = []
                for seed in range(20):
                    correls = sampled_correlation_set(rho, cfg, pairs, 10**4, root_seed=seed)
                    try:
                        vals.append(mean_square_error(rebuild(correls, cfg).element_errors))
                    except ValueError:
                        vals.append(float("inf"))  # no normalizable estimate
                meds[theta] = float(np.median(vals))
            assert meds[np.pi / 2] < meds[0.1], f"method {method}"


class TestEnsembleCrossCheck:
    def test_propagation_matches_ensemble_spread(self):
        rho = states.pure_state(states.b0_state(2))
        cfg = CouplingConfig(2, 0.4, 0.4)
        mats, propagated = [], []
        for seed in range(60):
            correls = sampled_correlation_set(rho, cfg, PAIRS_WEAK, 10**4, root_seed=seed)
            result = reconstruct_weak(correls, cfg)
            mats.append(result.finalized.matrix)
            propagated.append(mean_square_error(result.element_errors))
        ens = ensemble_delta_rho(mats)
        assert float(np.mean(propagated)) == pytest.approx(ens, rel=0.3)

    def test_needs_two_matrices(self):
        with pytest.raises(ValueError):
            ensemble_delta_rho([np.eye(2)])
