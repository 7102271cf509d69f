"""Error aggregation, the theoretical floor, and comparisons against a reference."""

import math
import re

import numpy as np
import pytest

from dmrecon import metrics, states
from dmrecon.correlations import (
    PAIRS_EXACT_I,
    PAIRS_WEAK,
    correlation_set,
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
        with pytest.raises(ValueError):
            mean_square_error(np.array([[-1.0, np.nan], [0.0, 0.0]]))


# alpha(d) of error_lower_bound's docstring in closed form, nan where no floor exists
_ALPHA_W_I = {2: 0.5, 4: 3 / np.sqrt(2), 5: np.sqrt(10), 16: 15 * np.sqrt(2)}
_ALPHA_II = {2: np.nan, 4: np.nan, 5: np.sqrt(5), 16: 12 * np.sqrt(5)}
FLOOR_CASES = [
    *((m, d, alpha) for m in ("W", "I") for d, alpha in _ALPHA_W_I.items()),
    *(("II", d, alpha) for d, alpha in _ALPHA_II.items()),
    *(("QST", d, np.nan) for d in _ALPHA_II),
]


class TestErrorLowerBound:
    @pytest.mark.parametrize(
        "method, d, alpha", FLOOR_CASES, ids=[f"{m}-d{d}" for m, d, _ in FLOOR_CASES]
    )
    def test_floor_table(self, method, d, alpha):
        bound = error_lower_bound(method, d, 0.5, 100)
        assert type(bound) is float
        assert bound == pytest.approx(alpha / (0.5**2 * np.sqrt(100)), nan_ok=True)

    def test_quadratic_strength_scaling(self):
        full = error_lower_bound("W", 2, 0.4, 1000)
        half = error_lower_bound("W", 2, 0.2, 1000)
        assert half == pytest.approx(4 * full)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method 'X'"):
            error_lower_bound("X", 2, 0.3, 100)

    @pytest.mark.parametrize("method", ["W", "II", "QST"])
    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, 0.0])
    def test_rejects_theta_that_is_not_finite_and_positive(self, method, theta):
        with pytest.raises(ValueError, match=re.escape(f"got theta={theta!r}, n=100")):
            error_lower_bound(method, 4, theta, 100)

    @pytest.mark.parametrize("method", ["W", "II", "QST"])
    @pytest.mark.parametrize("d", [0, -3])
    def test_rejects_dimension_below_one(self, method, d):
        with pytest.raises(ValueError, match=re.escape(f"need d >= 1, got d={d}")):
            error_lower_bound(method, d, 0.3, 100)


class TestCompare:
    def test_exact_reconstruction_summary(self):
        rho = states.random_density(3, 40)
        cfg = CouplingConfig(3, 0.8)
        result = reconstruct_exact_i(correlation_set(rho, cfg, PAIRS_EXACT_I))
        t_dist, delta_rho = compare(result.finalized, result.element_errors, rho.matrix)
        assert isinstance(t_dist, np.ndarray) and t_dist.shape == ()
        assert t_dist < 1e-10
        assert delta_rho == 0.0

    def test_reference_against_itself(self):
        rho = states.random_density(2, 41)
        cfg = CouplingConfig(2, 0.8)
        result = reconstruct_exact_i(correlation_set(rho, cfg, PAIRS_EXACT_I))
        t_dist, _ = compare(result.finalized, result.element_errors, result.finalized)
        assert t_dist == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        rho = states.random_density(2, 41)
        cfg = CouplingConfig(2, 0.8)
        result = reconstruct_exact_i(correlation_set(rho, cfg, PAIRS_EXACT_I))
        with pytest.raises(ValueError, match="mismatch"):
            compare(result.finalized, result.element_errors, np.eye(3) / 3)

    def test_stacked_result_per_slice(self):
        # a stack over two leading axes, against one reference or one per slice
        rho = states.random_density(2, 41)
        cfg = CouplingConfig(2, 0.8)
        sets = [correlation_set(rho, cfg, PAIRS_EXACT_I, 500, root_seed=s) for s in range(6)]
        result = reconstruct_exact_i(stack_sets(sets))
        finalized = result.finalized.reshape(2, 3, 2, 2)
        errors = result.element_errors.reshape(2, 3, 2, 2)
        t_dist, delta_rho = compare(finalized, errors, rho.matrix)
        assert t_dist.shape == delta_rho.shape == (2, 3)
        for s, one in enumerate(sets):
            single = reconstruct_exact_i(one)
            want = compare(single.finalized, single.element_errors, rho.matrix)
            assert (t_dist.flat[s], delta_rho.flat[s]) == want
        references = np.broadcast_to(rho.matrix, finalized.shape)
        np.testing.assert_array_equal(compare(finalized, errors, references)[0], t_dist)

    def test_degenerate_estimate_and_nan_reference(self):
        # an all-nan estimate reads distance nan and delta_rho inf; a nan
        # reference only loses the distance
        errors = np.full((3, 2, 2), 0.1)
        finalized = np.stack([np.full((2, 2), np.nan), np.eye(2) / 2, np.eye(2) / 2])
        reference = np.stack([np.eye(2) / 2, np.full((2, 2), np.nan), np.diag([1.0, 0.0])])
        t_dist, delta_rho = compare(finalized, errors, reference)
        np.testing.assert_array_equal(t_dist, [np.nan, np.nan, 0.5])
        np.testing.assert_array_equal(delta_rho, [np.inf, 0.2, 0.2])

    def test_sampled_error_exceeds_floor_every_seed(self):
        # theta = 0.1, n = 1e4, d = 2: per-seed propagated error vs the floor
        rho = states.pure_state(states.b0_state(2))
        cfg = CouplingConfig(2, 0.1)
        floor = error_lower_bound("W", 2, 0.1, 10**4)
        sets = [
            correlation_set(rho, cfg, PAIRS_WEAK, 10**4, root_seed=seed)
            for seed in range(50)
        ]
        result = reconstruct_weak(stack_sets(sets))
        _, delta_rho = compare(result.finalized, result.element_errors, rho.matrix)
        assert delta_rho.shape == (50,)
        assert np.all(delta_rho >= 0.9 * floor)


def _delta_rho(result, rho):
    """Propagated error of a reconstruction, inf where it has no state estimate."""
    return float(compare(result.finalized, result.element_errors, rho.matrix)[1])


class TestStatisticalScaling:
    def _weak_delta_rhos(self, rho, theta, n, seeds):
        cfg = CouplingConfig(2, theta)
        out = []
        for seed in seeds:
            correls = correlation_set(rho, cfg, PAIRS_WEAK, n, root_seed=seed)
            out.append(_delta_rho(reconstruct_weak(correls), rho))
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
            floor = error_lower_bound("W", 2, theta, 10**4)
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
                cfg = CouplingConfig(2, theta)
                vals = []
                for seed in range(20):
                    correls = correlation_set(rho, cfg, pairs, 10**4, root_seed=seed)
                    vals.append(_delta_rho(rebuild(correls), rho))
                meds[theta] = float(np.median(vals))
            assert meds[np.pi / 2] < meds[0.1], f"method {method}"


class TestEnsembleCrossCheck:
    def test_propagation_matches_ensemble_spread(self):
        rho = states.pure_state(states.b0_state(2))
        cfg = CouplingConfig(2, 0.4)
        sets = [
            correlation_set(rho, cfg, PAIRS_WEAK, 10**4, root_seed=seed)
            for seed in range(60)
        ]
        result = reconstruct_weak(stack_sets(sets))
        propagated = mean_square_error(result.element_errors)
        ens = ensemble_delta_rho(result.finalized)
        assert float(np.mean(propagated)) == pytest.approx(ens, rel=0.3)

    def test_needs_two_matrices(self):
        for shape in ((1, 2, 2), (2, 2), (3, 1, 2, 2)):
            with pytest.raises(ValueError, match="S >= 2"):
                ensemble_delta_rho(np.zeros(shape))
