"""Estimator assembly, finalization, and the tomography reference."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmrecon import qmath, states
from dmrecon.correlations import (
    PAIRS_EXACT_I,
    PAIRS_EXACT_II,
    PAIRS_WEAK,
    correlation_set,
)
from dmrecon.protocol import CouplingConfig
from dmrecon.reconstruct import (
    born_probabilities,
    finalize,
    qst_least_squares,
    qst_linear_inversion,
    reconstruct_exact_i,
    reconstruct_exact_ii,
    reconstruct_weak,
    standard_projector_family,
)


def distance_to(result, rho):
    return qmath.trace_distance(result.finalized, rho.matrix)


class TestWeakEstimator:
    def test_accurate_in_weak_limit(self):
        rho = states.random_density(3, 21)
        cfg = CouplingConfig(3, 0.01)
        result = reconstruct_weak(correlation_set(rho, cfg, PAIRS_WEAK))
        assert distance_to(result, rho) < 1e-3

    def test_bias_shrinks_quadratically(self):
        # halving theta cuts the residual distance by ~4x; assert the
        # regression bound factor 0.6
        rho = states.random_density(3, 17)
        dists = []
        for theta in (0.2, 0.1, 0.05):
            cfg = CouplingConfig(3, theta)
            result = reconstruct_weak(correlation_set(rho, cfg, PAIRS_WEAK))
            dists.append(distance_to(result, rho))
        assert dists[1] <= 0.6 * dists[0]
        assert dists[2] <= 0.6 * dists[1]

    def test_full_strength_bias_on_diagonal_state(self):
        # |D><D| at theta = pi/2: raw weak matrix is 0.25 * [[-1, 1], [1, -1]],
        # which finalizes to the orthogonal state |A><A| at trace distance 1
        rho = states.pure_state(states.b0_state(2))
        cfg = CouplingConfig(2, np.pi / 2)
        result = reconstruct_weak(correlation_set(rho, cfg, PAIRS_WEAK))
        np.testing.assert_allclose(
            result.raw, 0.25 * np.array([[-1, 1], [1, -1]]), atol=1e-12
        )
        assert distance_to(result, rho) == pytest.approx(1.0, abs=1e-10)
        assert distance_to(result, rho) > 0.05

    def test_maximally_mixed_off_diagonals(self):
        # closed forms give (c_B - 1) c_A rho_jj / d off the diagonal: nonzero
        # at intermediate strength, zero at full strength
        rho = states.maximally_mixed(2)
        cfg = CouplingConfig(2, 0.5)
        result = reconstruct_weak(correlation_set(rho, cfg, PAIRS_WEAK))
        expected = (np.cos(0.5) - 1) * np.cos(0.5) * 0.5 / 2
        assert result.raw[0, 1].real == pytest.approx(expected, abs=1e-12)

    def test_maximally_mixed_full_strength_degenerates(self):
        # at theta = pi/2 every weak combination vanishes for 1/2: the raw
        # matrix is exactly zero and has no state estimate, so it finalizes all nan
        rho = states.maximally_mixed(2)
        cfg = CouplingConfig(2, np.pi / 2)
        correls = correlation_set(rho, cfg, PAIRS_WEAK)
        combo = cfg.n_ab * (correls.column(("X", "X"))[0] - correls.column(("Y", "Y"))[0])
        np.testing.assert_allclose(combo, 0.0, atol=1e-12)
        assert np.isnan(reconstruct_weak(correls).finalized).all()

    def test_missing_correlation_named(self):
        rho = states.maximally_mixed(2)
        cfg = CouplingConfig(2, 0.5)
        with pytest.raises(ValueError, match="missing correlation <X_A X_B>"):
            reconstruct_weak(correlation_set(rho, cfg, PAIRS_EXACT_II))


class TestExactEstimators:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("theta", [0.2, np.pi / 4, np.pi / 2])
    def test_method_i_exact_at_any_strength(self, d, theta):
        rho = states.random_density(d, 100 * d)
        cfg = CouplingConfig(d, theta)
        result = reconstruct_exact_i(correlation_set(rho, cfg, PAIRS_EXACT_I))
        assert distance_to(result, rho) < 1e-10

    def test_method_ii_exact_d5(self):
        rho = states.random_density(5, 55)
        cfg = CouplingConfig(5, np.pi / 4)
        result = reconstruct_exact_ii(correlation_set(rho, cfg, PAIRS_EXACT_II))
        assert distance_to(result, rho) < 1e-10

    def test_method_ii_diagonal_chain(self):
        # maximally mixed, full strength: 16 n_ab^2 <Pi1 Pi1> = 16 * 0.25 * 0.125
        rho = states.maximally_mixed(2)
        cfg = CouplingConfig(2, np.pi / 2)
        result = reconstruct_exact_ii(correlation_set(rho, cfg, PAIRS_EXACT_II))
        assert result.raw[0, 0].real == pytest.approx(0.5, abs=1e-12)

    def test_method_ii_off_diagonals_vanish_for_diagonal_state(self):
        rho = states.DensityMatrix(np.diag([0.7, 0.2, 0.1]).astype(complex))
        cfg = CouplingConfig(3, 0.9)
        result = reconstruct_exact_ii(correlation_set(rho, cfg, PAIRS_EXACT_II))
        off = result.raw - np.diag(np.diag(result.raw))
        assert np.max(np.abs(off)) < 1e-10

    def test_estimators_agree_on_exact_correlations(self):
        rho = states.random_density(4, 91)
        cfg = CouplingConfig(4, 0.7)
        correls = correlation_set(rho, cfg, PAIRS_EXACT_I)
        r_i = reconstruct_exact_i(correls)
        r_ii = reconstruct_exact_ii(correls)
        assert (
            qmath.trace_distance(r_i.finalized, r_ii.finalized) < 1e-9
        )

    def test_corrections_vanish_with_strength(self):
        rho = states.random_density(3, 17)
        prev = None
        for theta in (0.2, 0.1, 0.05):
            cfg = CouplingConfig(3, theta)
            correls = correlation_set(rho, cfg, PAIRS_EXACT_I)
            gap = np.max(
                np.abs(reconstruct_exact_i(correls).raw - reconstruct_weak(correls).raw)
            )
            if prev is not None:
                assert gap < 0.5 * prev
            prev = gap
        assert prev < 1e-3

    def test_sampled_full_strength_accuracy(self):
        # Monte Carlo regression: T < 0.05 in at least 95 of 100 seeds
        rho = states.pure_state(states.b0_state(2))
        cfg = CouplingConfig(2, np.pi / 2)
        good = 0
        for seed in range(100):
            correls = correlation_set(rho, cfg, PAIRS_EXACT_I, 10**4, root_seed=seed)
            result = reconstruct_exact_i(correls)
            if distance_to(result, rho) < 0.05:
                good += 1
        assert good >= 95

    def test_sampled_diagonal_pools_every_outcome(self):
        # the double-flip value is outcome-independent, so the sampled
        # diagonal averages the per-k estimates instead of picking one
        rho = states.random_density(3, 14)
        cfg = CouplingConfig(3, 1.0)
        correls = correlation_set(rho, cfg, PAIRS_EXACT_II, 5000, root_seed=7)
        result = reconstruct_exact_ii(correls)
        n = cfg.n_ab
        pooled = correls.column(("Pi1", "Pi1"))[0].mean(axis=1)
        np.testing.assert_allclose(np.diag(result.raw).real, 16 * n * n * pooled)

    def test_dimension_mismatch_rejected(self):
        # a set cannot carry a config of another d, so no estimator reads one
        rho = states.random_density(2, 5)
        correls = correlation_set(rho, CouplingConfig(2, 0.8), PAIRS_EXACT_I)
        with pytest.raises(ValueError, match="correlations are for d=2, config has d=3"):
            replace(correls, cfg=CouplingConfig(3, 0.8))

    def test_element_errors_zero_for_exact_sources(self):
        rho = states.random_density(2, 5)
        cfg = CouplingConfig(2, 0.8)
        correls = correlation_set(rho, cfg, PAIRS_EXACT_I)
        for rebuild in (reconstruct_weak, reconstruct_exact_i, reconstruct_exact_ii):
            assert np.all(rebuild(correls).element_errors == 0.0)

    def test_element_errors_positive_for_sampled(self):
        rho = states.random_density(2, 5)
        cfg = CouplingConfig(2, 0.8)
        correls = correlation_set(rho, cfg, PAIRS_EXACT_I, 2000, root_seed=1)
        result = reconstruct_exact_i(correls)
        assert np.all(result.element_errors >= 0.0)
        assert result.element_errors.max() > 0.0


class TestFinalize:
    def test_unit_trace_hermitian_unchanged(self):
        rho = states.random_density(3, 2)
        np.testing.assert_allclose(finalize(rho.matrix), rho.matrix, atol=1e-14)

    def test_trace_two_halved(self):
        m = np.eye(2, dtype=complex)
        np.testing.assert_allclose(finalize(m), np.eye(2) / 2, atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(19)
        raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        once = finalize(raw)
        twice = finalize(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_negative_eigenvalue_kept(self):
        # positivity is not enforced: a unit-trace raw matrix comes back as it is
        raw = np.diag([1.5, -0.5]).astype(complex)
        np.testing.assert_array_equal(finalize(raw), raw)

    def test_bias_survives_finalization(self):
        rho = states.pure_state(states.b0_state(2))
        cfg = CouplingConfig(2, np.pi / 2)
        result = reconstruct_weak(correlation_set(rho, cfg, PAIRS_WEAK))
        assert qmath.trace_distance(result.finalized, rho.matrix) > 0.05

    def test_near_zero_trace_rejected(self):
        # no state estimate: all nan, alone or as one slice of a stack
        degenerate = np.array([[1e-12, 1.0], [0.0, -1e-12]], dtype=complex)
        assert np.isnan(finalize(degenerate)).all()
        stack = finalize(np.stack([degenerate, np.eye(2)]))
        assert np.isnan(stack[0]).all()
        np.testing.assert_array_equal(stack[1], np.eye(2) / 2)

    def test_hermitian_part_of_sampled_raw(self):
        rho = states.random_density(2, 8)
        cfg = CouplingConfig(2, 0.6)
        correls = correlation_set(rho, cfg, PAIRS_WEAK, 500, root_seed=4)
        final = reconstruct_weak(correls).finalized
        assert np.max(np.abs(final - final.conj().T)) < 1e-15


def _qubit_vector(m):
    """The d = 2 family vector [a1, a2, +_12, i_12] (H, V, D, L) of a 2x2 matrix."""
    return [m[0, 0].real, m[1, 1].real, 0.5 + m[0, 1].real, 0.5 - m[0, 1].imag]


class TestQstLinearInversion:
    def test_h_state(self):
        result = qst_linear_inversion([1.0, 0.0, 0.5, 0.5], 2)
        np.testing.assert_allclose(result.finalized, np.diag([1.0, 0.0]), atol=1e-12)

    def test_d_state(self):
        result = qst_linear_inversion([0.5, 0.5, 1.0, 0.5], 2)
        np.testing.assert_allclose(result.finalized, np.full((2, 2), 0.5), atol=1e-12)

    def test_recovers_random_qubits_exactly(self):
        for seed in range(20):
            rho = states.random_density(2, seed)
            result = qst_linear_inversion(_qubit_vector(rho.matrix), 2)
            assert distance_to(result, rho) < 1e-12

    def test_qubit_probabilities_from_born_rule(self):
        # end to end: probabilities computed from the H, V, D, L kets, which
        # are the d = 2 family in its order
        rho = states.random_density(2, 33)
        probs = [
            float(np.vdot(v, rho.matrix @ v).real)
            for v in (states.named_ket(lbl, 2) for lbl in ("H", "V", "D", "L"))
        ]
        result = qst_linear_inversion(probs, 2)
        assert distance_to(result, rho) < 1e-12

    def test_general_d_family_recovers_states(self):
        for d in (3, 4):
            rho = states.random_density(d, 10 + d)
            family = standard_projector_family(d)
            probs = born_probabilities(rho, family)
            assert distance_to(qst_linear_inversion(probs, d), rho) < 1e-10
            assert distance_to(qst_least_squares(family, probs), rho) < 1e-10

    def test_family_size_and_rank(self):
        # d^2 unit kets whose projectors |v><v| are linearly independent
        for d in (2, 3, 5):
            kets = standard_projector_family(d)
            assert kets.shape == (d * d, d)
            np.testing.assert_allclose(np.linalg.norm(kets, axis=1), 1.0, rtol=0, atol=1e-15)
            projs = np.einsum("pa,pb->pab", kets, kets.conj())
            assert np.linalg.matrix_rank(projs.reshape(d * d, -1)) == d * d

    def test_rank_deficient_rejected(self):
        # four copies of |a_1>: enough kets, one projector
        a1 = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError, match="rank-deficient"):
            qst_least_squares([a1] * 4, [1.0] * 4)

    def test_missing_qubit_label_rejected(self):
        # dropping one of H, V, D, L leaves a vector the closed form cannot read
        with pytest.raises(ValueError, match="d=2 needs 4 probabilities"):
            qst_linear_inversion([1.0, 0.0, 0.5], 2)


class TestStandardFamilyClosedForm:
    """The closed-form inverse against the least-squares path as oracle."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 8), seed=st.integers(0, 2**31 - 1))
    def test_matches_least_squares_on_born_vectors(self, d, seed):
        rho = states.random_density(d, seed)
        family = standard_projector_family(d)
        probs = born_probabilities(rho, family)
        closed = qst_linear_inversion(probs, d)
        oracle = qst_least_squares(family, probs)
        assert np.max(np.abs(closed.raw - oracle.raw)) <= 1e-12
        assert distance_to(closed, rho) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 8),
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 10_000),
        spread=st.floats(0.0, 1.0),
    )
    def test_matches_least_squares_on_arbitrary_vectors(self, d, seed, n, spread):
        # Sampled and perturbed vectors need not be Born vectors of any state;
        # the inverse is still unique, so both paths must agree.
        rng = np.random.Generator(np.random.Philox(seed))
        family = standard_projector_family(d)
        exact = born_probabilities(states.random_density(d, seed), family)
        sampled = rng.binomial(n, np.clip(exact, 0.0, 1.0)) / n
        perturbed = exact + rng.uniform(-spread, spread, size=exact.size)
        for probs in (sampled, perturbed):
            closed = qst_linear_inversion(probs, d)
            oracle = qst_least_squares(family, probs)
            assert np.max(np.abs(closed.raw - oracle.raw)) <= 1e-12
            np.testing.assert_array_equal(np.isnan(closed.finalized), np.isnan(oracle.finalized))

    def test_born_probabilities_match_trace_loop(self):
        rng = np.random.Generator(np.random.Philox(17))
        for d in range(1, 9):
            rho = states.random_density(d, 40 + d)
            extra = rng.normal(size=(5, d)) + 1j * rng.normal(size=(5, d))
            extra /= np.linalg.norm(extra, axis=1, keepdims=True)
            kets = np.concatenate([standard_projector_family(d), extra])
            projs = [np.outer(v, v.conj()) for v in kets]
            loop = np.array([float(np.trace(p @ rho.matrix).real) for p in projs])
            np.testing.assert_allclose(born_probabilities(rho, kets), loop, rtol=0, atol=1e-15)

    def test_family_order_matches_documented_kets(self):
        d = 4
        eye = np.eye(d)
        upper = [(j, k) for j in range(d) for k in range(j + 1, d)]
        kets = list(eye)
        kets += [(eye[j] + eye[k]) / np.sqrt(2) for j, k in upper]
        kets += [(eye[j] + 1j * eye[k]) / np.sqrt(2) for j, k in upper]
        np.testing.assert_array_equal(standard_projector_family(d), np.stack(kets))

    def test_missing_and_unknown_labels_named(self):
        # too few, too many or wrongly shaped probabilities: the error names
        # the d^2 the family needs and the shape it got
        for shape in ((8,), (10,), (3, 3)):
            want = re.escape(f"d=3 needs 9 probabilities, got shape {shape}")
            with pytest.raises(ValueError, match=want):
                qst_linear_inversion(np.full(shape, 0.1), 3)
