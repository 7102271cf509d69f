"""Coupling configs, Kraus operators and outcome probabilities."""

import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from dense_oracle import couplings, dense_tables, evolved

from dmrecon import protocol, qmath, states
from dmrecon.correlations import PAIRS_EXACT_I
from dmrecon.protocol import CouplingConfig

Y = np.array([[0, -1j], [1j, 0]])


class TestCouplingConfig:
    def test_derived_constants(self):
        cfg = CouplingConfig(2, np.pi / 2)
        assert cfg.n_ab == pytest.approx(0.5)
        assert cfg.t == pytest.approx(1.0)
        cfg = CouplingConfig(3, 0.3)
        assert cfg.n_ab == 3 / (4.0 * (math.sin(0.3) * math.sin(0.3)))
        assert cfg.t == math.tan(0.15)

    def test_one_strength_for_both_pointers(self):
        assert [f.name for f in dataclasses.fields(CouplingConfig)] == ["dim", "theta"]
        with pytest.raises(TypeError):
            CouplingConfig(2, 0.5, 0.5)

    def test_range_validation(self):
        # zero, negative, above pi/2, and nonzero but so small that 16 n_ab^2
        # overflows: each rejected with check_theta's own message
        for theta in (0.0, -0.1, 2.0, 1e-100):
            with pytest.raises(ValueError) as want:
                protocol.check_theta(theta)
            with pytest.raises(ValueError, match=re.escape(str(want.value))):
                CouplingConfig(2, theta)
        with pytest.raises(ValueError):
            CouplingConfig(99, 0.5)


# every pointer observable, untilted (id: its name) and tilted
SETTING_CASES = [
    pytest.param(name, tilt, id=name if tilt == 0.0 else f"{name}-tilt{tilt}")
    for tilt in (0.0, 0.03)
    for name in protocol.OBSERVABLE_NAMES
]


class TestPointerSettings:
    @pytest.mark.parametrize("name, tilt", SETTING_CASES)
    def test_projectors_complete_and_idempotent(self, name, tilt):
        eigenvalues, projectors = protocol.pointer_setting(name, tilt)
        assert eigenvalues.shape == (2,) and projectors.shape == (2, 2, 2)
        np.testing.assert_allclose(projectors.sum(axis=0), np.eye(2), atol=1e-12)
        for p in projectors:
            np.testing.assert_allclose(p @ p, p, atol=1e-12)
            np.testing.assert_allclose(p, p.conj().T, atol=1e-12)

    def test_pauli_spectral_decomposition(self):
        for name, op in [("X", np.array([[0, 1], [1, 0]], dtype=complex)), ("Y", Y)]:
            eigenvalues, projectors = protocol.pointer_setting(name)
            rebuilt = np.einsum("i,iab->ab", eigenvalues, projectors)
            np.testing.assert_allclose(rebuilt, op, atol=1e-12)

    def test_pi1_carries_flip_projector_first(self):
        eigenvalues, projectors = protocol.pointer_setting("Pi1")
        assert eigenvalues.tolist() == [1.0, 0.0]
        np.testing.assert_allclose(projectors[0], np.diag([0.0, 1.0]), atol=1e-15)

    def test_unknown_observable(self):
        with pytest.raises(ValueError, match="unknown observable"):
            protocol.pointer_setting("W")


def setting_pairs_of(*pairs, tilt=0.0):
    return tuple((protocol.pointer_setting(a, tilt), protocol.pointer_setting(b, tilt)) for a, b in pairs)


class TestCoupledEvolution:
    def test_kraus_is_the_product_of_the_factors(self):
        # the broadcast product over M^A's diagonal equals the full product of
        # the two pointers' Kraus stacks, M^B_beta M^A_{j alpha}, entry for entry,
        # each pointer's M_0 = 1 - (1 - cos theta) P and M_1 = sin theta P
        def factors(proj, theta):
            m0 = np.eye(proj.shape[-1]) - (1.0 - math.cos(theta)) * proj
            return np.stack([m0, math.sin(theta) * proj], axis=-3)

        for d in range(1, protocol.MAX_DIM + 1):
            for theta in (1e-8, 0.4, 1.3, np.pi / 2):
                kraus_a = factors(np.eye(d)[:, :, None] * np.eye(d), theta)
                kraus_b = factors(np.full((d, d), 1.0 / d), theta)
                want = np.einsum("bkm,jami->jabki", kraus_b, kraus_a)
                got = protocol.kraus_operators(CouplingConfig(d, theta))
                assert np.array_equal(got, want), (d, theta)

    @pytest.mark.parametrize("d", [1, 2, 5, 16])
    def test_evolve_matches_the_batched_product(self, d):
        # K rho as one (4 d^2, d) x (d, d) product is bit-identical to the
        # batched product over every (j, alpha, beta)
        rho = states.random_density(d, 700 + d)
        for theta in (1e-8, 0.05, 0.7, np.pi / 2):
            cfg = CouplingConfig(d, theta)
            kraus = protocol.kraus_operators(cfg)
            want = np.einsum("jabki,jcdki->jabcdk", kraus @ rho.matrix, kraus)
            np.testing.assert_array_equal(protocol.evolve(rho, cfg), want)

    def test_unitarity_random_strengths(self):
        # U_B U_A restricted to the pointers' |00> input is an isometry:
        # its Kraus operators are complete, sum_{alpha beta} K^dagger K = 1
        rng = np.random.default_rng(43)
        for _ in range(10):
            d = int(rng.integers(1, 6))
            cfg = CouplingConfig(d, float(rng.uniform(0.05, np.pi / 2)))
            kraus = protocol.kraus_operators(cfg)
            total = np.einsum("jabki,jabkl->jil", kraus.conj(), kraus)
            np.testing.assert_allclose(total, np.broadcast_to(np.eye(d), (d, d, d)), atol=1e-12)

    def test_couplings_do_not_commute(self):
        cfg = CouplingConfig(2, np.pi / 2)
        u_a, u_b = couplings(1, cfg)
        assert np.linalg.norm(u_b @ u_a - u_a @ u_b, ord=2) > 0.1
        # the protocol's Kraus operators are those of U_B U_A, not of U_A U_B:
        # K_{alpha beta} = (1 (x) <alpha beta|) U (1 (x) |00>)
        kraus = protocol.kraus_operators(cfg)[0]
        a_first = (u_b @ u_a).reshape(2, 2, 2, 2, 2, 2)[:, :, :, :, 0, 0].transpose(1, 2, 0, 3)
        b_first = (u_a @ u_b).reshape(2, 2, 2, 2, 2, 2)[:, :, :, :, 0, 0].transpose(1, 2, 0, 3)
        np.testing.assert_allclose(kraus, a_first, atol=1e-14)
        assert np.max(np.abs(kraus - b_first)) > 0.1

    def test_order_changes_correlations(self):
        # the tables follow U_B U_A (pointer A first) and, on a generic state,
        # differ from those of the swapped order U_A U_B: the couplings do not commute
        rho = states.random_density(2, 2026)
        cfg = CouplingConfig(2, 0.7)
        pairs = (("X", "Y"), ("Y", "Y"), ("Pi1", "X"))
        setting_pairs = setting_pairs_of(*pairs)
        probs = protocol.outcome_probabilities(rho, cfg, pairs)
        a_first = dense_tables(rho, cfg, setting_pairs)
        b_first = dense_tables(rho, cfg, setting_pairs, a_first=False)
        np.testing.assert_allclose(probs, a_first, rtol=0.0, atol=1e-14)
        assert np.max(np.abs(probs - b_first)) > 1e-3


class TestEvolve:
    def test_blocks_match_dense_state(self):
        # blocks[j-1, alpha, beta, gamma, delta, k-1] is the pointer block of the
        # dense sigma_j = U_B U_A (rho (x) |00><00|) (U_B U_A)^dagger at system entry (k, k)
        rng = np.random.default_rng(47)
        for seed in range(4):
            d = int(rng.integers(1, 5))
            rho = states.random_density(d, 200 + seed)
            cfg = CouplingConfig(d, float(rng.uniform(0.05, np.pi / 2)))
            blocks = protocol.evolve(rho, cfg)
            assert blocks.shape == (d, 2, 2, 2, 2, d)
            for j in range(1, d + 1):
                u_a, u_b = couplings(j, cfg)
                sigma = evolved(rho, u_b @ u_a).reshape(d, 2, 2, d, 2, 2)
                dense = np.einsum("kabkcd->abcdk", sigma)
                np.testing.assert_allclose(blocks[j - 1], dense, rtol=0.0, atol=1e-14)

    def test_zero_strength_returns_input(self):
        # the zero-strength limit: at theta = 1e-8 cos(theta) rounds to 1, so
        # the system keeps rho's populations and both pointers stay in |0>,
        # up to flip probabilities of order theta^2 = 1e-16
        rho = states.random_density(3, 1)
        cfg = CouplingConfig(3, 1e-8)
        probs = protocol.outcome_probabilities(rho, cfg, (("Z", "Z"),))
        populations = np.diag(rho.matrix).real
        for j in range(3):
            np.testing.assert_allclose(probs[j, 0].sum(axis=(0, 1)), populations, atol=1e-15)
            np.testing.assert_allclose(probs[j, 0, 0, 0], populations, atol=1e-15)

    def test_output_is_a_state(self):
        # every (j, pair) table is a distribution whose system marginal does
        # not depend on how the pointers are read
        rng = np.random.default_rng(45)
        pairs = (("X", "X"), ("Y", "Pi1"), ("Z", "Y"))
        for seed in range(5):
            d = int(rng.integers(2, 5))
            rho = states.random_density(d, seed)
            cfg = CouplingConfig(d, float(rng.uniform(0.05, np.pi / 2)))
            probs = protocol.outcome_probabilities(rho, cfg, pairs)
            assert probs.shape == (d, 3, 2, 2, d)
            assert probs.min() >= 0.0 and probs.max() <= 1.0
            np.testing.assert_allclose(probs.sum(axis=(2, 3, 4)), 1.0, atol=1e-12)
            marginals = probs.sum(axis=(2, 3))
            np.testing.assert_allclose(marginals, marginals[:, :1].repeat(3, axis=1), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            protocol.evolve(states.maximally_mixed(3), CouplingConfig(2, 0.5))
        with pytest.raises(ValueError, match="dimension"):
            protocol.outcome_probabilities(
                states.maximally_mixed(3), CouplingConfig(2, 0.5), (("X", "X"),)
            )

    def test_system_marginals_consistent(self):
        # the k-marginal of every outcome table equals the direct trace of
        # the dense evolved state against the system projector, whatever the
        # pointer settings
        rho = states.random_density(3, 9)
        cfg = CouplingConfig(3, 0.8)
        u_a, u_b = couplings(2, cfg)
        sigma = evolved(rho, u_b @ u_a)
        direct = []
        for k in range(1, 4):
            pk = np.outer(states.basis_state(3, k), states.basis_state(3, k).conj())
            direct.append(float(np.trace(qmath.tensor(pk, np.eye(4)) @ sigma).real))
        probs = protocol.outcome_probabilities(rho, cfg, (("X", "X"), ("Y", "Pi1"), ("Z", "Z")))
        assert probs.shape == (3, 3, 2, 2, 3)
        for table in probs[1]:
            np.testing.assert_allclose(table.sum(axis=(0, 1)), direct, atol=1e-12)


class TestPointerMeasurement:
    PAIRS = (("X", "Y"), ("Y", "Pi1"), ("Pi1", "X"), ("Z", "Z"))

    @pytest.mark.parametrize("tilt", [0.0, 0.02])
    @pytest.mark.parametrize("theta", [0.3, np.pi / 2])
    @pytest.mark.parametrize("d", [1, 5, 8, 16])
    def test_contraction_matches_dense_oracle(self, d, theta, tilt):
        # one matrix product against the cached pointer measurement gives the
        # tables of the dense 4d x 4d evolution, trace by trace
        rho = states.random_density(d, 300 + d)
        cfg = CouplingConfig(d, theta)
        probs = protocol.outcome_probabilities(rho, cfg, self.PAIRS, tilt)
        dense = dense_tables(rho, cfg, setting_pairs_of(*self.PAIRS, tilt=tilt))
        np.testing.assert_allclose(probs, dense, rtol=0.0, atol=1e-14)

    def test_cached_arrays_are_read_only(self):
        weights, matrix = protocol.pointer_measurement(self.PAIRS, 0.02)
        assert weights.shape == (4, 2, 2) and matrix.shape == (16, 16)
        assert protocol.pointer_measurement(self.PAIRS, 0.02)[1] is matrix
        for arr in (weights, matrix):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0

    @pytest.mark.parametrize("tilt", [0.0, 0.02])
    def test_miss_builds_each_distinct_observable_once(self, tilt):
        # method I's eight pairs name three observables, X, Y and Pi1
        build = mock.Mock(wraps=protocol.pointer_setting)
        with mock.patch.object(protocol, "pointer_setting", build):
            protocol.pointer_measurement.__wrapped__(PAIRS_EXACT_I, tilt)
        assert sorted(c.args for c in build.call_args_list) == [
            ("Pi1", tilt), ("X", tilt), ("Y", tilt)
        ]


class TestOutcomeProbabilities:
    def test_completeness(self):
        rng = np.random.default_rng(46)
        for seed in range(5):
            d = int(rng.integers(2, 5))
            rho = states.random_density(d, 100 + seed)
            cfg = CouplingConfig(d, float(rng.uniform(0.05, np.pi / 2)))
            probs = protocol.outcome_probabilities(rho, cfg, (("X", "Y"), ("Pi1", "Z")))
            np.testing.assert_allclose(probs.sum(axis=(2, 3, 4)), 1.0, atol=1e-10)
            assert probs.min() >= 0.0

    def test_double_flip_probability_maximally_mixed(self):
        # full strength, d=2: prob of both pointers flipped is 1/8 for each j and k
        rho = states.maximally_mixed(2)
        cfg = CouplingConfig(2, np.pi / 2)
        probs = protocol.outcome_probabilities(rho, cfg, (("Pi1", "Pi1"),))
        np.testing.assert_allclose(probs[:, 0, 0, 0], 0.125, atol=1e-12)

    def test_pointers_stay_at_zero_strength(self):
        # the zero-strength limit, theta = 1e-8, as in TestEvolve
        rho = states.random_density(2, 3)
        probs = protocol.outcome_probabilities(rho, CouplingConfig(2, 1e-8), (("Z", "Z"),))
        # all weight on the (+1, +1) Z outcomes, for every j
        np.testing.assert_allclose(probs[:, 0, 0, 0, :].sum(axis=-1), 1.0, atol=1e-12)
