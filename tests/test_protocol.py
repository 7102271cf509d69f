"""Coupling unitaries, evolution and outcome probabilities."""

import numpy as np
import pytest

from dmrecon import protocol, qmath, states
from dmrecon.protocol import CouplingConfig

Y = np.array([[0, -1j], [1j, 0]])


def random_projector(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


class TestCouplingConfig:
    def test_derived_constants(self):
        cfg = CouplingConfig(2, np.pi / 2, np.pi / 2)
        assert cfg.n_ab == pytest.approx(0.5)
        assert cfg.t_a == pytest.approx(1.0)
        assert cfg.t_b == pytest.approx(1.0)

    def test_asymmetric_strengths(self):
        cfg = CouplingConfig(3, 0.3, 0.7)
        assert cfg.n_ab == pytest.approx(3 / (4 * np.sin(0.3) * np.sin(0.7)))

    def test_zero_theta_allowed_but_normalization_rejected(self):
        cfg = CouplingConfig(2, 0.0, 0.5)
        with pytest.raises(ValueError, match="singular"):
            cfg.n_ab

    def test_range_validation(self):
        with pytest.raises(ValueError):
            CouplingConfig(2, -0.1, 0.5)
        with pytest.raises(ValueError):
            CouplingConfig(2, 0.5, 2.0)
        with pytest.raises(ValueError):
            CouplingConfig(99, 0.5, 0.5)


class TestPointerSettings:
    @pytest.mark.parametrize("name", ["X", "Y", "Z", "Pi1"])
    def test_projectors_complete_and_idempotent(self, name):
        setting = protocol.pointer_setting(name)
        total = sum(p for _, p in setting.projectors)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-12)
        for _, p in setting.projectors:
            np.testing.assert_allclose(p @ p, p, atol=1e-12)

    def test_pauli_spectral_decomposition(self):
        for name, op in [("X", np.array([[0, 1], [1, 0]], dtype=complex)), ("Y", Y)]:
            setting = protocol.pointer_setting(name)
            rebuilt = sum(eig * p for eig, p in setting.projectors)
            np.testing.assert_allclose(rebuilt, op, atol=1e-12)

    def test_pi1_carries_flip_projector_first(self):
        setting = protocol.pointer_setting("Pi1")
        eig0, p0 = setting.projectors[0]
        assert eig0 == 1.0
        np.testing.assert_allclose(p0, np.diag([0.0, 1.0]), atol=1e-15)
        assert setting.projectors[1][0] == 0.0

    def test_unknown_observable(self):
        with pytest.raises(ValueError, match="unknown observable"):
            protocol.pointer_setting("W")


class TestCouplingUnitary:
    def test_zero_strength_is_identity(self):
        proj = np.diag([1.0, 0.0]).astype(complex)
        np.testing.assert_allclose(protocol.coupling_unitary(proj, 0.0), np.eye(4), atol=1e-15)

    def test_full_strength_flips_pointer(self):
        # theta = pi/2 on the coupled component: |a1>|0> -> |a1>|1>
        proj = np.diag([1.0, 0.0]).astype(complex)
        u = protocol.coupling_unitary(proj, np.pi / 2)
        vec_in = np.kron([1, 0], [1, 0]).astype(complex)
        vec_out = u @ vec_in
        np.testing.assert_allclose(vec_out, np.kron([1, 0], [0, 1]), atol=1e-12)

    def test_matches_exponential_oracle(self):
        rng = np.random.default_rng(41)
        proj = random_projector(rng, 2)
        u = protocol.coupling_unitary(proj, 0.3)
        oracle = qmath.matrix_exponential(qmath.tensor(proj, Y), 0.3)
        assert np.max(np.abs(u - oracle)) < 1e-12

    def test_exponential_identity_many_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            proj = random_projector(rng, d)
            theta = float(rng.uniform(0.0, np.pi / 2))
            u = protocol.coupling_unitary(proj, theta)
            oracle = qmath.matrix_exponential(qmath.tensor(proj, Y), theta)
            assert np.max(np.abs(u - oracle)) < 1e-12

    def test_rejects_non_projector(self):
        with pytest.raises(ValueError, match="projector"):
            protocol.coupling_unitary(np.diag([2.0, 0.0]).astype(complex), 0.5)


class TestCoupledEvolution:
    def test_zero_strength_identity(self):
        u = protocol.build_coupled_evolution(1, CouplingConfig(2, 0.0, 0.0))
        np.testing.assert_allclose(u, np.eye(8), atol=1e-15)

    def test_unitarity_random_strengths(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            cfg = CouplingConfig(d, float(rng.uniform(0.05, np.pi / 2)), float(rng.uniform(0.05, np.pi / 2)))
            j = int(rng.integers(1, d + 1))
            u = protocol.build_coupled_evolution(j, cfg)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(4 * d), atol=1e-12)

    def test_couplings_do_not_commute(self):
        cfg = CouplingConfig(2, np.pi / 2, np.pi / 2)
        d = cfg.dim
        proj_aj = np.outer(states.basis_state(d, 1), states.basis_state(d, 1).conj())
        b0 = states.b0_state(d)
        proj_b0 = np.outer(b0, b0.conj())
        u_a = protocol.embedded_coupling(proj_aj, cfg.theta_a, "A", d)
        u_b = protocol.embedded_coupling(proj_b0, cfg.theta_b, "B", d)
        diff = np.linalg.norm(u_b @ u_a - u_a @ u_b, ord=2)
        assert diff > 0.1

    def test_order_changes_correlations(self):
        # witnessed on a generic state: swapping the couplings changes <X_A Y_B>
        rng = np.random.default_rng(44)
        rho = states.random_density(2, 2026)
        cfg = CouplingConfig(2, 0.7, 0.7)
        d = cfg.dim
        proj_aj = np.outer(states.basis_state(d, 1), states.basis_state(d, 1).conj())
        b0 = states.b0_state(d)
        proj_b0 = np.outer(b0, b0.conj())
        u_a = protocol.embedded_coupling(proj_aj, cfg.theta_a, "A", d)
        u_b = protocol.embedded_coupling(proj_b0, cfg.theta_b, "B", d)
        p0 = np.diag([1.0, 0.0]).astype(complex)
        sigma_in = qmath.tensor(rho.matrix, qmath.tensor(p0, p0))
        settings = (protocol.pointer_setting("X"), protocol.pointer_setting("Y"))

        def xy_12(u):
            sigma = u @ sigma_in @ u.conj().T
            probs = protocol.outcome_probabilities(sigma, (settings,))[0]
            eig = np.array([1.0, -1.0])
            return float(np.einsum("x,y,xy->", eig, eig, probs[:, :, 1]))

        assert abs(xy_12(u_b @ u_a) - xy_12(u_a @ u_b)) > 1e-3

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            protocol.build_coupled_evolution(3, CouplingConfig(2, 0.5, 0.5))


class TestEvolve:
    def test_zero_strength_returns_input(self):
        rho = states.random_density(2, 1)
        cfg = CouplingConfig(2, 0.0, 0.0)
        sigma = protocol.evolve(rho, 1, cfg)
        p0 = np.diag([1.0, 0.0]).astype(complex)
        np.testing.assert_allclose(sigma, qmath.tensor(rho.matrix, qmath.tensor(p0, p0)), atol=1e-14)

    def test_output_is_a_state(self):
        rng = np.random.default_rng(45)
        for seed in range(5):
            d = int(rng.integers(2, 5))
            rho = states.random_density(d, seed)
            cfg = CouplingConfig(d, float(rng.uniform(0.05, np.pi / 2)), float(rng.uniform(0.05, np.pi / 2)))
            sigma = protocol.evolve(rho, 1, cfg)
            assert np.trace(sigma).real == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(sigma - sigma.conj().T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(sigma)) > -1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            protocol.evolve(states.maximally_mixed(3), 1, CouplingConfig(2, 0.5, 0.5))

    def test_system_marginals_consistent(self):
        # the k-marginal of every outcome table equals the direct trace of
        # the evolved state against the system projector, whatever the
        # pointer settings
        rho = states.random_density(3, 9)
        cfg = CouplingConfig(3, 0.8, 0.4)
        sigma = protocol.evolve(rho, 2, cfg)
        direct = []
        for k in range(1, 4):
            pk = np.outer(states.basis_state(3, k), states.basis_state(3, k).conj())
            direct.append(float(np.trace(qmath.tensor(pk, np.eye(4)) @ sigma).real))
        setting_pairs = tuple(
            (protocol.pointer_setting(a), protocol.pointer_setting(b))
            for a, b in (("X", "X"), ("Y", "Pi1"), ("Z", "Z"))
        )
        probs = protocol.outcome_probabilities(sigma, setting_pairs)
        assert probs.shape == (3, 2, 2, 3)
        for table in probs:
            np.testing.assert_allclose(table.sum(axis=(0, 1)), direct, atol=1e-12)


class TestOutcomeProbabilities:
    def test_completeness(self):
        rng = np.random.default_rng(46)
        for seed in range(5):
            d = int(rng.integers(2, 5))
            rho = states.random_density(d, 100 + seed)
            cfg = CouplingConfig(d, float(rng.uniform(0.05, np.pi / 2)), float(rng.uniform(0.05, np.pi / 2)))
            sigma = protocol.evolve(rho, 1, cfg)
            setting_pairs = tuple(
                (protocol.pointer_setting(a), protocol.pointer_setting(b))
                for a, b in (("X", "Y"), ("Pi1", "Z"))
            )
            probs = protocol.outcome_probabilities(sigma, setting_pairs)
            np.testing.assert_allclose(probs.sum(axis=(1, 2, 3)), 1.0, atol=1e-10)
            assert probs.min() >= 0.0

    def test_double_flip_probability_maximally_mixed(self):
        # full strength, d=2: prob of both pointers flipped is 1/8 for each k
        rho = states.maximally_mixed(2)
        cfg = CouplingConfig(2, np.pi / 2, np.pi / 2)
        sigma = protocol.evolve(rho, 1, cfg)
        settings = (protocol.pointer_setting("Pi1"), protocol.pointer_setting("Pi1"))
        probs = protocol.outcome_probabilities(sigma, (settings,))[0]
        np.testing.assert_allclose(probs[0, 0], 0.125, atol=1e-12)

    def test_pointers_stay_at_zero_strength(self):
        rho = states.random_density(2, 3)
        sigma = protocol.evolve(rho, 1, CouplingConfig(2, 0.0, 0.0))
        settings = (protocol.pointer_setting("Z"), protocol.pointer_setting("Z"))
        probs = protocol.outcome_probabilities(sigma, (settings,))[0]
        # all weight on the (+1, +1) Z outcomes
        assert probs[0, 0, :].sum() == pytest.approx(1.0, abs=1e-12)
