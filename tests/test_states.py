"""State construction, validation, and the state-spec grammar."""

import numpy as np
import pytest

from dmrecon import states


class TestBasisStates:
    def test_first_basis_vector(self):
        np.testing.assert_array_equal(states.basis_state(2, 1), [1, 0])

    def test_third_of_four(self):
        np.testing.assert_array_equal(states.basis_state(4, 3), [0, 0, 1, 0])

    def test_orthonormal_d5(self):
        for j in range(1, 6):
            for k in range(1, 6):
                ip = np.vdot(states.basis_state(5, j), states.basis_state(5, k))
                assert ip == pytest.approx(1.0 if j == k else 0.0)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            states.basis_state(3, 0)
        with pytest.raises(ValueError):
            states.basis_state(3, 4)


class TestB0State:
    def test_d2_is_diagonal_polarization(self):
        np.testing.assert_allclose(states.b0_state(2), np.full(2, 1 / np.sqrt(2)))

    def test_d1(self):
        np.testing.assert_allclose(states.b0_state(1), [1.0])

    def test_normalized_d7(self):
        assert np.linalg.norm(states.b0_state(7)) == pytest.approx(1.0)


class TestPurityFamily:
    def test_pure_limit(self):
        psi = states.b0_state(2)
        rho = states.purity_family(1.0, psi)
        np.testing.assert_allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-15)

    def test_maximally_mixed_limit(self):
        rho = states.purity_family(0.0, states.basis_state(2, 1))
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-15)

    def test_purity_value(self):
        # Tr rho^2 = (1 + p^2)/2 at d = 2
        rho = states.purity_family(0.6, states.b0_state(2))
        assert states.purity(rho) == pytest.approx(0.68)

    def test_affine_in_p(self):
        psi = states.named_ket("R", 2)
        lo = states.purity_family(0.2, psi).matrix
        mid = states.purity_family(0.5, psi).matrix
        hi = states.purity_family(0.8, psi).matrix
        np.testing.assert_allclose(lo + hi, 2 * mid, atol=1e-14)

    def test_rejects_out_of_range_p(self):
        with pytest.raises(ValueError):
            states.purity_family(1.2, states.b0_state(2))
        with pytest.raises(ValueError):
            states.purity_family(-0.1, states.b0_state(2))


class TestRandomDensity:
    def test_deterministic_given_seed(self):
        a = states.random_density(4, 123)
        b = states.random_density(4, 123)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_unit_trace_many_seeds(self):
        for seed in range(100):
            rho = states.random_density(4, seed)
            assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_positive_many_seeds(self):
        for seed in range(100):
            rho = states.random_density(3, seed)
            assert np.min(np.linalg.eigvalsh(rho.matrix)) > -1e-12

    def test_different_seeds_differ(self):
        assert not np.allclose(
            states.random_density(2, 0).matrix, states.random_density(2, 1).matrix
        )


class TestPurity:
    def test_maximally_mixed(self):
        assert states.purity(states.maximally_mixed(2)) == pytest.approx(0.5)

    def test_pure_state(self):
        assert states.purity(states.pure_state(states.b0_state(3))) == pytest.approx(1.0)

    def test_half_mixed_h(self):
        rho = states.purity_family(0.5, states.named_ket("H", 2))
        assert states.purity(rho) == pytest.approx(0.625)

    def test_range_over_random_states(self):
        for seed in range(30):
            rho = states.random_density(4, seed)
            assert 0.25 - 1e-9 <= states.purity(rho) <= 1 + 1e-9


class TestDensityMatrixValidation:
    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            states.DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            states.DensityMatrix(np.eye(2, dtype=complex))

    def test_positivity_flag_enforced(self):
        # every DensityMatrix is checked: Hermitian and unit trace, but a negative eigenvalue
        with pytest.raises(ValueError, match="positive, has eigenvalue -5.000e-01"):
            states.DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_matrix_is_frozen(self):
        rho = states.maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0


class TestStateSpecGrammar:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("pure:H", np.diag([1.0, 0.0])),
            ("pure:D", np.full((2, 2), 0.5)),
            ("mixed", np.eye(2) / 2),
        ],
    )
    def test_simple_specs(self, spec, expected):
        np.testing.assert_allclose(states.parse_state_spec(spec, 2).matrix, expected, atol=1e-15)

    def test_family_spec(self):
        rho = states.parse_state_spec("family:p=0.5,psi=D", 2)
        assert states.purity(rho) == pytest.approx(0.625)

    @pytest.mark.parametrize(
        "spec, key",
        [("family:p=0.5,psi=D,p=0.2", "p"), ("family:psi=D,p=0.5,psi=H", "psi")],
    )
    def test_repeated_family_parameter_rejected(self, spec, key):
        # a later value would silently overwrite the first one
        with pytest.raises(ValueError, match=f"family parameter '{key}' given twice"):
            states.parse_state_spec(spec, 2)

    def test_random_spec_deterministic(self):
        a = states.parse_state_spec("random:seed=9", 3)
        b = states.parse_state_spec("random:seed=9", 3)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_basis_label_any_dimension(self):
        rho = states.parse_state_spec("pure:a3", 4)
        assert rho.matrix[2, 2] == pytest.approx(1.0)

    def test_r_label_matches_convention(self):
        # R = (H - iV)/sqrt2, so rho_12 = +i/2
        rho = states.parse_state_spec("pure:R", 2)
        assert rho.matrix[0, 1] == pytest.approx(0.5j)

    def test_rejects_unknown_specs(self):
        with pytest.raises(ValueError):
            states.parse_state_spec("pure:Q", 2)
        with pytest.raises(ValueError):
            states.parse_state_spec("pure:D", 3)
        with pytest.raises(ValueError):
            states.parse_state_spec("bogus", 2)

    @pytest.mark.parametrize(
        "spec, d",
        [("pure:D", 2), ("pure:D", 3), ("pure:a5", 4), ("mixed", 3), ("family:p=0.3,psi=b0", 3),
         ("family:p=1.5,psi=H", 2), ("random:seed=4", 3), ("random:seed=-1", 3),
         ("random:seed=x", 3), ("random:sed=4", 3), ("bogus", 2)],
    )
    def test_check_agrees_with_parse(self, spec, d):
        try:
            states.parse_state_spec(spec, d)
        except ValueError:
            with pytest.raises(ValueError):
                states.check_state_spec(spec, d)
        else:
            states.check_state_spec(spec, d)

    def test_check_draws_no_random_state(self, monkeypatch):
        def no_draw(d, seed):
            raise AssertionError("random state drawn")

        monkeypatch.setattr(states, "random_density", no_draw)
        states.check_state_spec("random:seed=7", 16)
        with pytest.raises(ValueError, match="nonnegative seed"):
            states.check_state_spec("random:seed=-7", 16)

    def test_generated_states_valid(self):
        specs = ["pure:D", "mixed", "family:p=0.3,psi=R", "random:seed=2"]
        for spec in specs:
            rho = states.parse_state_spec(spec, 2)
            m = rho.matrix
            assert np.max(np.abs(m - m.conj().T)) < 1e-10
            assert np.trace(m).real == pytest.approx(1.0, abs=1e-10)
            assert np.min(np.linalg.eigvalsh(m)) > -1e-9
