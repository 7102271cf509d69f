"""Linear-algebra primitive tests, including the exponential-vs-rotation identity."""

import re

import numpy as np
import pytest

from dmrecon import qmath

I2 = np.eye(2, dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])


def random_unit_vector(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


class TestMatrixExponential:
    def test_zero_strength_is_identity(self):
        np.testing.assert_allclose(qmath.matrix_exponential(Y, 0.0), I2, atol=1e-15)

    def test_half_pi_y_rotation(self):
        # cos/sin expansion of exp(-i (pi/2) Y)
        expected = np.array([[0, -1], [1, 0]], dtype=complex)
        np.testing.assert_allclose(
            qmath.matrix_exponential(Y, np.pi / 2), expected, atol=1e-12
        )

    def test_unitarity_on_random_hermitian(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = qmath.hermitian_part(h)
            u = qmath.matrix_exponential(h, rng.uniform(0, 3))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-10)

    def test_rejects_non_hermitian(self):
        want = "matrix is not Hermitian: max |m - m^dagger| = 1.000e+00 exceeds 1.0e-10"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            qmath.matrix_exponential(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    def test_matches_projector_closed_form(self):
        # exp(-i theta (P x Y)) = (1-P) x 1 + P x exp(-i theta Y) for projectors
        rng = np.random.default_rng(7)
        theta = 0.7
        v = random_unit_vector(rng, 3)
        proj = np.outer(v, v.conj())
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
            dtype=complex,
        )
        closed = np.kron(np.eye(3) - proj, I2) + np.kron(proj, rot)
        oracle = qmath.matrix_exponential(np.kron(proj, Y), theta)
        assert np.max(np.abs(closed - oracle)) < 1e-12


class TestTraceDistance:
    def test_identical_inputs(self):
        rho = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
        assert qmath.trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_pure_states(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        assert qmath.trace_distance(p0, p1) == pytest.approx(1.0)

    def test_pure_vs_maximally_mixed(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        assert qmath.trace_distance(p0, I2 / 2) == pytest.approx(0.5)

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        a = qmath.hermitian_part(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        b = qmath.hermitian_part(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        assert qmath.trace_distance(a, b) == pytest.approx(qmath.trace_distance(b, a))

    def test_triangle_inequality_on_random_triples(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            mats = []
            for _ in range(3):
                g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                m = g @ g.conj().T
                mats.append(m / np.trace(m).real)
            a, b, c = mats
            t_ac = qmath.trace_distance(a, c)
            t_ab = qmath.trace_distance(a, b)
            t_bc = qmath.trace_distance(b, c)
            assert t_ac <= t_ab + t_bc + 1e-10

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            qmath.trace_distance(I2, np.eye(3))


class TestHermitianPart:
    def test_fixed_point_on_hermitian(self):
        h = np.array([[1.0, 2 + 1j], [2 - 1j, -1.0]])
        np.testing.assert_allclose(qmath.hermitian_part(h), h, atol=1e-15)

    def test_symmetrization(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        np.testing.assert_allclose(
            qmath.hermitian_part(m), np.array([[0, 0.5], [0.5, 0]]), atol=1e-15
        )

    def test_output_hermitian_on_random_input(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = qmath.hermitian_part(m)
            assert np.max(np.abs(h - h.conj().T)) < 1e-15

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            qmath.hermitian_part(np.zeros((2, 3)))


class TestIsHermitian:
    @pytest.mark.parametrize("dev, hermitian", [(0.5e-10, True), (2e-10, False)])
    def test_tolerance_is_default_atol(self, dev, hermitian):
        # the one tolerance, DEFAULT_ATOL = 1e-10, on max |m - m^dagger|
        m = np.array([[0.5, dev], [0.0, 0.5]], dtype=complex)
        assert qmath.is_hermitian(m) is hermitian
