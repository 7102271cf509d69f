"""Density-matrix estimates from correlation sets and tomography Born vectors.

Three direct estimators are provided. The weak estimator combines four Pauli
correlation pairs per element and is accurate only for small coupling. The
two exact estimators add flipped-pointer (Pi1) terms, or use them outright,
and reproduce the state at any coupling strength. Linear-inversion
tomography serves as the reference method: `qst_linear_inversion` inverts
the Born vector of the standard d^2-projector family (one (d^2, d, d) stack,
`standard_projector_family`) in closed form at any d, and
`qst_least_squares` solves any other informationally complete projector set.

Raw matrices are finalized by taking the Hermitian part and normalizing the
trace; no positivity projection or maximum-likelihood step is applied, so
finalized matrices may have negative eigenvalues. A matrix whose Hermitian
part has near-zero trace has no state estimate: `finalize` returns it all
nan, so a degenerate point is a value, not an exception.

Every estimator also takes a stack: `Correlations` with a leading axis, or
a (..., d^2) stack of Born vectors for tomography. It then returns one
result whose arrays carry those axes, with `finalized` the (..., d, d) array
of finalized matrices; one matrix is the stack without leading axes, on the
same code path, so a degenerate slice is all nan and the others are
unaffected. Each set is read at the coupling it carries (`Correlations.cfg`,
one per slice for a stack over grid points), with constants (n_ab,
tan(theta/2)) in Python floats per config, so a slice's estimate equals the
call with its own set alone, bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import qmath, states
from .correlations import PAIRS_EXACT_I, PAIRS_EXACT_II, PAIRS_WEAK, Correlations
from .protocol import MAX_DIM, CouplingConfig

FINALIZE_TRACE_ATOL = 1e-9


@dataclass(frozen=True)
class ReconstructionResult:
    """A raw reconstructed matrix plus its finalized form and element errors.

    `element_errors[j-1, k-1]` is the propagated statistical error |delta
    rho_jk| of the finalized matrix: all zeros when built from exact
    correlations, all nan for tomography, which propagates no error. For a
    stack every array has the leading axes; `finalized` is always the array
    `finalize` returns.
    """

    raw: np.ndarray
    finalized: np.ndarray
    element_errors: np.ndarray


def finalize(raw: np.ndarray) -> np.ndarray:
    """Hermitian part, then trace normalization. Positivity is not enforced.

    Takes one (d, d) matrix or a stack (..., d, d) and returns the array of
    the same shape; a matrix whose Hermitian part has near-zero trace
    (|trace| <= FINALIZE_TRACE_ATOL) has no state estimate and is all nan.
    """
    h = qmath.hermitian_part(raw)
    tr = np.trace(h, axis1=-2, axis2=-1).real
    degenerate = np.abs(tr) <= FINALIZE_TRACE_ATOL
    out = h / np.where(degenerate, 1.0, tr)[..., None, None]
    out[degenerate] = np.nan
    return out


def _element_errors(re_err: np.ndarray, im_err: np.ndarray) -> np.ndarray:
    """Propagate per-element errors through the Hermitian part.

    Off-diagonal entries average two independent estimates (jk and kj), so
    their errors combine in quadrature with a factor 1/2; the diagonal keeps
    only its real part. The trace normalization is linearized at its ideal
    value of 1: dividing by the realized trace would mix its own sampling
    noise into every element and break the 1/theta^2 error scaling.
    """
    i = np.arange(re_err.shape[-1])
    herm_re = 0.5 * np.sqrt(re_err**2 + re_err.swapaxes(-1, -2) ** 2)
    herm_re[..., i, i] = re_err[..., i, i]
    herm_im = 0.5 * np.sqrt(im_err**2 + im_err.swapaxes(-1, -2) ** 2)
    herm_im[..., i, i] = 0.0
    return np.sqrt(herm_re**2 + herm_im**2)


def _constants(correls: Correlations, f) -> tuple:
    """The floats f(c) for the coupling config c the correlations carry.

    With one config per slice, each value is an array over the first axis
    that broadcasts against a (..., d, d) column; f still computes in Python
    floats per config, so each slice's estimate is that of its set alone.
    """
    if isinstance(correls.cfg, CouplingConfig):
        return f(correls.cfg)
    shape = (-1,) + (1,) * (correls.values.ndim - 2)
    return tuple(np.reshape(v, shape) for v in zip(*map(f, correls.cfg)))


def _columns(correls: Correlations, pairs) -> list[np.ndarray]:
    """Values then standard errors, as (..., d, d) arrays, of each requested pair."""
    cols = [correls.column(pair) for pair in pairs]
    return [v for v, _ in cols] + [e for _, e in cols]


def _result(raw, re_err=None, im_err=None) -> ReconstructionResult:
    """The result of a raw estimate; without errors (tomography) they are all nan."""
    if re_err is None:
        errors = np.full(raw.shape, np.nan)
    else:
        errors = _element_errors(re_err, im_err)
    return ReconstructionResult(raw, finalize(raw), errors)


def _pauli_terms(correls: Correlations, n):
    """The weak combination of the four Pauli pairs, with its error variances.

    Returns the real and imaginary parts n_ab (<XX> - <YY>) and
    n_ab (<XY> + <YX>), and the variance sums behind their errors (before
    the factor n_ab).
    """
    xx, yy, yx, xy, e_xx, e_yy, e_yx, e_xy = _columns(correls, PAIRS_WEAK)
    return n * (xx - yy), n * (xy + yx), e_xx**2 + e_yy**2, e_yx**2 + e_xy**2


def reconstruct_weak(correls: Correlations) -> ReconstructionResult:
    """Weak-approximation estimator from the four Pauli correlation pairs.

    Element (j, k) is n_ab * (<XX> - <YY>) + i n_ab * (<YX> + <XY>). The
    result approximates the state only for small coupling strength.
    """
    (n,) = _constants(correls, lambda c: (c.n_ab,))
    re, im, re_var, im_var = _pauli_terms(correls, n)
    raw = re + 1j * im
    return _result(raw, n * np.sqrt(re_var), n * np.sqrt(im_var))


def reconstruct_exact_i(correls: Correlations) -> ReconstructionResult:
    """Exact estimator: the weak combination plus tangent-weighted Pi1 terms.

    From exact correlations this reproduces the state at any coupling
    strength; the correction terms vanish as the strength goes to zero.
    """
    n, t_a, t_b, t_a2, t_b2 = _constants(
        correls, lambda c: (c.n_ab, c.t_a, c.t_b, c.t_a**2, c.t_b**2)
    )
    re, im, re_var, im_var = _pauli_terms(correls, n)
    xp, px, yp, pp, e_xp, e_px, e_yp, e_pp = _columns(correls, PAIRS_EXACT_I[4:])
    re = re + 2 * n * (t_b * xp + t_a * px + 2 * t_a * t_b * pp)
    im = im + 2 * n * t_b * yp
    re_var = (
        re_var
        + 4 * t_b2 * e_xp**2
        + 4 * t_a2 * e_px**2
        + 16 * t_a2 * t_b2 * e_pp**2
    )
    im_var = im_var + 4 * t_b2 * e_yp**2
    raw = re + 1j * im
    return _result(raw, n * np.sqrt(re_var), n * np.sqrt(im_var))


def reconstruct_exact_ii(correls: Correlations) -> ReconstructionResult:
    """Exact estimator from only three observable pairs.

    Diagonal entry j is 16 n_ab^2 times the double-flip correlation
    <Pi1 Pi1> averaged over the final system outcome k, for exact and
    sampled data alike; its standard error is zero for exact data.
    """
    d = correls.dim
    (n,) = _constants(correls, lambda c: (c.n_ab,))
    pp, yy, xy, _, e_yy, e_xy = _columns(correls, PAIRS_EXACT_II)
    # the diagonal estimates as (..., d, 1) columns, which broadcast against n
    est = pp.mean(axis=-1, keepdims=True)
    if correls.n_events:
        se = np.sqrt(np.maximum(est / d - est * est, 0.0) / correls.n_events)
    else:
        se = np.zeros_like(est)
    raw = -2 * n * yy + 2j * n * xy
    re_err = 2 * n * e_yy
    im_err = 2 * n * e_xy
    i = np.arange(d)
    raw[..., i, i] = (16 * n * n * est)[..., 0]
    re_err[..., i, i] = (16 * n * n * se)[..., 0]
    im_err[..., i, i] = 0.0
    return _result(raw, re_err, im_err)


# -- Reference tomography -----------------------------------------------------


@functools.lru_cache(maxsize=MAX_DIM)
def standard_projector_family(d: int) -> np.ndarray:
    """The d^2 projectors of the standard tomography family, as a (d^2, d, d) stack.

    In order: |a_j>, then (|a_j>+|a_k>)/sqrt2, then (|a_j>+i|a_k>)/sqrt2, each
    with j < k in row-major order. Built once per d; the stack is read-only
    because every caller shares it.
    """
    eye = np.eye(d, dtype=complex)
    j, k = np.triu_indices(d, 1)
    kets = np.concatenate(
        [eye, (eye[j] + eye[k]) / np.sqrt(2), (eye[j] + 1j * eye[k]) / np.sqrt(2)]
    )
    family = np.einsum("pa,pb->pab", kets, kets.conj())
    family.flags.writeable = False
    return family


def born_probabilities(rho: states.DensityMatrix, projectors) -> np.ndarray:
    """Tr(P rho) for each projector of a (n, d, d) stack."""
    return np.einsum("pab,ba->p", np.asarray(projectors), rho.matrix).real


def qst_linear_inversion(probs, d: int) -> ReconstructionResult:
    """Tomography by inverting the standard family's Born probabilities in closed form.

    `probs` holds the d^2 Born probabilities of `standard_projector_family(d)`,
    in its order, or a (..., d^2) stack of such vectors. With
    rho_jj = p_{a_j}, the others read
    p_{+jk} = (rho_jj + rho_kk)/2 + Re rho_jk and
    p_{i_jk} = (rho_jj + rho_kk)/2 - Im rho_jk.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim == 0 or p.shape[-1] != d * d:
        raise ValueError(
            f"standard-family tomography at d={d} needs {d * d} probabilities, got shape {p.shape}"
        )
    n_off = d * (d - 1) // 2
    diag, plus, imag = p[..., :d], p[..., d : d + n_off], p[..., d + n_off :]
    i = np.arange(d)
    j, k = np.triu_indices(d, 1)
    mean = (diag[..., j] + diag[..., k]) / 2
    raw = np.zeros((*p.shape[:-1], d, d), dtype=complex)
    raw[..., i, i] = diag
    raw[..., j, k] = (plus - mean) + 1j * (mean - imag)
    raw[..., k, j] = raw[..., j, k].conj()
    return _result(raw)


def qst_least_squares(projectors, probs) -> ReconstructionResult:
    """Tomography of any informationally complete projector set by least squares.

    `projectors` is a (n, d, d) stack with n >= d^2 whose vectorized
    projectors are linearly independent; `probs` holds their n Born
    probabilities. The closed form `qst_linear_inversion` is checked
    against this.
    """
    projs = np.asarray(projectors, dtype=complex)
    n, d, _ = projs.shape
    if n < d * d:
        raise ValueError(f"need at least {d * d} projectors for d={d}, got {n}")
    a = projs.transpose(0, 2, 1).reshape(n, d * d)
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] < 1e-10 * sv[0]:
        raise ValueError("projector set is rank-deficient: not informationally complete")
    x, *_ = np.linalg.lstsq(a, np.asarray(probs, dtype=float), rcond=None)
    return _result(x.reshape(d, d))
