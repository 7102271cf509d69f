"""Density-matrix estimates from correlation sets and tomography Born vectors.

Three direct estimators are provided. The weak estimator combines four Pauli
correlation pairs per element and is accurate only for small coupling. The
two exact estimators add flipped-pointer (Pi1) terms, or use them outright,
and reproduce the state at any coupling strength. Each is a table of
(scale, {pair: weight}) terms that one function (`_linear`) applies and
propagates the errors through; the diagonal of method II is the exception.
Linear-inversion tomography serves as the reference method:
`qst_linear_inversion` inverts the Born vector of the standard
d^2-projector family in closed form at any d, and `qst_least_squares` solves
any other informationally complete set of rank-1 projectors. A family is
held as its kets, one (n, d) array whose row v stands for the projector
|v><v|, so the standard one takes d^3 entries, never the d^4 of its
projector stack.

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
from operator import add

import numpy as np

from . import qmath, states
from .correlations import PAIRS_EXACT_I, Correlations
from .protocol import CouplingConfig

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
    the same shape; a matrix whose Hermitian part has near-zero or nan trace
    (not |trace| > FINALIZE_TRACE_ATOL) has no state estimate and is all nan.
    The Hermitian part is normalized in place, so the one array the size of
    raw that it allocates is the result.
    """
    h = qmath.hermitian_part(raw)
    tr = np.trace(h, axis1=-2, axis2=-1).real
    degenerate = ~(np.abs(tr) > FINALIZE_TRACE_ATOL)
    h /= np.where(degenerate, 1.0, tr)[..., None, None]
    h[degenerate] = np.nan
    return h


def _element_errors(re_err: np.ndarray, im_err: np.ndarray) -> np.ndarray:
    """Propagate per-element errors through the Hermitian part.

    Off-diagonal entries average two independent estimates (jk and kj), so
    their errors combine in quadrature with a factor 1/2; the diagonal keeps
    only its real part. The trace normalization is linearized at its ideal
    value of 1: dividing by the realized trace would mix its own sampling
    noise into every element and break the 1/theta^2 error scaling.
    """
    i = np.arange(re_err.shape[-1])
    # an error whose square leaves float range (II's diagonal at a tiny theta)
    # reads inf; np.hypot would keep it finite but moves ordinary errors' last bit
    with np.errstate(over="ignore"):
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


def _result(raw, re_err=None, im_err=None) -> ReconstructionResult:
    """The result of a raw estimate; without errors (tomography) they are all nan."""
    if re_err is None:
        errors = np.full(raw.shape, np.nan)
    else:
        errors = _element_errors(re_err, im_err)
    return ReconstructionResult(raw, finalize(raw), errors)


def _linear(correls: Correlations, method: str) -> tuple:
    """The raw estimate of a direct method with the errors of its real and imaginary parts.

    Each part is a list of (scale, {pair: weight}) terms, grouped as the
    formulas are written: the part is the sum over terms of scale times the
    weighted sum of the pairs' correlations, so a pair's flat coefficient is
    scale * weight. Every correlation's standard error enters in quadrature
    through that coefficient, as independent of the others'.
    """
    n, t = _constants(correls, lambda c: (c.n_ab, c.t))
    xx, yy, yx, xy, xp, px, yp, pp = PAIRS_EXACT_I
    weak = ([(n, {xx: 1, yy: -1})], [(n, {xy: 1, yx: 1})])
    re_terms, im_terms = {
        "W": weak,
        "I": (
            weak[0] + [(2 * n, {xp: t, px: t, pp: 2 * t * t})],
            weak[1] + [(2 * n * t, {yp: 1})],
        ),
        "II": ([(-2 * n, {yy: 1})], [(2 * n, {xy: 1})]),
    }[method]
    _sum = functools.partial(functools.reduce, add)  # from the first term: 0 + -0.0 is 0.0
    parts = []
    for terms in (re_terms, im_terms):
        cols = {pair: correls.column(pair) for _, weights in terms for pair in weights}
        value = _sum(s * _sum(w * cols[p][0] for p, w in ws.items()) for s, ws in terms)
        var = _sum((s * w * cols[p][1]) ** 2 for s, ws in terms for p, w in ws.items())
        parts += [value, np.sqrt(var)]
    re, re_err, im, im_err = parts
    return re + 1j * im, re_err, im_err


def reconstruct_weak(correls: Correlations) -> ReconstructionResult:
    """Weak-approximation estimator from the four Pauli correlation pairs.

    Element (j, k) is n_ab * (<XX> - <YY>) + i n_ab * (<YX> + <XY>). The
    result approximates the state only for small coupling strength.
    """
    return _result(*_linear(correls, "W"))


def reconstruct_exact_i(correls: Correlations) -> ReconstructionResult:
    """Exact estimator: the weak combination plus tangent-weighted Pi1 terms.

    From exact correlations this reproduces the state at any coupling
    strength; the correction terms vanish as the strength goes to zero.
    """
    return _result(*_linear(correls, "I"))


def reconstruct_exact_ii(correls: Correlations) -> ReconstructionResult:
    """Exact estimator from only three observable pairs.

    Diagonal entry j is 16 n_ab^2 times the double-flip correlation
    <Pi1 Pi1> averaged over the final system outcome k, for exact and
    sampled data alike: the one entry outside the linear terms, with its
    own standard error, zero for exact data.
    """
    d = correls.dim
    (n,) = _constants(correls, lambda c: (c.n_ab,))
    raw, re_err, im_err = _linear(correls, "II")
    # the diagonal estimates as (..., d, 1) columns, which broadcast against n
    est = correls.column(("Pi1", "Pi1"))[0].mean(axis=-1, keepdims=True)
    if correls.n_events:
        se = np.sqrt(np.maximum(est / d - est * est, 0.0) / correls.n_events)
    else:
        se = np.zeros_like(est)
    i = np.arange(d)
    raw[..., i, i] = (16 * n * n * est)[..., 0]
    re_err[..., i, i] = (16 * n * n * se)[..., 0]
    return _result(raw, re_err, im_err)


# -- Reference tomography -----------------------------------------------------


def standard_projector_family(d: int) -> np.ndarray:
    """The kets of the standard tomography family's d^2 projectors, as one (d^2, d) array.

    In order: |a_j>, then (|a_j>+|a_k>)/sqrt2, then (|a_j>+i|a_k>)/sqrt2, each
    with j < k in row-major order; projector p is |v_p><v_p|. Built on every
    call and owned by the caller: d^3 complex entries, 64 KiB at d = 16.
    """
    eye = np.eye(d, dtype=complex)
    j, k = np.triu_indices(d, 1)
    return np.concatenate(
        [eye, (eye[j] + eye[k]) / np.sqrt(2), (eye[j] + 1j * eye[k]) / np.sqrt(2)]
    )


def born_probabilities(rho: states.DensityMatrix, kets) -> np.ndarray:
    """<v|rho|v> = Tr(|v><v| rho) for each ket of an (n, d) array, d the state's dimension.

    The value is ((v.conj() @ rho) * v).sum(-1).real, with v.conj() @ rho
    formed as the conjugate of v @ rho.conj() (negation is exact) and
    multiplied by v in place: the one (n, d) buffer it allocates is the whole
    transient, with no (n, d, d) projector and no conjugate copy of the kets.
    It equals that expression bit for bit, except that numpy may round a
    one-element in-place product differently.
    """
    v = np.asarray(kets)
    if v.ndim != 2 or v.shape[1] != rho.dim:
        raise ValueError(
            f"kets of shape {v.shape} are not an (n, d) array"
            f" for a state of shape {rho.matrix.shape}"
        )
    w = v @ rho.matrix.conj()
    np.conjugate(w, out=w)
    w *= v
    return w.sum(-1).real


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


def qst_least_squares(kets, probs) -> ReconstructionResult:
    """Tomography of any informationally complete set of rank-1 projectors by least squares.

    `kets` is an (n, d) array with n >= d^2 whose projectors |v><v|, as
    vectors, are linearly independent; `probs` holds their n Born
    probabilities, one vector of shape (n,). Row p of the (n, d^2) design
    matrix holds conj(v_pa) v_pb at a d + b, so that it times the flattened
    rho is Tr(|v_p><v_p| rho).
    The closed form `qst_linear_inversion` is checked against this.
    """
    v = np.asarray(kets, dtype=complex)
    if v.ndim != 2:
        raise ValueError(f"kets of shape {v.shape} are not an (n, d) array")
    n, d = v.shape
    if n < d * d:
        raise ValueError(f"need at least {d * d} projectors for d={d}, got {n}")
    p = np.asarray(probs, dtype=float)
    if p.shape != (n,):
        raise ValueError(f"kets of shape {v.shape} need probabilities of shape ({n},), got {p.shape}")
    a = (v.conj()[:, :, None] * v[:, None, :]).reshape(n, d * d)
    x, _, _, sv = np.linalg.lstsq(a, p, rcond=None)
    if sv[-1] < 1e-10 * sv[0]:
        raise ValueError("projector set is rank-deficient: not informationally complete")
    return _result(x.reshape(d, d))
