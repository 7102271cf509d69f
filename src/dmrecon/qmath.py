"""Dense complex linear algebra for small Hilbert spaces (d <= protocol.MAX_DIM = 16).

`as_complex_matrix`, `is_hermitian`, `hermitian_part` and `trace_distance`
also take a stack of matrices over leading axes, shaped (..., d, d), and act
on each slice; `matrix_exponential` takes one matrix.
"""

from __future__ import annotations

import numpy as np

DEFAULT_ATOL = 1e-10


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a complex ndarray of one matrix, or a stack of them over leading axes.

    Does not copy when possible. The matrices are the last two axes; callers
    that take one matrix check `ndim == 2` themselves.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    if a.shape[-2] == 0 or a.shape[-1] == 0:
        raise ValueError("matrix must be nonempty")
    return a


def _adjoint(a: np.ndarray) -> np.ndarray:
    """a^dagger, slice by slice, in a new C-ordered array the size of a.

    The transposed view is copied and then conjugated in place: a ufunc that
    read the transposed view directly would also allocate an iteration buffer.
    """
    h = a.swapaxes(-1, -2).copy()
    np.conjugate(h, out=h)
    return h


def _hermitian_deviation(a: np.ndarray) -> np.ndarray:
    """max |a - a^dagger| per slice: nan where a slice holds a nan, inf if a is not square."""
    if a.shape[-2] != a.shape[-1]:
        return np.full(a.shape[:-2], np.inf)
    dev = _adjoint(a)
    np.subtract(a, dev, out=dev)
    return np.max(np.abs(dev), axis=(-2, -1))


def is_hermitian(m) -> bool:
    """Whether m, or every slice of a stack, equals its adjoint within DEFAULT_ATOL (nan never does).

    The transients are one array the size of m, where m - m^dagger is formed, and its modulus.
    """
    return bool(np.all(_hermitian_deviation(as_complex_matrix(m)) <= DEFAULT_ATOL))


def tensor(a, b) -> np.ndarray:
    """Kronecker product with a-index major, b-index minor block ordering."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def hermitian_part(m) -> np.ndarray:
    """Return (m + m^dagger)/2, slice by slice for a stack.

    The sum and the halving run in place in the one new array, m^dagger, so
    the result is the only array the size of m that it allocates.
    """
    a = as_complex_matrix(m)
    if a.shape[-2] != a.shape[-1]:
        raise ValueError(f"hermitian_part requires a square matrix, got {a.shape}")
    h = _adjoint(a)
    h += a
    h /= 2
    return h


def matrix_exponential(h, scale: float) -> np.ndarray:
    """Unitary exp(-i * scale * h) for Hermitian h, via eigendecomposition.

    Kept as an independent reference path: deliberately does not use any
    closed-form shortcut, so it can cross-check faster constructions. A
    non-square, non-Hermitian or nan h is rejected.
    """
    a = as_complex_matrix(h)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"eigendecomposition requires a square matrix, got {a.shape}")
    dev = float(_hermitian_deviation(a))
    if not dev <= DEFAULT_ATOL:
        raise ValueError(
            f"matrix is not Hermitian: max |m - m^dagger| = {dev:.3e} exceeds {DEFAULT_ATOL:.1e}"
        )
    w, v = np.linalg.eigh(a)
    phases = np.exp(-1j * scale * w)
    return (v * phases) @ v.conj().T


def trace_distance(r1, r2):
    """Half the trace norm of (r1 - r2); in [0, 1] for positive unit-trace states.

    Two matrices give a float. Two stacks of the same shape (..., d, d)
    give one distance per pair of slices, from one batched `eigvalsh`.
    A pair in which either slice holds a nan reads nan; every other slice
    must be Hermitian. The nan pairs are zeroed in r1 - r2 before the
    eigensolver, which treats each slice on its own, so they move no other
    distance. Its transients peak at two arrays the size of the inputs:
    r1 - r2 and its Hermitian part.
    """
    a = as_complex_matrix(r1)
    b = as_complex_matrix(r2)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    dev = np.maximum(_hermitian_deviation(a), _hermitian_deviation(b))
    if np.any(dev > DEFAULT_ATOL):
        raise ValueError("trace_distance requires Hermitian inputs")
    nan = np.isnan(dev)
    diff = a - b
    diff[nan] = 0
    w = np.linalg.eigvalsh(hermitian_part(diff))
    dist = np.where(nan, np.nan, 0.5 * np.sum(np.abs(w), axis=-1))
    return float(dist) if dist.ndim == 0 else dist
