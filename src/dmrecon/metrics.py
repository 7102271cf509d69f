"""Error figures of merit and reconstruction comparisons."""

from __future__ import annotations

import math

import numpy as np

from . import qmath


def mean_square_error(element_errors: np.ndarray):
    """Aggregate statistical error sqrt(sum_jk |delta rho_jk|^2).

    One (d, d) matrix gives a float; a stack (..., d, d) gives one value per slice.
    """
    e = np.asarray(element_errors, dtype=float)
    if np.any(e < 0):
        raise ValueError("element errors must be nonnegative")
    err = np.sqrt(np.sum(e * e, axis=(-2, -1)))
    return float(err) if err.ndim == 0 else err


def error_lower_bound(method: str, d: int, theta: float, n: int) -> float:
    """A full-matrix reconstruction's error floor alpha(d) / (theta^2 sqrt(n)), or nan.

    alpha(d) is (d-1) sqrt(d) / (2 sqrt(2)) for methods W and I and
    sqrt(d (d-1) (d-4)) / 2 for method II. The latter radicand is negative
    below d = 5, where, as for QST, no floor is defined and the Monte Carlo
    ensemble estimate is the only available reference. The floor is a
    weak-approximation result: it is the reference curve to plot against
    measured errors at any strength, not a strong-regime guarantee.
    """
    if method not in ("W", "I", "II", "QST"):
        raise ValueError(f"unknown method '{method}', expected W, I, II or QST")
    if not 0 < theta < math.inf or n < 1:
        raise ValueError(f"need a finite theta > 0 and n >= 1, got theta={theta!r}, n={n!r}")
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d!r}")
    if method in ("W", "I"):
        alpha = (d - 1) * math.sqrt(d) / (2 * math.sqrt(2))
    elif method == "II" and d >= 5:
        alpha = math.sqrt(d * (d - 1) * (d - 4)) / 2
    else:
        return math.nan
    return alpha / (theta**2 * math.sqrt(n))


def compare(finalized, element_errors, reference) -> tuple[np.ndarray, np.ndarray]:
    """(trace_distance, delta_rho) of a reconstruction against a reference.

    `finalized` and `element_errors` are a `ReconstructionResult`'s (..., d, d)
    arrays, over any leading axes; `reference` broadcasts against them. Both
    results are arrays of the leading shape, 0-d for one matrix. A degenerate
    estimate (all nan) reads distance nan and delta_rho inf; a nan reference
    reads distance nan. One `trace_distance` call over the whole stack, which
    reads a pair with a nan as nan, and one `mean_square_error` call cover
    every matrix, so the transients peak at `trace_distance`'s own (two
    arrays the size of `finalized`) whether or not a slice is degenerate.
    """
    finalized = np.asarray(finalized)
    reference = np.asarray(reference)
    if reference.shape[-2:] != finalized.shape[-2:]:
        raise ValueError(f"dimension mismatch: {finalized.shape} vs {reference.shape}")
    t_dist = np.asarray(qmath.trace_distance(finalized, np.broadcast_to(reference, finalized.shape)))
    delta_rho = np.where(np.isnan(finalized[..., 0, 0]), np.inf, mean_square_error(element_errors))
    return t_dist, delta_rho


def ensemble_delta_rho(finalized) -> float:
    """Ensemble cross-check of the propagated error: spread over repeated runs.

    sqrt(sum_jk Var(rho_jk)) with the variance taken elementwise over the
    first axis of an (S, d, d) stack of finalized matrices, S >= 2.
    """
    stack = np.asarray(finalized, dtype=complex)
    if stack.ndim != 3 or len(stack) < 2:
        raise ValueError(f"need an (S, d, d) stack with S >= 2, got shape {stack.shape}")
    mean = stack.mean(axis=0)
    var = np.mean(np.abs(stack - mean) ** 2, axis=0)
    return float(np.sqrt(var.sum()))
