"""Error figures of merit and reconstruction comparisons."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmath


@dataclass(frozen=True)
class ErrorBound:
    """Statistical-error floor alpha(d) / (theta^2 sqrt(n)) for one method.

    The floor is a weak-approximation result: it is the reference curve to
    plot against measured errors at any strength, not a strong-regime
    guarantee.
    """

    method: str
    d: int
    theta: float
    n: int
    alpha: float

    @property
    def bound(self) -> float:
        return self.alpha / (self.theta**2 * math.sqrt(self.n))


def mean_square_error(element_errors: np.ndarray):
    """Aggregate statistical error sqrt(sum_jk |delta rho_jk|^2).

    One (d, d) matrix gives a float; a stack (..., d, d) gives one value per slice.
    """
    e = np.asarray(element_errors, dtype=float)
    if e.size and e.min() < 0:
        raise ValueError("element errors must be nonnegative")
    err = np.sqrt(np.sum(e * e, axis=(-2, -1)))
    return float(err) if err.ndim == 0 else err


def has_error_floor(method: str, d: int) -> bool:
    """Whether `error_lower_bound` defines a floor: method II has none below d = 5."""
    return method in ("W", "I") or (method == "II" and d >= 5)


def error_lower_bound(method: str, d: int, theta: float, n: int) -> ErrorBound:
    """The theoretical error floor for a full-matrix reconstruction.

    alpha(d) is (d-1) sqrt(d) / (2 sqrt(2)) for methods W and I and
    sqrt(d (d-1) (d-4)) / 2 for method II. The latter radicand is negative
    below d = 5, where no floor is defined and the Monte Carlo ensemble
    estimate is the only available reference.
    """
    if method in ("W", "I"):
        alpha = (d - 1) * math.sqrt(d) / (2 * math.sqrt(2))
    elif method == "II":
        if not has_error_floor(method, d):
            raise ValueError(
                f"no error floor for method II at d={d}: the radicand d-4 is negative"
            )
        alpha = math.sqrt(d * (d - 1) * (d - 4)) / 2
    else:
        raise ValueError(f"unknown method '{method}', expected W, I or II")
    if theta <= 0 or n < 1:
        raise ValueError("need theta > 0 and n >= 1")
    return ErrorBound(method=method, d=d, theta=theta, n=n, alpha=alpha)


def compare(finalized, element_errors, reference) -> tuple[np.ndarray, np.ndarray]:
    """(trace_distance, delta_rho) of a reconstruction against a reference.

    `finalized` and `element_errors` are a `ReconstructionResult`'s (..., d, d)
    arrays, over any leading axes; `reference` broadcasts against them. Both
    results are arrays of the leading shape, 0-d for one matrix. A degenerate
    estimate (all nan) reads distance nan and delta_rho inf; a nan reference
    reads distance nan. One `trace_distance` and one `mean_square_error` call
    cover every matrix.
    """
    finalized = np.asarray(finalized)
    reference = np.asarray(reference)
    if reference.shape[-2:] != finalized.shape[-2:]:
        raise ValueError(f"dimension mismatch: {finalized.shape} vs {reference.shape}")
    reference = np.broadcast_to(reference, finalized.shape)
    degenerate = np.isnan(finalized[..., 0, 0])
    ok = ~(degenerate | np.isnan(reference[..., 0, 0]))
    t_dist = np.full(ok.shape, np.nan)
    t_dist[ok] = qmath.trace_distance(finalized[ok], reference[ok])
    delta_rho = np.where(degenerate, np.inf, mean_square_error(element_errors))
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
