"""Error figures of merit and reconstruction comparisons."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmath, states
from .reconstruct import ReconstructionResult


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


@dataclass(frozen=True)
class ComparisonSummary:
    method: str
    trace_distance: float
    delta_rho: float
    purity_reconstructed: float
    purity_reference: float


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


def compare(result: ReconstructionResult, reference: states.DensityMatrix) -> ComparisonSummary:
    """Trace distance and aggregate error of one reconstruction against a reference."""
    if not isinstance(result.finalized, states.DensityMatrix):
        raise ValueError("compare takes one reconstruction; a stacked result has no summary")
    if result.finalized.dim != reference.dim:
        raise ValueError(
            f"dimension mismatch: {result.finalized.dim} vs {reference.dim}"
        )
    return ComparisonSummary(
        method=result.method,
        trace_distance=qmath.trace_distance(result.finalized.matrix, reference.matrix),
        delta_rho=mean_square_error(result.element_errors),
        purity_reconstructed=states.purity(result.finalized),
        purity_reference=states.purity(reference),
    )


def ensemble_delta_rho(matrices: list[np.ndarray]) -> float:
    """Ensemble cross-check of the propagated error: spread over repeated runs.

    sqrt(sum_jk Var(rho_jk)) with the variance taken elementwise over the
    supplied finalized matrices.
    """
    if len(matrices) < 2:
        raise ValueError("need at least two matrices for an ensemble estimate")
    stack = np.stack([np.asarray(m, dtype=complex) for m in matrices])
    mean = stack.mean(axis=0)
    var = np.mean(np.abs(stack - mean) ** 2, axis=0)
    return float(np.sqrt(var.sum()))
