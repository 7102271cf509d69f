"""Two-pointer coupling protocol: Kraus operators, outcome probabilities.

The system (dimension d) is coupled in sequence to two qubit pointers A and B,
both prepared in |0>. The first coupling rotates pointer A conditioned on the
basis projector |a_j><a_j|, the second rotates pointer B conditioned on the
projector onto the uniform superposition |b_0>. The order matters: the two
couplings do not commute.

The paper's coupling is exp(-i theta P (x) Y), P a projector, on system (x)
pointer. Both pointers start in |0>, so each coupling acts on the system
through the |0> columns of that unitary, M_alpha = <alpha| exp(-i theta P (x) Y) |0>:
M_0 = 1 - (1 - cos theta) P and M_1 = sin theta P, built in projector form
and checked against `qmath.matrix_exponential`, the independent oracle.
Pointer A acts first, so outcome (alpha, beta) of the j-th measurement
applies K_{j alpha beta} = M^B_beta M^A_{j alpha} (`kraus_operators`, one
broadcast product, since M^A_{j alpha} is diagonal, built on every call and
cached nowhere). `evolve` applies them to the state, keeping the pointers'
joint state at each diagonal system entry. A pointer setting is an
observable's two-outcome spectral decomposition, eigenvalues (2,) and
projectors (2, 2, 2) (`pointer_setting`). `pointer_measurement` stacks the
settings of a tuple of observable pairs, one per distinct observable, into
one cached read-only (4P, 16) matrix per (pairs, tilt), and
`outcome_probabilities` contracts the evolved blocks with it in one matrix
product: the joint (pointer A, pointer B, system) outcome table of every j
and setting pair at once. No 2d x 2d or 4d x 4d operator is built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import states

MAX_DIM = 16

# Each pointer observable's (eigenvalue, eigenvector) pairs, the vectors as qubit
# labels of `states.named_ket`.
_POINTER_EIGENSTATES = {
    "X": ((1.0, "D"), (-1.0, "A")),
    "Y": ((1.0, "L"), (-1.0, "R")),
    "Z": ((1.0, "H"), (-1.0, "V")),
    "Pi1": ((1.0, "V"), (0.0, "H")),
}
OBSERVABLE_NAMES = tuple(_POINTER_EIGENSTATES)


def check_dim(d: int) -> None:
    """Reject a non-integer system dimension, or one outside the supported range 1..MAX_DIM."""
    states.check_integer("dimension d", d)
    if not 1 <= d <= MAX_DIM:
        raise ValueError(f"dimension d={d} outside supported range 1..{MAX_DIM}")


def check_theta(theta: float) -> None:
    """Reject a coupling strength outside (0, pi/2], or too small to estimate from.

    Below about 3.4e-77 the estimators' largest constant, method II's
    16 n_ab^2 with n_ab = d / (4 sin^2 theta), overflows at d = MAX_DIM.
    """
    if theta == 0.0:
        raise ValueError("theta = 0 makes the normalization d/(4 sin^2 theta) singular")
    if not 0.0 < theta <= math.pi / 2 + 1e-12:
        raise ValueError(f"theta={theta} outside (0, pi/2]")
    s = math.sin(theta) ** 2
    n_ab = MAX_DIM / (4.0 * s) if s else math.inf
    if math.isinf(16 * n_ab * n_ab):
        raise ValueError(f"theta={theta} too small: 16 n_ab^2 overflows below theta ~ 3.4e-77")


@dataclass(frozen=True)
class CouplingConfig:
    """Dimension and the one coupling strength of both pointers, with derived constants.

    Derived quantities are recomputed on access so they can never go stale.
    theta must pass `check_theta`.
    """

    dim: int
    theta: float

    def __post_init__(self):
        check_dim(self.dim)
        check_theta(self.theta)

    @property
    def t(self) -> float:
        return math.tan(self.theta / 2)

    @property
    def n_ab(self) -> float:
        return self.dim / (4.0 * (math.sin(self.theta) * math.sin(self.theta)))


def pointer_setting(observable: str, tilt: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, projectors) of a supported pointer observable's spectral decomposition.

    eigenvalues is (2,) and projectors (2, 2, 2): projectors[i] is the rank-1
    projector onto eigenvalue i's eigenvector, and the two sum to the
    identity. For Pi1 = |1><1| the order is (1, |1><1|), (0, |0><0|). A
    nonzero `tilt` rotates every projector by that angle about the pointer
    Y axis: a misaligned pointer measurement; an infinite or nan tilt is
    rejected. Built on every call and owned by the caller.
    """
    if observable not in _POINTER_EIGENSTATES:
        raise ValueError(
            f"unknown observable '{observable}', expected one of {OBSERVABLE_NAMES}"
        )
    if not math.isfinite(tilt):
        raise ValueError(f"pointer tilt {tilt!r} is not finite")
    eigenvalues, labels = zip(*_POINTER_EIGENSTATES[observable])
    kets = [states.named_ket(label, 2) for label in labels]
    projectors = [np.outer(v, v.conj()) for v in kets]
    if tilt != 0.0:  # exp(-i tilt Y) on the pointer: a real rotation
        c, s = math.cos(tilt), math.sin(tilt)
        r = np.array([[c, -s], [s, c]], dtype=complex)
        projectors = [r @ p @ r.conj().T for p in projectors]
    return np.array(eigenvalues), np.stack(projectors)


@functools.lru_cache(maxsize=64)
def pointer_measurement(
    pairs: tuple[tuple[str, str], ...], tilt: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """(weights, matrix) of measuring each observable pair on pointers A and B.

    weights[p, alpha, beta] is the product of the two outcome eigenvalues of
    `pairs[p]`, the value of O_A O_B on that outcome. With P, Q the projectors
    of `pointer_setting(obs, tilt)` for the pair's two observables,
    matrix[(p, alpha, beta), (a, b, c, d)] = P_alpha[c, a] Q_beta[d, b], so that
    matrix @ block.ravel() = Tr[(P_alpha (x) Q_beta) block] for a two-pointer
    block indexed [a, b, c, d]. Built once per (pairs, tilt), from one
    `pointer_setting` per distinct observable; both arrays are read-only
    because every caller shares them.
    """
    built = {obs: pointer_setting(obs, tilt) for obs in dict.fromkeys(sum(pairs, ()))}
    settings = [(built[a], built[b]) for a, b in pairs]
    weights = np.stack([np.multiply.outer(eig_a, eig_b) for (eig_a, _), (eig_b, _) in settings])
    proj_a = np.stack([p for (_, p), _ in settings])
    proj_b = np.stack([p for _, (_, p) in settings])
    matrix = np.einsum("pxca,pydb->pxyabcd", proj_a, proj_b).reshape(4 * len(pairs), 16)
    for arr in (weights, matrix):
        arr.flags.writeable = False
    return weights, matrix


def kraus_operators(cfg: CouplingConfig) -> np.ndarray:
    """K[j-1, alpha, beta] = M^B_beta M^A_{j alpha}: pointer A couples first.

    M_alpha = <alpha| exp(-i theta P (x) Y) |0>, the coupling's |0> columns in
    projector form, M_0 = 1 - (1 - cos theta) P and M_1 = sin theta P, checked
    against `qmath.matrix_exponential`; P = |a_j><a_j| for A and |b_0><b_0| = J/d
    for B (J all ones). Real; for every j the four d x d operators are complete,
    sum_{alpha beta} K^dagger K = 1. M^A_{j alpha} is diagonal, so
    K[j-1, alpha, beta, k, i] = M^B_beta[k, i] M^A_{j alpha}[i, i] is one broadcast
    product. Built on every call and owned by the caller: a (d, 2, 2, d, d)
    stack, 4 d^3 floats.
    """
    d, theta = cfg.dim, cfg.theta
    eye = np.eye(d)
    diag_a = np.stack([1.0 - (1.0 - math.cos(theta)) * eye, math.sin(theta) * eye], axis=1)
    proj_b = np.full((d, d), 1.0 / d)
    kraus_b = np.stack([eye - (1.0 - math.cos(theta)) * proj_b, math.sin(theta) * proj_b])
    return kraus_b * diag_a[:, :, None, None, :]


def evolve(rho: states.DensityMatrix, cfg: CouplingConfig) -> np.ndarray:
    """The pointers' joint state after both couplings, at each system outcome.

    blocks[j-1, alpha, beta, gamma, delta, k-1] =
    <a_k| K_{j alpha beta} rho K_{j gamma delta}^dagger |a_k>, the pointer
    block of sigma_j at the k-th diagonal system entry. It stays a function
    of its own, apart from `outcome_probabilities`: it is the part of every
    outcome table that no pointer setting enters, the tests check it against
    the dense evolved state, and the benchmark tracer times it as a layer.
    """
    if rho.dim != cfg.dim:
        raise ValueError(f"state dimension {rho.dim} does not match config d={cfg.dim}")
    kraus = kraus_operators(cfg)  # real, so K^dagger is its transpose
    k_rho = (kraus.reshape(-1, cfg.dim) @ rho.matrix).reshape(kraus.shape)
    return np.einsum("jabki,jcdki->jabcdk", k_rho, kraus)


def outcome_probabilities(
    rho: states.DensityMatrix,
    cfg: CouplingConfig,
    pairs: tuple[tuple[str, str], ...],
    tilt: float = 0.0,
) -> np.ndarray:
    """Joint outcome probabilities of every coupled index j and observable pair.

    probs[j-1, p, alpha, beta, k-1] = Tr[(|a_k><a_k| (x) P_alpha (x) Q_beta) sigma_j]
    with P, Q the projectors of `pointer_setting(obs, tilt)` for the two
    observables of `pairs[p]` and sigma_j the state after both couplings;
    each (j, pair) table sums to 1. One matrix product, the cached
    `pointer_measurement` matrix times the evolved blocks as a (d, 16, d)
    stack, gives every table at once.
    """
    blocks = evolve(rho, cfg)
    _, matrix = pointer_measurement(pairs, tilt)
    d = cfg.dim
    probs = matrix @ blocks.reshape(d, 16, d)
    return _checked_probabilities(probs.reshape(d, len(pairs), 2, 2, d))


def _checked_probabilities(probs: np.ndarray) -> np.ndarray:
    """Real outcome tables [..., alpha, beta, k], each checked to be a distribution."""
    if not np.all(np.isfinite(probs)):
        raise ValueError("outcome probabilities are not finite")
    imag_max = float(np.max(np.abs(probs.imag)))
    if imag_max > states.POSITIVITY_ATOL:
        raise ValueError(f"outcome probabilities have imaginary part {imag_max:.3e}")
    probs = probs.real
    lo = float(probs.min())
    if lo < -states.POSITIVITY_ATOL:
        raise ValueError(f"outcome probability {lo:.3e} below -1e-9: numerical corruption")
    probs = np.where(probs < 0.0, 0.0, probs)
    totals = probs.sum(axis=(-3, -2, -1))
    off = totals[np.abs(totals - 1.0) > 1e-10]
    if off.size:
        raise ValueError(f"outcome probabilities sum to {off[0]:.12g}, expected 1")
    return probs
