"""Two-pointer coupling protocol: unitaries, evolution, outcome probabilities.

The system (dimension d) is coupled in sequence to two qubit pointers A and B,
both prepared in |0>. The first coupling rotates pointer A conditioned on the
basis projector |a_j><a_j|, the second rotates pointer B conditioned on the
projector onto the uniform superposition |b_0>. The order matters: the two
couplings do not commute.

`outcome_probabilities` reads the joint (pointer A, pointer B, system)
outcome table of every requested pointer setting pair from one evolved state.

Tensor-leg order is fixed as system (x) pointerA (x) pointerB everywhere; every
embedding goes through `embedded_coupling` so the convention lives in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmath, states

PROJECTOR_ATOL = 1e-10
PROB_CORRUPT = 1e-9
MAX_DIM = 16

OBSERVABLE_NAMES = ("X", "Y", "Z", "Pi1")

_KET0 = np.array([1.0, 0.0], dtype=complex)
_KET1 = np.array([0.0, 1.0], dtype=complex)
_KETP = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
_KETM = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)
_KETPI = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)
_KETMI = np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2)


def _proj(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


@dataclass(frozen=True)
class CouplingConfig:
    """Dimension and coupling strengths, with derived constants.

    Derived quantities are recomputed on access so they can never go stale.
    theta = 0 is accepted (evolution is then the identity) but `n_ab` is
    undefined there and raises: the estimator formulas divide by sin(theta).
    """

    dim: int
    theta_a: float
    theta_b: float

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dimension d={self.dim} outside supported range 1..{MAX_DIM}")
        for name, th in (("theta_a", self.theta_a), ("theta_b", self.theta_b)):
            if not 0.0 <= th <= math.pi / 2 + 1e-12:
                raise ValueError(f"{name}={th} outside [0, pi/2]")

    @property
    def t_a(self) -> float:
        return math.tan(self.theta_a / 2)

    @property
    def t_b(self) -> float:
        return math.tan(self.theta_b / 2)

    @property
    def n_ab(self) -> float:
        s = math.sin(self.theta_a) * math.sin(self.theta_b)
        if s == 0.0:
            raise ValueError(
                "normalization d/(4 sin(theta_a) sin(theta_b)) is singular at theta=0"
            )
        return self.dim / (4.0 * s)


@dataclass(frozen=True)
class PointerSetting:
    """A pointer observable with its spectral decomposition.

    `projectors` is an ordered tuple of (eigenvalue, rank-1 projector) pairs
    whose projectors sum to the identity. For Pi1 = |1><1| the order is
    (1, |1><1|), (0, |0><0|).
    """

    observable: str
    projectors: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        total = np.zeros((2, 2), dtype=complex)
        for eig, p in self.projectors:
            if not qmath.is_hermitian(p, 1e-12):
                raise ValueError(f"{self.observable}: projector not Hermitian")
            if not qmath.allclose(p @ p, p, atol=1e-12):
                raise ValueError(f"{self.observable}: projector not idempotent")
            total = total + p
        if not qmath.allclose(total, np.eye(2), atol=1e-12):
            raise ValueError(f"{self.observable}: projectors do not sum to identity")

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([eig for eig, _ in self.projectors])

    @property
    def projector_stack(self) -> np.ndarray:
        return np.stack([p for _, p in self.projectors])


def pointer_setting(observable: str, tilt: float = 0.0) -> PointerSetting:
    """Standard decompositions of the supported pointer observables.

    A nonzero `tilt` rotates every projector by that angle about the pointer
    Y axis: a misaligned pointer measurement.
    """
    if observable == "X":
        pairs = ((1.0, _proj(_KETP)), (-1.0, _proj(_KETM)))
    elif observable == "Y":
        pairs = ((1.0, _proj(_KETPI)), (-1.0, _proj(_KETMI)))
    elif observable == "Z":
        pairs = ((1.0, _proj(_KET0)), (-1.0, _proj(_KET1)))
    elif observable == "Pi1":
        pairs = ((1.0, _proj(_KET1)), (0.0, _proj(_KET0)))
    else:
        raise ValueError(
            f"unknown observable '{observable}', expected one of {OBSERVABLE_NAMES}"
        )
    if tilt != 0.0:
        r = pointer_rotation(tilt)
        pairs = tuple((eig, r @ p @ r.conj().T) for eig, p in pairs)
    return PointerSetting(observable=observable, projectors=pairs)


def pointer_rotation(theta: float) -> np.ndarray:
    """exp(-i theta Y) on one pointer: a real rotation by theta."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def coupling_unitary(proj: np.ndarray, theta: float) -> np.ndarray:
    """Closed-form exp(-i theta proj (x) Y) on system (x) pointer.

    Because proj is a projector this equals
    (1 - proj) (x) 1 + proj (x) exp(-i theta Y) exactly, for any theta.
    """
    p = qmath.as_complex_matrix(proj)
    if p.shape[0] != p.shape[1]:
        raise ValueError("coupling projector must be square")
    if not qmath.is_hermitian(p, PROJECTOR_ATOL):
        raise ValueError("coupling operator must be a Hermitian projector")
    if not qmath.allclose(p @ p, p, atol=PROJECTOR_ATOL):
        raise ValueError("coupling operator must be idempotent (a projector)")
    d = p.shape[0]
    return qmath.tensor(np.eye(d) - p, np.eye(2)) + qmath.tensor(p, pointer_rotation(theta))


def embedded_coupling(proj: np.ndarray, theta: float, pointer: str, d: int) -> np.ndarray:
    """Coupling of a system projector to one pointer, embedded in system (x) A (x) B."""
    p = qmath.as_complex_matrix(proj)
    if pointer == "A":
        return qmath.tensor(coupling_unitary(p, theta), np.eye(2))
    if pointer == "B":
        return qmath.tensor(np.eye(d) - p, np.eye(4)) + qmath.tensor(
            p, qmath.tensor(np.eye(2), pointer_rotation(theta))
        )
    raise ValueError(f"pointer must be 'A' or 'B', got '{pointer}'")


def build_coupled_evolution(j: int, cfg: CouplingConfig) -> np.ndarray:
    """The full 4d x 4d unitary U_B U_{A,j} (A-coupling applied first)."""
    d = cfg.dim
    if not 1 <= j <= d:
        raise ValueError(f"coupled index j={j} out of range 1..{d}")
    proj_aj = _proj(states.basis_state(d, j))
    proj_b0 = _proj(states.b0_state(d))
    u_a = embedded_coupling(proj_aj, cfg.theta_a, "A", d)
    u_b = embedded_coupling(proj_b0, cfg.theta_b, "B", d)
    return u_b @ u_a


def evolve(rho: states.DensityMatrix, j: int, cfg: CouplingConfig) -> np.ndarray:
    """Evolve rho (x) |0><0| (x) |0><0| through the two couplings for index j."""
    if rho.dim != cfg.dim:
        raise ValueError(f"state dimension {rho.dim} does not match config d={cfg.dim}")
    p0 = _proj(_KET0)
    sigma_in = qmath.tensor(rho.matrix, qmath.tensor(p0, p0))
    u = build_coupled_evolution(j, cfg)
    return u @ sigma_in @ u.conj().T


def outcome_probabilities(
    sigma_out: np.ndarray,
    setting_pairs: tuple[tuple[PointerSetting, PointerSetting], ...],
) -> np.ndarray:
    """Joint outcome probabilities of every (pointer A, pointer B) setting pair.

    probs[p, alpha, beta, k] = Tr[(|a_{k+1}><a_{k+1}| (x) P_alpha (x) Q_beta) sigma_out]
    with P, Q the projectors of `setting_pairs[p]`; each pair's table sums to 1.
    """
    sigma = qmath.as_complex_matrix(sigma_out)
    n = sigma.shape[0]
    d, rem = divmod(n, 4)
    if rem != 0 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"tripartite operator must be 4d x 4d, got {sigma.shape}")
    proj_a = np.stack([a.projector_stack for a, _ in setting_pairs])
    proj_b = np.stack([b.projector_stack for _, b in setting_pairs])
    t = sigma.reshape(d, 2, 2, d, 2, 2)
    # Tr[(Pi_k (x) P (x) Q) sigma] contracts only the k-th diagonal system block.
    probs = np.einsum("pxaA,pybB,kABkab->pxyk", proj_a, proj_b, t)
    imag_max = float(np.max(np.abs(probs.imag)))
    if imag_max > PROB_CORRUPT:
        raise ValueError(f"outcome probabilities have imaginary part {imag_max:.3e}")
    probs = probs.real
    lo = float(probs.min())
    if lo < -PROB_CORRUPT:
        raise ValueError(f"outcome probability {lo:.3e} below -1e-9: numerical corruption")
    probs = np.where(probs < 0.0, 0.0, probs)
    totals = probs.sum(axis=(1, 2, 3))
    off = totals[np.abs(totals - 1.0) > 1e-10]
    if off.size:
        raise ValueError(f"outcome probabilities sum to {off[0]:.12g}, expected 1")
    return probs
