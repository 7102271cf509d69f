"""Two-pointer coupling protocol: unitaries, Kraus operators, outcome probabilities.

The system (dimension d) is coupled in sequence to two qubit pointers A and B,
both prepared in |0>. The first coupling rotates pointer A conditioned on the
basis projector |a_j><a_j|, the second rotates pointer B conditioned on the
projector onto the uniform superposition |b_0>. The order matters: the two
couplings do not commute.

Each coupling is exp(-i theta P (x) Y) with P a projector, on system (x)
pointer (`coupling_unitary`: the convention, and the oracle of the Kraus
operators). Both pointers start in |0>, so each coupling acts on the system
through M_0 = 1 - (1 - cos theta) P and M_1 = sin theta P, built in projector
form. Pointer A acts first, so outcome (alpha, beta) of the j-th measurement
applies K_{j alpha beta} = M^B_beta M^A_{j alpha} (`kraus_operators`). `evolve`
applies them to the state, keeping the pointers' joint state at each diagonal
system entry, and `outcome_probabilities` contracts that with the pointer
setting projectors into the joint (pointer A, pointer B, system) outcome table
of every j and setting pair at once. No 2d x 2d or 4d x 4d operator is built.
"""

from __future__ import annotations

import functools
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


def check_dim(d: int) -> None:
    """Reject a system dimension outside the supported range 1..MAX_DIM."""
    if not 1 <= d <= MAX_DIM:
        raise ValueError(f"dimension d={d} outside supported range 1..{MAX_DIM}")


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
        check_dim(self.dim)
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


@functools.lru_cache(maxsize=64)
def pointer_setting(observable: str, tilt: float = 0.0) -> PointerSetting:
    """Standard decompositions of the supported pointer observables.

    A nonzero `tilt` rotates every projector by that angle about the pointer
    Y axis: a misaligned pointer measurement. Built and validated once per
    (observable, tilt); the projectors are read-only because every caller
    shares them.
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
    for _, p in pairs:
        p.flags.writeable = False
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
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("coupling projector must be square")
    if not qmath.is_hermitian(p, PROJECTOR_ATOL):
        raise ValueError("coupling operator must be a Hermitian projector")
    if not qmath.allclose(p @ p, p, atol=PROJECTOR_ATOL):
        raise ValueError("coupling operator must be idempotent (a projector)")
    d = p.shape[0]
    return qmath.tensor(np.eye(d) - p, np.eye(2)) + qmath.tensor(p, pointer_rotation(theta))


def _kraus(proj: np.ndarray, theta: float) -> np.ndarray:
    """M[..., alpha, :, :] = <alpha| exp(-i theta P (x) Y) |0> for a projector P, or a stack.

    In projector form M_0 = 1 - (1 - cos theta) P and M_1 = sin theta P: the |0>
    column of `coupling_unitary`, which is their oracle, not a pipeline step.
    """
    m0 = np.eye(proj.shape[-1]) - (1.0 - math.cos(theta)) * proj
    return np.stack([m0, math.sin(theta) * proj], axis=-3)


def kraus_operators(cfg: CouplingConfig) -> np.ndarray:
    """K[j-1, alpha, beta] = M^B_beta M^A_{j alpha}: pointer A couples first.

    Real, from the projectors |a_j><a_j| (A) and |b_0><b_0| = J/d (B, J all ones); for
    every j the four d x d operators are complete, sum_{alpha beta} K^dagger K = 1.
    """
    d = cfg.dim
    kraus_a = _kraus(np.eye(d)[:, :, None] * np.eye(d), cfg.theta_a)
    kraus_b = _kraus(np.full((d, d), 1.0 / d), cfg.theta_b)
    return np.einsum("bkm,jami->jabki", kraus_b, kraus_a)


def evolve(rho: states.DensityMatrix, cfg: CouplingConfig) -> np.ndarray:
    """The pointers' joint state after both couplings, at each system outcome.

    blocks[j-1, alpha, beta, gamma, delta, k-1] =
    <a_k| K_{j alpha beta} rho K_{j gamma delta}^dagger |a_k>, the pointer
    block of sigma_j at the k-th diagonal system entry; the setting-independent
    part of every outcome table.
    """
    if rho.dim != cfg.dim:
        raise ValueError(f"state dimension {rho.dim} does not match config d={cfg.dim}")
    kraus = kraus_operators(cfg)
    return np.einsum("jabki,jcdki->jabcdk", kraus @ rho.matrix, kraus.conj())


def outcome_probabilities(
    rho: states.DensityMatrix,
    cfg: CouplingConfig,
    setting_pairs: tuple[tuple[PointerSetting, PointerSetting], ...],
) -> np.ndarray:
    """Joint outcome probabilities of every coupled index j and setting pair.

    probs[j-1, p, alpha, beta, k-1] = Tr[(|a_k><a_k| (x) P_alpha (x) Q_beta) sigma_j]
    with P, Q the projectors of `setting_pairs[p]` and sigma_j the state after
    both couplings; each (j, pair) table sums to 1.
    """
    blocks = evolve(rho, cfg)
    proj_a = np.stack([a.projector_stack for a, _ in setting_pairs])
    proj_b = np.stack([b.projector_stack for _, b in setting_pairs])
    return _checked_probabilities(np.einsum("pxca,pydb,jabcdk->jpxyk", proj_a, proj_b, blocks))


def _checked_probabilities(probs: np.ndarray) -> np.ndarray:
    """Real outcome tables [..., alpha, beta, k], each checked to be a distribution."""
    imag_max = float(np.max(np.abs(probs.imag)))
    if imag_max > PROB_CORRUPT:
        raise ValueError(f"outcome probabilities have imaginary part {imag_max:.3e}")
    probs = probs.real
    lo = float(probs.min())
    if lo < -PROB_CORRUPT:
        raise ValueError(f"outcome probability {lo:.3e} below -1e-9: numerical corruption")
    probs = np.where(probs < 0.0, 0.0, probs)
    totals = probs.sum(axis=(-3, -2, -1))
    off = totals[np.abs(totals - 1.0) > 1e-10]
    if off.size:
        raise ValueError(f"outcome probabilities sum to {off[0]:.12g}, expected 1")
    return probs
