"""System states: basis vectors, purity families, random mixed states.

States live in a d-dimensional Hilbert space with the coupled basis {|a_j>},
j = 1..d, represented computationally by the standard unit vectors. All j/k
indices in the public API are 1-based to match that labelling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmath

POSITIVITY_ATOL = 1e-9


@dataclass(frozen=True)
class DensityMatrix:
    """A Hermitian, unit-trace, positive semidefinite d x d operator.

    Raw reconstructions, which need not be positive, are plain arrays.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = qmath.as_complex_matrix(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        if not qmath.is_hermitian(m):
            raise ValueError("density matrix must be Hermitian within 1e-10")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > qmath.DEFAULT_ATOL:
            raise ValueError(f"density matrix must have unit trace, got {tr:.12g}")
        lo = float(np.min(np.linalg.eigvalsh(qmath.hermitian_part(m))))
        if lo < -POSITIVITY_ATOL:
            raise ValueError(f"density matrix must be positive, has eigenvalue {lo:.3e}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def basis_state(d: int, j: int) -> np.ndarray:
    """Unit vector |a_j>, j in 1..d."""
    if not 1 <= j <= d:
        raise ValueError(f"basis index j={j} out of range 1..{d}")
    v = np.zeros(d, dtype=complex)
    v[j - 1] = 1.0
    return v


def b0_state(d: int) -> np.ndarray:
    """Uniform superposition (1/sqrt(d)) sum_j |a_j>; equals |D> at d = 2."""
    if d < 1:
        raise ValueError("dimension must be positive")
    return np.full(d, 1.0 / np.sqrt(d), dtype=complex)


def pure_state(psi: np.ndarray) -> DensityMatrix:
    """|psi><psi| for a unit-norm state vector."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"state vector must be unit norm, got |psi| = {nrm:.12g}")
    return DensityMatrix(np.outer(v, v.conj()))


def maximally_mixed(d: int) -> DensityMatrix:
    return DensityMatrix(np.eye(d, dtype=complex) / d)


def purity_family(p: float, psi: np.ndarray) -> DensityMatrix:
    """Depolarized pure state p |psi><psi| + (1 - p) 1/d."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing parameter p={p} outside [0, 1]")
    v = np.asarray(psi, dtype=complex).reshape(-1)
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"state vector must be unit norm, got |psi| = {nrm:.12g}")
    d = v.size
    m = p * np.outer(v, v.conj()) + (1.0 - p) * np.eye(d) / d
    return DensityMatrix(m)


def random_density(d: int, seed: int) -> DensityMatrix:
    """Seeded random mixed state G G^dagger / Tr(G G^dagger), G complex Ginibre."""
    if d < 1:
        raise ValueError("dimension must be positive")
    rng = np.random.Generator(np.random.Philox(seed))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix(m)


def purity(r: DensityMatrix) -> float:
    """Tr(rho^2); 1 for pure states, 1/d for the maximally mixed state."""
    m = r.matrix
    return float(np.trace(m @ m).real)


# -- State specification grammar ---------------------------------------------
#
# Config files refer to states by short specs:
#   pure:<label>            named pure state (H, V, D, A, R, L at d=2; a<j>, b0 any d)
#   mixed                   maximally mixed
#   family:p=<float>,psi=<label>
#   random:seed=<int>

_QUBIT_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2),
    "A": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2),
    "R": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2),
    "L": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2),
}


def named_ket(label: str, d: int) -> np.ndarray:
    """Resolve a pure-state label to a state vector of dimension d."""
    if label == "b0":
        return b0_state(d)
    if label.startswith("a") and label[1:].isdigit():
        return basis_state(d, int(label[1:]))
    if label in _QUBIT_KETS:
        if d != 2:
            raise ValueError(f"polarization label '{label}' requires d=2, got d={d}")
        return _QUBIT_KETS[label].copy()
    raise ValueError(
        f"unknown state label '{label}' (expected one of H,V,D,A,R,L, a<j>, b0)"
    )


def parse_state_spec(spec: str, d: int) -> DensityMatrix:
    """Build a DensityMatrix from a state-spec string."""
    text = spec.strip()
    if text == "mixed":
        return maximally_mixed(d)
    if text.startswith("pure:"):
        return pure_state(named_ket(text[len("pure:"):], d))
    if text.startswith("family:"):
        params = {}
        for part in text[len("family:"):].split(","):
            key, _, val = part.partition("=")
            if key not in ("p", "psi"):
                raise ValueError(f"unknown family parameter '{key}' in '{spec}'")
            if key in params:
                raise ValueError(f"family parameter '{key}' given twice in '{spec}'")
            params[key] = val
        needs = f"family spec needs p=<float>,psi=<label>: '{spec}'"
        if len(params) < 2:
            raise ValueError(needs)
        try:
            p = float(params["p"])
        except ValueError:
            raise ValueError(needs) from None
        return purity_family(p, named_ket(params["psi"], d))
    if text.startswith("random:"):
        return random_density(d, _random_seed(text))
    raise ValueError(f"unrecognized state spec '{spec}'")


def check_state_spec(spec: str, d: int) -> None:
    """Raise ValueError unless `parse_state_spec(spec, d)` builds a state.

    A random spec is checked without drawing the state, which would import
    numpy.random while a config is only being read.
    """
    text = spec.strip()
    if text.startswith("random:"):
        _random_seed(text)
    else:
        parse_state_spec(text, d)


def _random_seed(text: str) -> int:
    key, _, val = text[len("random:"):].partition("=")
    needs = f"random spec needs seed=<int>: '{text}'"
    if key != "seed":
        raise ValueError(needs)
    try:
        seed = int(val)
    except ValueError:
        raise ValueError(needs) from None
    if seed < 0:
        raise ValueError(f"random spec needs a nonnegative seed: '{text}'")
    return seed
