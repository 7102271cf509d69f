"""Pointer correlation values <O_A O_B>_{j,k}, three ways.

Each correlation is the expectation of
Pi_{a_k} (x) O_A (x) O_B on the state after the j-th pair of couplings.
Three evaluation paths are provided:

  exact     numerical outcome probabilities from the couplings' Kraus operators
  analytic  closed-form expressions in the entries of rho
  sampled   finite-N multinomial draw from the joint outcome distribution,
            one generator per (grid point, seed) for all of its tables

The exact and sampled paths read the joint outcome probabilities of one grid
point, one dense `OutcomeTables` array indexed [j-1, pair, alpha, beta, k-1],
and fill a dense `Correlations` tensor indexed [j-1, k-1, pair]; the analytic
path gives one value at a time. Given a list of root seeds, the sampled path
draws every seed of a grid point in one call and returns one `Correlations`
with a leading seed axis, [seed, j-1, k-1, pair], which the estimators read
in one call; seed s's slice is bit for bit the set drawn from root_seed[s]
alone. `stack_sets` joins separately drawn sets the same way. The exact and
analytic paths are independent implementations and must agree; their
agreement cross-validates both the Kraus contraction and the closed forms.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import protocol, states
from .protocol import CouplingConfig

ObsPair = tuple[str, str]

# Observable pairs consumed by each estimator.
PAIRS_WEAK: tuple[ObsPair, ...] = (("X", "X"), ("Y", "Y"), ("Y", "X"), ("X", "Y"))
PAIRS_EXACT_I: tuple[ObsPair, ...] = PAIRS_WEAK + (
    ("X", "Pi1"),
    ("Pi1", "X"),
    ("Y", "Pi1"),
    ("Pi1", "Pi1"),
)
PAIRS_EXACT_II: tuple[ObsPair, ...] = (("Pi1", "Pi1"), ("Y", "Y"), ("X", "Y"))

SUPPORTED_PAIRS: tuple[ObsPair, ...] = PAIRS_EXACT_I


def derive_seed(root: int, *parts) -> int:
    """Stable 64-bit seed from a root seed and arbitrary coordinates."""
    payload = "::".join([str(root), *map(str, parts)]).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


@dataclass(frozen=True)
class OutcomeTables:
    """Joint outcome probabilities of every (j, pair) setting at one grid point.

    `probs[j-1, p, alpha, beta, k-1]` is the probability that, with the j-th
    coupling and `pairs[p]` measured, pointer A gives its alpha-th listed
    outcome, pointer B its beta-th and the system lands on |a_k>; each
    (j, pair) table sums to 1. `weights[p, alpha, beta]` is the product of
    the two outcome eigenvalues, the value of O_A O_B on that outcome.
    """

    pairs: tuple[ObsPair, ...]
    weights: np.ndarray
    probs: np.ndarray


@dataclass(frozen=True)
class Correlations:
    """Correlation values for every coupled index j, outcome k and observable pair.

    The protocol reads all final outcomes k of one (j, pair) setting at once,
    so the data is a dense tensor: `values[j-1, k-1, p]` is <O_A O_B> for
    `pairs[p]`. `std_error` has the same shape and is all zeros for exact
    data; `n_events` is the event count per (j, pair) setting, 0 when exact.

    Several sets of one grid point stack along leading axes (`stack_sets`):
    `values[s, j-1, k-1, p]` is seed s's value, and all slices share
    `n_events`. The estimators read a stack in one call and return results
    that carry the same leading axis.
    """

    pairs: tuple[ObsPair, ...]
    values: np.ndarray
    std_error: np.ndarray
    n_events: int = 0

    def __post_init__(self):
        shape = self.values.shape
        if (
            len(shape) < 3
            or shape[-3:] != (shape[-3], shape[-3], len(self.pairs))
            or self.std_error.shape != shape
        ):
            raise ValueError(
                f"values and std_error must be shaped (..., d, d, {len(self.pairs)}), "
                f"got {shape} and {self.std_error.shape}"
            )
        if np.any(self.std_error < 0.0):
            raise ValueError("standard error must be nonnegative")
        if self.n_events == 0 and np.any(self.std_error > 0.0):
            raise ValueError("only sampled correlations carry a standard error")

    @property
    def dim(self) -> int:
        return self.values.shape[-2]

    def column(self, pair: ObsPair) -> tuple[np.ndarray, np.ndarray]:
        """(values, std_error) of one observable pair, each indexed [..., j-1, k-1]."""
        if pair not in self.pairs:
            raise ValueError(f"missing correlation <{pair[0]}_A {pair[1]}_B>")
        p = self.pairs.index(pair)
        return self.values[..., p], self.std_error[..., p]

    def __len__(self) -> int:
        return self.values.size


def stack_sets(sets) -> Correlations:
    """One `Correlations` with a leading axis over several sets of the same pairs and n_events."""
    first = sets[0]
    if any(c.pairs != first.pairs or c.n_events != first.n_events for c in sets):
        raise ValueError("stacked correlation sets must share pairs and n_events")
    return Correlations(
        first.pairs,
        np.array([c.values for c in sets]),
        np.array([c.std_error for c in sets]),
        first.n_events,
    )


def records_from_table(tables: OutcomeTables) -> np.ndarray:
    """Exact correlations of every (j, k, pair), indexed [j-1, k-1, p]."""
    return np.einsum("pxy,jpxyk->jkp", tables.weights, tables.probs)


def analytic_correlation(
    rho: states.DensityMatrix,
    j: int,
    k: int,
    obs_a: str,
    obs_b: str,
    cfg: CouplingConfig,
) -> float:
    """Correlation from the closed-form expression in the entries of rho.

    Supported observable pairs: XX, XY, YX, YY, Pi1-X, X-Pi1, Y-Pi1, Pi1-Pi1.
    With s = sin(theta), c = cos(theta) per pointer and n = d/(4 s_A s_B),
    each pair reduces to a short combination of row sums of rho.
    """
    pair = (obs_a, obs_b)
    if pair not in SUPPORTED_PAIRS:
        raise ValueError(
            f"no closed form for <{obs_a}_A {obs_b}_B>; supported pairs: "
            + ", ".join(f"{a}-{b}" for a, b in SUPPORTED_PAIRS)
        )
    d = cfg.dim
    if not (1 <= j <= d and 1 <= k <= d):
        raise ValueError(f"indices (j={j}, k={k}) out of range 1..{d}")
    m = rho.matrix
    n = cfg.n_ab
    s_a, c_a = math.sin(cfg.theta_a), math.cos(cfg.theta_a)
    s_b, c_b = math.sin(cfg.theta_b), math.cos(cfg.theta_b)
    delta = 1.0 if j == k else 0.0
    row = m[j - 1, :]
    sum_re = float(row.real.sum())
    sum_im = float(row.imag.sum())
    p_jj = float(m[j - 1, j - 1].real)
    sum_re_off = sum_re - p_jj
    sum_im_off = sum_im - float(m[j - 1, j - 1].imag)
    re_jk = float(m[j - 1, k - 1].real)
    im_jk = float(m[j - 1, k - 1].imag)

    if pair == ("X", "X"):
        value = ((1.0 - delta) * re_jk + delta * sum_re_off + 2.0 * c_a * delta * re_jk) / (
            2.0 * n
        ) + (c_b - 1.0) * (sum_re_off + c_a * p_jj) / (d * n)
    elif pair == ("X", "Y"):
        value = (im_jk - delta * sum_im_off) / (2.0 * n)
    elif pair == ("Y", "X"):
        value = (
            im_jk + delta * sum_im_off + 2.0 * (c_b - 1.0) * sum_im / d
        ) / (2.0 * n)
    elif pair == ("Y", "Y"):
        value = (-re_jk + delta * sum_re) / (2.0 * n)
    elif pair == ("Pi1", "X"):
        value = delta * s_a * re_jk / (2.0 * n) + s_a * (c_b - 1.0) * p_jj / (2.0 * d * n)
    elif pair == ("X", "Pi1"):
        value = s_b * sum_re / (2.0 * d * n) + s_b * (c_a - 1.0) * p_jj / (2.0 * d * n)
    elif pair == ("Y", "Pi1"):
        value = s_b * sum_im / (2.0 * d * n)
    else:  # ("Pi1", "Pi1"), independent of k
        value = p_jj / (16.0 * n * n)
    return value


def sample_counts(tables: OutcomeTables, n: int, root_seed: int | Sequence[int]) -> np.ndarray:
    """Draw n events from every (j, pair) table; integer counts shaped like `probs`.

    Each root seed keys one counter-based Philox generator, which makes one
    multinomial draw over the stack of flattened (j, pair) tables:
    reproducible across runs and workers, with cost independent of n. A
    table's counts depend on its root seed and on every table drawn with it.
    An int root seed gives counts shaped like `probs`; a sequence of S root
    seeds gives an (S, ...) stack whose slice s is the counts of root_seed[s]
    alone, whatever the other roots are.
    """
    if n < 1:
        raise ValueError("need at least one event")
    single = isinstance(root_seed, numbers.Integral)
    roots = [root_seed] if single else list(root_seed)
    if not roots:
        raise ValueError("need at least one root seed")
    probs = tables.probs
    flat = probs.reshape(*probs.shape[:2], -1)
    pvals = flat / flat.sum(axis=-1, keepdims=True)
    counts = np.empty((len(roots), *flat.shape), dtype=np.int64)
    for out, root in zip(counts, roots):
        out[...] = np.random.Generator(np.random.Philox(root)).multinomial(n, pvals)
    counts = counts.reshape(len(roots), *probs.shape)
    return counts[0] if single else counts


def sampled_records_from_counts(
    tables: OutcomeTables, counts: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Correlation estimates and plug-in standard errors, each indexed [..., j-1, k-1, p].

    `counts` is shaped like `probs`, or a stack of such with leading axes,
    which the result keeps.
    """
    w, freq = tables.weights, counts / n
    est = np.einsum("pxy,...jpxyk->...jkp", w, freq)
    second = np.einsum("pxy,...jpxyk->...jkp", w * w, freq)
    var = np.maximum(second - est * est, 0.0) / n
    return est, np.sqrt(var)


def correlation_set_from_tables(
    tables: OutcomeTables,
    sampled: bool = False,
    n: int = 0,
    root_seed: int | Sequence[int] = 0,
) -> Correlations:
    """Correlations for every (j, k, pair) from the outcome tables of one grid point.

    In sampled mode each (j, pair) table gets its own n-event draw, all of
    them from one generator keyed by the root seed: one per (grid point, seed).
    A sequence of S root seeds draws S sets in one call and returns them as
    one `Correlations` indexed [s, j-1, k-1, p]; slice s equals the set of
    root_seed[s] alone, bit for bit.
    """
    if sampled:
        counts = sample_counts(tables, n, root_seed)
        values, std_error = sampled_records_from_counts(tables, counts, n)
        return Correlations(tables.pairs, values, std_error, n)
    values = records_from_table(tables)
    return Correlations(tables.pairs, values, np.zeros_like(values))


def build_tables(
    rho: states.DensityMatrix,
    cfg: CouplingConfig,
    pairs: tuple[ObsPair, ...],
    tilt: float = 0.0,
) -> OutcomeTables:
    """Outcome tables for every coupled index j and requested observable pair.

    The pairs' eigenvalue weights and pointer projectors come from the cached
    `protocol.pointer_measurement`, built once per (pairs, tilt), and one
    `outcome_probabilities` call, one matrix product, covers every j. A
    nonzero `tilt` rotates every pointer projector (pointer-rotation bias).
    """
    weights, _ = protocol.pointer_measurement(pairs, tilt)
    return OutcomeTables(pairs, weights, protocol.outcome_probabilities(rho, cfg, pairs, tilt))


def exact_correlation_set(
    rho: states.DensityMatrix, cfg: CouplingConfig, pairs: tuple[ObsPair, ...]
) -> Correlations:
    """All (j, k) exact correlations for the requested pairs."""
    return correlation_set_from_tables(build_tables(rho, cfg, pairs))


def sampled_correlation_set(
    rho: states.DensityMatrix,
    cfg: CouplingConfig,
    pairs: tuple[ObsPair, ...],
    n: int,
    root_seed: int | Sequence[int],
) -> Correlations:
    """All (j, k) sampled correlations, n events per (j, pair) setting.

    A sequence of root seeds gives one set per seed, stacked on a leading axis.
    """
    return correlation_set_from_tables(
        build_tables(rho, cfg, pairs), sampled=True, n=n, root_seed=root_seed
    )
