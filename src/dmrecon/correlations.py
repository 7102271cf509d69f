"""Pointer correlation values <O_A O_B>_{j,k}, three ways.

Each correlation is the expectation of
Pi_{a_k} (x) O_A (x) O_B on the state after the j-th pair of couplings.
Three evaluation paths are provided:

  exact     numerical outcome probabilities from the couplings' Kraus operators
  analytic  closed-form expressions in the entries of rho
  sampled   finite-N multinomial draw over each table's outcome classes,
            one random stream per (grid point, seed) for all of its tables

The exact and sampled paths are one constructor, `correlation_set` (or
`correlation_set_from_tables` on tables already built), whose event count n
picks the path: 0 is exact, as in `Correlations.n_events`, and n >= 1 draws.
Both read the joint outcome probabilities of one grid point, one dense
`OutcomeTables` array indexed [j-1, pair, alpha, beta, k-1], and fill a dense
`Correlations` tensor indexed [j-1, k-1, pair]; the analytic path gives one
value at a time. A correlation and its plug-in error read only the first
and second moments of O_A O_B at each k, and every weight is +1, -1 or 0,
so the sampled path draws each (j, pair) table's 2d + 1 outcome classes
(`outcome_classes`), not its 4d cells: merged cells of a multinomial are a
multinomial over the summed probabilities, so the estimates keep their
exact distribution. Tables and sets carry the `CouplingConfig` they were built
at. Given a list of root seeds, the sampled path draws every seed of a grid
point in one call and returns one `Correlations` with a leading seed axis,
[seed, j-1, k-1, pair]; seed s's slice is the set of root_seed[s] alone, bit
for bit. `stack_sets` joins separately drawn sets the same way. A root seed
is a 128-bit Philox key, such as `derive_seed` returns, and `sample_counts`
draws each one's stream by the README's "Sampled streams" rule. The exact
and analytic paths are independent, so their agreement cross-validates both
the Kraus contraction and the closed forms.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

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
    """Stable 128-bit Philox key from a root seed and arbitrary coordinates.

    The root and the coordinates, as text joined by "::", are hashed with
    sha256, and the key is the digest's first 16 bytes, read little-endian.
    Any 128-bit value is a valid Philox key (Salmon et al., "Parallel random
    numbers: as easy as 1, 2, 3", SC 2011), so the key seeds
    `Philox(key=derive_seed(...))` directly, with no further hashing.
    """
    payload = "::".join([str(root), *map(str, parts)]).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:16], "little")


@dataclass(frozen=True)
class OutcomeTables:
    """Joint outcome probabilities of every (j, pair) setting at one grid point.

    `probs[j-1, p, alpha, beta, k-1]` is the probability that, with the j-th
    coupling of `cfg` and `pairs[p]` measured, pointer A gives its alpha-th
    listed outcome, pointer B its beta-th and the system lands on |a_k>; each
    (j, pair) table sums to 1. `weights[p, alpha, beta]` is the product of
    the two outcome eigenvalues, the value of O_A O_B on that outcome.
    """

    cfg: CouplingConfig
    pairs: tuple[ObsPair, ...]
    weights: np.ndarray
    probs: np.ndarray


@dataclass(frozen=True)
class Correlations:
    """Correlation values for every coupled index j, outcome k and observable pair.

    The protocol reads all final outcomes k of one (j, pair) setting at once,
    so the data is a dense tensor: `values[j-1, k-1, p]` is <O_A O_B> for
    `pairs[p]` at the coupling `cfg`. `std_error` has the same shape and is
    all zeros for exact data; `n_events` is the event count per (j, pair)
    setting, 0 when exact.

    Sets stack along leading axes (`stack_sets`): `values[s, j-1, k-1, p]`
    is slice s's value, all slices share `n_events`, and `cfg` is their one
    config or a tuple of one per slice of the first axis. The estimators
    read a stack in one call and return results with the same leading axes.
    """

    cfg: CouplingConfig | tuple[CouplingConfig, ...]
    pairs: tuple[ObsPair, ...]
    values: np.ndarray
    std_error: np.ndarray
    n_events: int = 0

    def __post_init__(self):
        states.check_integer("n_events", self.n_events)
        if self.n_events < 0:
            raise ValueError(f"n_events={self.n_events} is negative")
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
        per_slice = isinstance(self.cfg, tuple)
        for c in self.cfg if per_slice else (self.cfg,):
            if not isinstance(c, CouplingConfig):
                raise TypeError(f"cfg must be a CouplingConfig or a tuple of them, got {c!r}")
            if c.dim != self.dim:
                raise ValueError(f"correlations are for d={self.dim}, config has d={c.dim}")
        if per_slice and (len(shape) < 4 or len(self.cfg) != shape[0]):
            raise ValueError(f"{len(self.cfg)} configs for correlations shaped {shape}")
        if not np.all(self.std_error >= 0.0):  # also rejects nan
            raise ValueError("standard error must be nonnegative")
        if self.n_events == 0 and not np.all(self.std_error == 0.0):
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
    """One `Correlations` with a leading axis over sets of the same pairs, n_events and d.

    The stack keeps the one config the sets share, or else holds one per set.
    """
    if not sets:
        raise ValueError("a stack needs at least one correlation set")
    first = sets[0]
    for c in sets:
        if c.pairs != first.pairs or c.n_events != first.n_events:
            raise ValueError("stacked correlation sets must share pairs and n_events")
        if c.values.shape != first.values.shape:
            raise ValueError(
                "stacked correlation sets must share pairs and n_events, and values of "
                f"one shape; got {first.values.shape} and {c.values.shape}"
            )
    cfgs = tuple(c.cfg for c in sets)  # a set with one config per slice nests, and is rejected
    return Correlations(
        first.cfg if len(set(cfgs)) == 1 and isinstance(first.cfg, CouplingConfig) else cfgs,
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
    With s = sin(theta), c = cos(theta) and n = d/(4 s^2), each pair
    reduces to a short combination of row sums of rho.
    """
    pair = (obs_a, obs_b)
    if pair not in SUPPORTED_PAIRS:
        raise ValueError(
            f"no closed form for <{obs_a}_A {obs_b}_B>; supported pairs: "
            + ", ".join(f"{a}-{b}" for a, b in SUPPORTED_PAIRS)
        )
    d = cfg.dim
    if rho.dim != d:
        raise ValueError(f"state dimension {rho.dim} does not match config d={d}")
    if not (1 <= j <= d and 1 <= k <= d):
        raise ValueError(f"indices (j={j}, k={k}) out of range 1..{d}")
    m = rho.matrix
    n = cfg.n_ab
    s, c = math.sin(cfg.theta), math.cos(cfg.theta)
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
        value = ((1.0 - delta) * re_jk + delta * sum_re_off + 2.0 * c * delta * re_jk) / (
            2.0 * n
        ) + (c - 1.0) * (sum_re_off + c * p_jj) / (d * n)
    elif pair == ("X", "Y"):
        value = (im_jk - delta * sum_im_off) / (2.0 * n)
    elif pair == ("Y", "X"):
        value = (im_jk + delta * sum_im_off + 2.0 * (c - 1.0) * sum_im / d) / (2.0 * n)
    elif pair == ("Y", "Y"):
        value = (-re_jk + delta * sum_re) / (2.0 * n)
    elif pair == ("Pi1", "X"):
        value = delta * s * re_jk / (2.0 * n) + s * (c - 1.0) * p_jj / (2.0 * d * n)
    elif pair == ("X", "Pi1"):
        value = s * sum_re / (2.0 * d * n) + s * (c - 1.0) * p_jj / (2.0 * d * n)
    elif pair == ("Y", "Pi1"):
        value = s * sum_im / (2.0 * d * n)
    else:  # ("Pi1", "Pi1"), independent of k
        value = p_jj / (16.0 * n * n)
    return value


def outcome_classes(tables: OutcomeTables) -> np.ndarray:
    """Probabilities of every (j, pair) table's 2d + 1 outcome classes, indexed [j-1, p, c].

    Class c = k-1 holds the outcomes of weight +1 at system outcome k, class
    d + k-1 those of weight -1 at k, and class 2d pools every zero-weight
    outcome over all k. A pair without a weight -1 outcome (Pi1-Pi1) has
    probability 0 in classes d..2d-1. The classes partition each table, so
    they carry its sum and its moments: sum_c p_c = 1 per (j, pair), and at
    each k the +1 class minus (plus) the -1 class is sum w p (sum w^2 p).
    """
    w, probs = tables.weights[..., None], tables.probs
    if not np.all(np.isin(w, (-1.0, 0.0, 1.0))):
        raise ValueError("outcome classes need every weight in {-1, 0, 1}")
    plus = np.where(w == 1.0, probs, 0.0).sum(axis=(2, 3))
    minus = np.where(w == -1.0, probs, 0.0).sum(axis=(2, 3))
    pool = np.where(w == 0.0, probs, 0.0).sum(axis=(2, 3, 4))
    return np.concatenate([plus, minus, pool[..., None]], axis=-1)


def sample_counts(
    tables: OutcomeTables | None,
    n: int,
    keys: Sequence[int],
    born: np.ndarray | Sequence[np.ndarray] = (),
) -> tuple[np.ndarray | None, np.ndarray]:
    """Draw n events from every (j, pair) table and Born vector, for each Philox key.

    `keys` holds one 128-bit Philox key per slice, as `derive_seed` returns
    them: an integer in 0..2**128-1, a numpy integer included and a bool
    not. Slice s draws from the stream of `Philox(key=keys[s])`, by the
    README's "Sampled streams" rule: one multinomial over the (d, P, 2d + 1)
    outcome class stack of `outcome_classes` (each (j, pair) row sums to n),
    then n events per projector of each Born vector of `born`, a (B, P)
    array, in order. The Born vectors are one binomial call over the whole
    array, which draws its entries in that order, so the counts and the
    stream equal a binomial call per vector.
    tables = None draws no classes. A slice depends on its key alone.

    Returns (class counts indexed [s, j-1, p, c], or None without tables,
    Born counts indexed [s, b, projector]).
    """
    states.check_integer("n", n)
    if not 1 <= n <= 2**63 - 1:
        raise ValueError(
            f"need at least one event and at most 2**63-1 (the sampler's range), got n={n}"
        )
    born = np.asarray(born, dtype=float)
    if len(born) and born.ndim != 2:
        raise ValueError(f"born must be a (B, P) array of Born vectors, got shape {born.shape}")
    if tables is None and not len(born):
        raise ValueError("nothing to draw: no outcome tables and no Born vector")
    if not hasattr(keys, "__len__") or getattr(keys, "ndim", 1) == 0:
        raise ValueError(f"keys={keys!r} is not a sequence of Philox keys; one key is [key]")
    if not len(keys):
        raise ValueError("need at least one Philox key")
    counts = pvals = None
    if tables is not None:
        classes = outcome_classes(tables)
        pvals = classes / classes.sum(axis=-1, keepdims=True)
        counts = np.empty((len(keys), *pvals.shape), dtype=np.int64)
    projectors = born.shape[-1] if len(born) else 0
    born_counts = np.empty((len(keys), len(born), projectors), dtype=np.int64)
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state  # a fresh Philox's: counter 0, an empty buffer
    for s, key in enumerate(keys):
        states.check_integer("Philox key", key)
        key = int(key)
        if not 0 <= key <= 2**128 - 1:
            raise ValueError(f"Philox key={key} outside 0..2**128-1")
        state["state"]["key"] = (key & (2**64 - 1), key >> 64)  # Philox's low and high words
        bit_generator.state = state
        if counts is not None:
            counts[s] = rng.multinomial(n, pvals)
        if len(born):
            born_counts[s] = rng.binomial(n, born)
    return counts, born_counts


def sampled_records_from_counts(counts: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Correlation estimates and plug-in standard errors, each indexed [..., j-1, k-1, p].

    `counts` holds the outcome-class counts of `sample_counts`, indexed
    [..., j-1, p, c], with any leading axes, which the result keeps; d is
    the length of its j axis. With c+ and c- the weight +1 and -1 counts at
    k, the estimate is (c+ - c-) / n and the second moment (c+ + c-) / n.
    The counts enter as floats, exact below 2**53, and the variance is built
    in place in the second moment's array, which becomes the standard error;
    the one transient the size of an output is the square of the estimate.
    """
    d = counts.shape[-3]
    counts = np.swapaxes(counts, -1, -2)
    plus, minus = counts[..., :d, :], counts[..., d : 2 * d, :]
    est = np.subtract(plus, minus, dtype=float)
    est /= n
    var = np.add(plus, minus, dtype=float)
    var /= n
    var -= est * est
    np.maximum(var, 0.0, out=var)
    var /= n
    return est, np.sqrt(var, out=var)


def sampled_set(
    tables: OutcomeTables | None,
    n: int,
    keys: Sequence[int],
    born: np.ndarray | Sequence[np.ndarray] = (),
) -> tuple[Correlations | None, np.ndarray]:
    """A seed stack of sampled correlations and Born counts, one slice per Philox key.

    The counts come from one `sample_counts` call and are dropped once read.
    Returns (the correlations indexed [s, j-1, k-1, p], or None without
    tables, the Born counts indexed [s, b, projector]).
    """
    counts, born_counts = sample_counts(tables, n, keys, born)
    if tables is None:
        return None, born_counts
    values, std_error = sampled_records_from_counts(counts, n)
    return Correlations(tables.cfg, tables.pairs, values, std_error, n), born_counts


def correlation_set_from_tables(
    tables: OutcomeTables,
    n: int = 0,
    root_seed: int | Sequence[int] | None = None,
) -> Correlations:
    """Correlations for every (j, k, pair) from the outcome tables of one grid point.

    n = 0 gives the exact set, and then no root seed may be given. n >= 1
    draws n events from each (j, pair) table (`sampled_set`), and then a
    root seed is required: it is the 128-bit Philox key itself, one per
    (grid point, seed). A sequence of S roots draws S sets in one call and
    returns them as one `Correlations` indexed [s, j-1, k-1, p]; slice s
    equals the set of root_seed[s] alone, bit for bit.
    """
    states.check_integer("n", n)
    if n == 0:
        if root_seed is not None:
            raise ValueError("exact correlations (n = 0) take no root seed")
        values = records_from_table(tables)
        return Correlations(tables.cfg, tables.pairs, values, np.zeros_like(values))
    if root_seed is None:
        raise ValueError(f"drawing n={n} events needs a root seed")
    single = np.ndim(root_seed) == 0
    correls, _ = sampled_set(tables, n, [root_seed] if single else root_seed)
    if single:
        return replace(correls, values=correls.values[0], std_error=correls.std_error[0])
    return correls


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
    `pairs` is a nonempty tuple of (obs_a, obs_b) tuples, the cache's key.
    """
    if not (isinstance(pairs, tuple) and pairs and all(type(p) is tuple for p in pairs)):
        raise ValueError(f"pairs must be a nonempty tuple of (obs_a, obs_b) tuples, got {pairs!r}")
    weights, _ = protocol.pointer_measurement(pairs, tilt)
    probs = protocol.outcome_probabilities(rho, cfg, pairs, tilt)
    return OutcomeTables(cfg, pairs, weights, probs)


def correlation_set(
    rho: states.DensityMatrix,
    cfg: CouplingConfig,
    pairs: tuple[ObsPair, ...],
    n: int = 0,
    root_seed: int | Sequence[int] | None = None,
) -> Correlations:
    """All (j, k) unbiased correlations of the requested pairs.

    n = 0 gives the exact set; n >= 1 draws, as `correlation_set_from_tables` says.
    """
    return correlation_set_from_tables(build_tables(rho, cfg, pairs), n, root_seed)
