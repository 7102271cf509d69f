"""Scenario runner: purity, strength and statistical-error sweeps.

Every run is deterministic: per-point seeds are derived from the root seed
and the scenario coordinates, and rows are sorted before they are written,
so repeated runs (or parallel ones) produce identical output. Rows are held
as one structured array of `ROW_DTYPE`, whose fields are the CSV columns.

Each grid point builds its outcome tables once and turns its sampled seeds
into rows as one stack (`run_point`). The expectation rows (seed -1, from
exact correlations) of all grid points of a scenario are one grid stack
instead: `run_scenario` stacks the points' exact correlations and Born
vectors and estimates them with one call per method (one `finalize` each)
and one `metrics.compare` call, each point read with its own coupling
config. Every row equals, bit for bit, the row of a scenario that holds its
grid point alone.

The reference a reconstruction is compared against is, by default, the
programmed input state itself, so the comparison carries no reference noise.
A `reference = qst` mode instead compares against a sampled linear-inversion
tomography estimate, mirroring a real experiment's protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import correlations, metrics, reconstruct, states
from .correlations import OutcomeTables, derive_seed
from .protocol import CouplingConfig, check_dim, check_theta

KINDS = ("purity_sweep", "strength_sweep", "error_sweep", "single")
METHODS = ("W", "I", "II", "QST")
SOURCES = ("sampled", "exact")
REFERENCES = ("truth", "qst")

DEFAULT_N_EVENTS = 10_000
DEFAULT_N_SEEDS = 50
DEFAULT_PURITY_POINTS = 9
DEFAULT_THETA_POINTS = 12
THETA_MIN_DEFAULT = 0.05

EXPECTATION_SEED = -1  # marks rows computed from exact correlations

# Direct methods: estimator and the observable pairs it reads.
_RECONSTRUCTORS = {
    "W": (reconstruct.reconstruct_weak, correlations.PAIRS_WEAK),
    "I": (reconstruct.reconstruct_exact_i, correlations.PAIRS_EXACT_I),
    "II": (reconstruct.reconstruct_exact_ii, correlations.PAIRS_EXACT_II),
}


def default_theta_grid() -> tuple[float, ...]:
    """Log-spaced coupling strengths from the weak regime up to pi/2."""
    return tuple(
        float(t)
        for t in np.geomspace(THETA_MIN_DEFAULT, math.pi / 2, DEFAULT_THETA_POINTS)
    )


def default_purity_grid() -> tuple[float, ...]:
    return tuple(float(p) for p in np.linspace(0.0, 1.0, DEFAULT_PURITY_POINTS))


@dataclass(frozen=True)
class BiasModel:
    """Systematic imperfections of the pointer measurements.

    `pointer_rotation_epsilon` tilts every pointer projector by a small
    rotation about the pointer Y axis. `per_projector_efficiency` scales the
    counts of one designated projector (by convention the first-listed
    outcome of pointer A) before renormalization.
    """

    pointer_rotation_epsilon: float = 0.0
    per_projector_efficiency: float = 1.0

    def __post_init__(self):
        if not abs(self.pointer_rotation_epsilon) <= 0.1:  # also rejects nan
            raise ValueError("pointer rotation bias limited to |epsilon| <= 0.1 rad")
        if not 0.9 <= self.per_projector_efficiency <= 1.1:
            raise ValueError("projector efficiency limited to [0.9, 1.1]")


@dataclass(frozen=True)
class Scenario:
    """One experiment description; field defaults match the standard sweeps."""

    scenario_id: str
    kind: str
    input_state: str = "pure:D"
    d: int = 2
    theta_list: tuple[float, ...] | None = None  # None: the kind's default grid
    n_events: int = DEFAULT_N_EVENTS
    seeds: tuple[int, ...] = tuple(range(DEFAULT_N_SEEDS))
    bias: BiasModel = BiasModel()
    methods: tuple[str, ...] = ("W", "I", "II")
    source: str = "sampled"
    reference: str = "truth"
    purity_grid: tuple[float, ...] = field(default_factory=default_purity_grid)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind '{self.kind}'")
        if not self.scenario_id:
            raise ValueError("scenario id must be nonempty")
        thetas = self.theta_list
        if thetas is None:
            thetas = (math.pi / 2,) if self.kind == "purity_sweep" else default_theta_grid()
            object.__setattr__(self, "theta_list", thetas)
        if not thetas:
            raise ValueError("theta needs at least one value")
        for th in thetas:
            check_theta(th)
        if self.kind == "purity_sweep" and len(thetas) != 1:
            raise ValueError("purity sweeps use a single coupling strength")
        check_dim(self.d)
        if self.kind == "purity_sweep" and not self.input_state.startswith("pure:"):
            raise ValueError("purity sweeps need a pure input spec for the family state")
        states.check_state_spec(self.input_state, self.d)
        if not self.seeds:
            raise ValueError("need at least one seed")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be nonnegative ({EXPECTATION_SEED} marks expectation rows)")
        if max(self.seeds) > np.iinfo(np.int64).max:
            raise ValueError(f"seed={max(self.seeds)} outside 0..2**63-1 (the seed column's range)")
        if not 1 <= self.n_events <= np.iinfo(np.int64).max:
            raise ValueError(f"n_events={self.n_events} outside 1..2**63-1 (the sampler's range)")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}")
        if not self.methods:
            raise ValueError("need at least one method")
        if self.source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}")
        if self.reference not in REFERENCES:
            raise ValueError(f"reference must be one of {REFERENCES}")
        if not self.purity_grid:
            raise ValueError("purity_grid needs at least one point")
        for p in self.purity_grid:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"purity point {p} outside [0, 1]")
        # a repeated grid coordinate would only write duplicate rows
        for key, values in (
            ("seeds", self.seeds), ("theta", thetas), ("methods", self.methods),
            ("purity_grid", self.purity_grid),
        ):
            if len(set(values)) != len(values):
                raise ValueError(f"{key} must not repeat, got {' '.join(map(str, values))}")


# One result row per element, the fields in results.csv's column order.
# `delta_rho` is the propagated statistical error, nan for QST, which
# propagates none. The strings are object fields: a fixed-width unicode field
# would drop a trailing "\x00" of a scenario id.
ROW_DTYPE = np.dtype([
    ("scenario_id", object),
    ("kind", object),
    ("method", object),
    ("d", np.int64),
    ("theta_a", np.float64),
    ("theta_b", np.float64),
    ("purity_p", np.float64),
    ("n_events", np.int64),
    ("seed", np.int64),
    ("trace_distance", np.float64),
    ("delta_rho", np.float64),
    ("bound", np.float64),
    ("bias_epsilon", np.float64),
    ("bias_efficiency", np.float64),
])


def bias_outcome_table(tables: OutcomeTables, bias: BiasModel) -> OutcomeTables:
    """Scale the designated projector's probability rows, then renormalize each table."""
    eff = bias.per_projector_efficiency
    if eff == 1.0:
        return tables
    probs = tables.probs.copy()
    probs[:, :, 0] *= eff
    probs /= probs.sum(axis=(2, 3, 4), keepdims=True)
    return replace(tables, probs=probs)


def build_tables(
    rho: states.DensityMatrix,
    cfg: CouplingConfig,
    pairs: tuple[correlations.ObsPair, ...],
    bias: BiasModel,
) -> OutcomeTables:
    """Outcome tables for all (j, pair) settings, with the bias applied."""
    tables = correlations.build_tables(rho, cfg, pairs, bias.pointer_rotation_epsilon)
    return bias_outcome_table(tables, bias)


def run_point(
    scn: Scenario,
    rho: states.DensityMatrix,
    theta: float,
    purity_p: float,
    bound: np.ndarray,
    root_seed: int,
    point_key: tuple,
) -> tuple[np.ndarray | None, correlations.Correlations | None, np.ndarray | None]:
    """One (state, theta) grid point: its sampled rows and its exact inputs.

    Returns (rows, correls, born). The outcome tables and the exact Born
    vector are built once. `correls` is the point's exact correlation set,
    indexed [j-1, k-1, p] (None without a direct method), and `born` its
    exact d^2 Born vector (None without QST); `run_scenario` estimates seed -1
    (EXPECTATION_SEED) of every grid point from them as one grid stack.
    `rows` holds the sampled seeds' rows, `ROW_DTYPE` with the error floors
    `bound` of `_bounds`, and is None for an exact source. The seeds are one
    stack: one sampler call draws every seed's correlations, each from its own
    derived root seed, and each seed's QST vectors come from its own derived
    seeds too.
    """
    cfg = CouplingConfig(scn.d, theta, theta)
    # the observable pairs the direct methods read, in first-seen order
    pairs = tuple(dict.fromkeys(
        pair for m in scn.methods if m in _RECONSTRUCTORS for pair in _RECONSTRUCTORS[m][1]
    ))
    tables = build_tables(rho, cfg, pairs, scn.bias) if pairs else None
    qst_method = "QST" in scn.methods
    qst_ref = scn.reference == "qst"
    born = None
    if qst_method or qst_ref:
        born = reconstruct.born_probabilities(rho, reconstruct.standard_projector_family(scn.d))
    exact = correlations.correlation_set_from_tables(tables) if pairs else None
    rows = None
    if scn.source == "sampled":
        roots = [derive_seed(root_seed, *point_key, seed) for seed in scn.seeds]
        correls = None
        if pairs:
            correls = correlations.correlation_set_from_tables(
                tables, sampled=True, n=scn.n_events, root_seed=roots
            )
        method_probs = ref_probs = None
        if qst_method:
            method_probs = _sampled_born(born, scn.n_events, [(r, "qst-method") for r in roots])
        if qst_ref:
            ref_keys = [(root_seed, *point_key, seed, "qst-ref") for seed in scn.seeds]
            ref_probs = _sampled_born(born, scn.n_events, ref_keys)
        point = _fields(scn, theta, purity_p, bound[:, None])
        rows = _stack_rows(
            scn, cfg, rho.matrix, point, scn.seeds, correls, method_probs, ref_probs
        )
    return rows, exact, born


def _bounds(scn: Scenario, theta: float) -> np.ndarray:
    """The statistical-error floor of each method at theta, nan where undefined."""
    return np.array([
        metrics.error_lower_bound(m, scn.d, theta, scn.n_events).bound
        if metrics.has_error_floor(m, scn.d) else math.nan
        for m in scn.methods
    ])


def _fields(scn: Scenario, theta, purity_p, bound) -> dict:
    """Every row field but the seed and the two errors, broadcast over (method, stack).

    theta and purity_p are one value or one per stack slice, bound one value
    per (method, slice) or per method as a (methods, 1) column.
    """
    return {
        "scenario_id": scn.scenario_id,
        "kind": scn.kind,
        "method": np.array(scn.methods, dtype=object)[:, None],
        "d": scn.d,
        "theta_a": theta,
        "theta_b": theta,
        "purity_p": purity_p,
        "n_events": scn.n_events,
        "bound": bound,
        "bias_epsilon": scn.bias.pointer_rotation_epsilon,
        "bias_efficiency": scn.bias.per_projector_efficiency,
    }


def _sampled_born(born: np.ndarray, n: int, keys) -> np.ndarray:
    """Born frequencies of n events per projector, one row per key's derived seed."""
    p = np.clip(born, 0.0, 1.0)
    rngs = (np.random.Generator(np.random.Philox(derive_seed(*key))) for key in keys)
    return np.array([rng.binomial(n, p) / n for rng in rngs])


def _stack_rows(scn, cfg, truth, point, seeds, correls, method_probs, ref_probs) -> np.ndarray:
    """Rows of one stack, method-major: each method estimated once over the stack.

    A stack is either one grid point's sampled seeds, with its one config,
    or the seed -1 rows of every grid point of a scenario, the grid stack,
    with a tuple of one config per point. The inputs are the stack's
    correlations, the true states (one matrix, or one per slice) and the QST
    method and reference Born vectors, one row per slice (None where nothing
    reads them); `point` holds the other row fields (`_fields`). One
    `finalize` per method and one `metrics.compare` call cover every row.
    A slice with near-zero trace (zero signal, e.g. zero double-flip counts
    at small theta) has no state estimate: `finalize` leaves it nan, and
    `compare` gives its row trace_distance nan and delta_rho inf. A nan QST
    reference slice leaves trace_distance nan.
    """
    results = [
        reconstruct.qst_linear_inversion(method_probs, scn.d) if m == "QST"
        else _RECONSTRUCTORS[m][0](correls, cfg)
        for m in scn.methods
    ]
    finalized = np.array([r.finalized for r in results])
    reference = truth
    if scn.reference == "qst":
        reference = reconstruct.qst_linear_inversion(ref_probs, scn.d).finalized
    t_dist, delta_rho = metrics.compare(
        finalized, np.array([r.element_errors for r in results]), reference
    )
    rows = np.empty(t_dist.shape, ROW_DTYPE)
    for name, value in point.items():
        rows[name] = value
    rows["seed"] = seeds
    rows["trace_distance"] = t_dist
    rows["delta_rho"] = delta_rho
    return rows.ravel()


def run_scenario(scn: Scenario, root_seed: int = 0) -> np.ndarray:
    """All rows of a scenario as one `ROW_DTYPE` array, sorted.

    A purity sweep runs the purity grid at its one coupling strength; every
    other kind runs one input state across the listed strengths. Each grid
    point's sampled rows come from `run_point`; the seed -1 rows of all
    points are one grid stack, estimated from the points' exact correlations
    and Born vectors with one call per estimator.
    """
    if scn.kind == "purity_sweep":
        psi = states.named_ket(scn.input_state[len("pure:"):], scn.d)
        theta = scn.theta_list[0]
        grid = [
            (states.purity_family(p, psi), theta, p, (scn.scenario_id, "p", p))
            for p in scn.purity_grid
        ]
    else:
        rho = states.parse_state_spec(scn.input_state, scn.d)
        p = states.purity(rho)
        grid = [(rho, theta, p, (scn.scenario_id, "th", theta)) for theta in scn.theta_list]
    rhos, thetas, purities, _ = zip(*grid)
    bound = np.array([_bounds(scn, theta) for theta in thetas]).T
    sampled, exact, born = zip(*(
        run_point(scn, rho, theta, p, bound[:, t], root_seed, key)
        for t, (rho, theta, p, key) in enumerate(grid)
    ))
    cfgs = tuple(CouplingConfig(scn.d, theta, theta) for theta in thetas)
    point = _fields(scn, np.array(thetas), np.array(purities), bound)
    correls = None if exact[0] is None else correlations.stack_sets(exact)
    born = None if born[0] is None else np.array(born)
    truth = np.array([rho.matrix for rho in rhos])
    rows = _stack_rows(scn, cfgs, truth, point, EXPECTATION_SEED, correls, born, born)
    if scn.source == "sampled":
        rows = np.concatenate([rows, *sampled])
    return sort_rows(rows)


def sort_rows(rows: np.ndarray) -> np.ndarray:
    """Canonical row order, so parallel execution cannot change the artifact: one stable lexsort."""
    keys = ("scenario_id", "kind", "theta_a", "purity_p", "method", "seed")
    return rows[np.lexsort([rows[k] for k in reversed(keys)])]
