"""Scenario runner: purity, strength and statistical-error sweeps.

Every run is deterministic: each (grid point, seed) draws all of its counts
from its own stream, by the README's "Sampled streams" rule, and rows are
sorted before they are written, so repeated runs (or parallel ones) produce
identical output. Rows are held as one structured array of `ROW_DTYPE`,
whose fields are the CSV columns.

Each grid point builds its outcome tables once and turns its sampled seeds
into rows as one stack (`run_point`). The expectation rows (seed -1, from
exact correlations) of all grid points of a scenario are one grid stack
instead: `run_scenario` stacks the points' exact correlations and Born
vectors and estimates them with one call per method (one `finalize` each)
and one `metrics.compare` call, each point read with its own coupling
config. Every row equals, bit for bit, the row of a scenario that holds its
grid point alone. A row's `bound` is `metrics.error_lower_bound` of its
method and theta, nan where the method has no floor (QST, and II below d = 5).

The reference a reconstruction is compared against is, by default, the
programmed input state itself, so the comparison carries no reference noise.
A `reference = qst` mode instead compares against a sampled linear-inversion
tomography estimate, mirroring a real experiment's protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import correlations, metrics, reconstruct, states
from .correlations import OutcomeTables, derive_seed
from .protocol import CouplingConfig, check_dim, check_theta
from .states import check_integer

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


def check_bias(epsilon: float, efficiency: float) -> None:
    """Reject a pointer tilt or a projector efficiency outside the modelled range.

    `epsilon` tilts every pointer projector by a small rotation about the
    pointer Y axis; `efficiency` scales the probabilities of one designated
    projector (by convention the first-listed outcome of pointer A) before
    renormalization.
    """
    if not abs(epsilon) <= 0.1:  # also rejects nan
        raise ValueError("pointer rotation bias limited to |epsilon| <= 0.1 rad")
    if not 0.9 <= efficiency <= 1.1:
        raise ValueError("projector efficiency limited to [0.9, 1.1]")


def check_purity_point(p: float) -> None:
    """Reject a purity-family mixing weight outside [0, 1], nan included."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"purity point {p} outside [0, 1]")


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
    bias_epsilon: float = 0.0
    bias_efficiency: float = 1.0
    methods: tuple[str, ...] = ("W", "I", "II")
    source: str = "sampled"
    reference: str = "truth"
    purity_grid: tuple[float, ...] | None = None  # None: a purity sweep's default grid

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind '{self.kind}'")
        if not self.scenario_id:
            raise ValueError("scenario id must be nonempty")
        purity_sweep = self.kind == "purity_sweep"
        thetas = self.theta_list
        if thetas is None:
            if purity_sweep:
                thetas = (math.pi / 2,)
            else:  # log-spaced from the weak regime up to pi/2
                thetas = tuple(np.geomspace(THETA_MIN_DEFAULT, math.pi / 2, DEFAULT_THETA_POINTS))
        if self.purity_grid is None and purity_sweep:
            purity_grid = tuple(np.linspace(0.0, 1.0, DEFAULT_PURITY_POINTS))
            object.__setattr__(self, "purity_grid", purity_grid)
        if self.purity_grid is not None and not purity_sweep:
            raise ValueError(f"purity_grid applies only to purity sweeps, not to {self.kind}")
        if not thetas:
            raise ValueError("theta needs at least one value")
        for th in thetas:
            check_theta(th)
        if purity_sweep and len(thetas) != 1:
            raise ValueError("purity sweeps use a single coupling strength")
        check_dim(self.d)
        if purity_sweep and not self.input_state.startswith("pure:"):
            raise ValueError("purity sweeps need a pure input spec for the family state")
        states.check_state_spec(self.input_state, self.d)
        check_bias(self.bias_epsilon, self.bias_efficiency)
        if not self.seeds:
            raise ValueError("need at least one seed")
        for seed in self.seeds:
            check_integer("seed", seed)
        check_integer("n_events", self.n_events)
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
        if purity_sweep and not self.purity_grid:
            raise ValueError("purity_grid needs at least one point")
        for p in self.purity_grid or ():
            check_purity_point(p)
        # a repeated grid coordinate would only write duplicate rows
        for key, values in (
            ("seeds", self.seeds), ("theta", thetas), ("methods", self.methods),
            ("purity_grid", self.purity_grid or ()),
        ):
            if len(set(values)) != len(values):
                raise ValueError(f"{key} must not repeat, got {' '.join(map(str, values))}")
        # the Philox keys hash str(theta) and str(p): 1 and 1.0 must key alike
        object.__setattr__(self, "theta_list", tuple(map(float, thetas)))
        if self.purity_grid is not None:
            object.__setattr__(self, "purity_grid", tuple(map(float, self.purity_grid)))


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


def build_tables(
    rho: states.DensityMatrix,
    cfg: CouplingConfig,
    pairs: tuple[correlations.ObsPair, ...],
    epsilon: float = 0.0,
    efficiency: float = 1.0,
) -> OutcomeTables:
    """Outcome tables for all (j, pair) settings, biased as `check_bias` describes.

    An efficiency other than 1 scales the designated projector's probability
    rows of a copy, then renormalizes each (j, pair) table.
    """
    check_bias(epsilon, efficiency)
    tables = correlations.build_tables(rho, cfg, pairs, epsilon)
    if efficiency == 1.0:
        return tables
    probs = tables.probs.copy()
    probs[:, :, 0] *= efficiency
    probs /= probs.sum(axis=(2, 3, 4), keepdims=True)
    return replace(tables, probs=probs)


def run_point(
    scn: Scenario,
    rho: states.DensityMatrix,
    theta: float,
    purity_p: float,
    born: np.ndarray | None,
    keys: list[int] | None,
) -> tuple[np.ndarray | None, correlations.Correlations | None]:
    """One (state, theta) grid point: its sampled rows and its exact correlations.

    `born` is the point's exact d^2 Born vector of the standard family, which
    `run_scenario` builds (None without QST). Returns (rows, correls). The
    outcome tables are built once. `correls` is the point's exact correlation
    set, indexed [j-1, k-1, p] (None without a direct method); `run_scenario`
    estimates seed -1 (EXPECTATION_SEED) of every grid point from the
    correlations and Born vectors as one grid stack.
    `rows` holds the sampled seeds' rows, `ROW_DTYPE`, and is None for an
    exact source. `keys` holds each sampled seed's Philox key, which
    `run_scenario` derives (None for an exact source).
    The seeds are one stack, drawn by one `correlations.sampled_set` call:
    each seed's outcome classes, then the QST method's Born counts, then the
    QST reference's, each only where it is read. The counts and the tables
    are dropped before the rows are built, and the correlation stack and the
    QST method's frequencies are handed to `_estimates`, so the point keeps
    no reference to them: they are freed before `metrics.compare` runs.
    """
    cfg = CouplingConfig(scn.d, theta)
    # the observable pairs the direct methods read, in first-seen order
    pairs = tuple(dict.fromkeys(
        pair for m in scn.methods if m in _RECONSTRUCTORS for pair in _RECONSTRUCTORS[m][1]
    ))
    tables = build_tables(rho, cfg, pairs, scn.bias_epsilon, scn.bias_efficiency) if pairs else None
    qst_method = "QST" in scn.methods
    qst_ref = scn.reference == "qst"
    exact = correlations.correlation_set_from_tables(tables) if pairs else None
    rows = None
    if scn.source == "sampled":
        n = scn.n_events
        draws = () if born is None else np.broadcast_to(
            np.clip(born, 0.0, 1.0), (qst_method + qst_ref, born.size)
        )
        correls, born_counts = correlations.sampled_set(tables, n, keys, draws)
        estimates = _estimates(scn, correls, born_counts[:, 0] / n if qst_method else None)
        ref_probs = born_counts[:, -1] / n if qst_ref else None
        del tables, correls, born_counts  # the stack is the estimates' alone; the rest is read
        rows = _stack_rows(scn, rho.matrix, theta, purity_p, scn.seeds, estimates, ref_probs)
    return rows, exact


def _estimates(scn, correls, method_probs):
    """Each method's (finalized, element_errors) over one stack, in `scn.methods` order.

    `correls` is the stack's correlations (None without a direct method) and
    `method_probs` its QST method Born frequencies, one row per slice (None
    without QST). Each raw estimate is dropped when the next method starts.
    The generator's frame holds the only references the caller hands over,
    so once the last method is read both inputs are freed.
    """
    for m in scn.methods:
        if m == "QST":
            result = reconstruct.qst_linear_inversion(method_probs, scn.d)
        else:
            result = _RECONSTRUCTORS[m][0](correls)
        yield result.finalized, result.element_errors
        del result


def _stack_rows(scn, truth, theta, purity_p, seeds, estimates, ref_probs) -> np.ndarray:
    """Rows of one stack, method-major: each method estimated once over the stack.

    A stack is either one grid point's sampled seeds or the seed -1 rows of
    every grid point of a scenario, the grid stack. The inputs are the stack's
    coordinates (theta, purity_p and seeds, each one value or one per slice),
    the true states (one matrix, or one per slice), the methods' estimates
    (an iterator such as `_estimates` returns, read once) and the QST
    reference Born vectors, one row per slice (None where nothing reads
    them). One `finalize` per method and one `metrics.compare` call cover
    every row. The estimates are read and stacked before the QST reference
    is inverted, so when `compare` runs, what is left of the stack is the
    methods' stacked finalized matrices and element errors, the reference
    and the reference Born vectors: the correlations and the QST method's
    frequencies are gone if the caller kept no reference to them, and the
    per-method arrays once they are stacked. `bound` is each method's
    `metrics.error_lower_bound` at each theta, nan where the method has no
    floor.
    A slice with near-zero trace (zero signal, e.g. zero double-flip counts
    at small theta) has no state estimate: `finalize` leaves it nan, and
    `compare` gives its row trace_distance nan and delta_rho inf. A nan QST
    reference slice leaves trace_distance nan.
    """
    finalized, errors = map(np.array, zip(*estimates))
    reference = truth
    if scn.reference == "qst":
        reference = reconstruct.qst_linear_inversion(ref_probs, scn.d).finalized
    t_dist, delta_rho = metrics.compare(finalized, errors, reference)
    thetas = np.atleast_1d(theta).tolist()
    bound = [
        [metrics.error_lower_bound(m, scn.d, th, scn.n_events) for th in thetas]
        for m in scn.methods
    ]
    fields = {
        "scenario_id": scn.scenario_id,
        "kind": scn.kind,
        "method": np.array(scn.methods, dtype=object)[:, None],
        "d": scn.d,
        "theta_a": theta,
        "theta_b": theta,
        "purity_p": purity_p,
        "n_events": scn.n_events,
        "seed": seeds,
        "trace_distance": t_dist,
        "delta_rho": delta_rho,
        "bound": bound,
        "bias_epsilon": scn.bias_epsilon,
        "bias_efficiency": scn.bias_efficiency,
    }
    rows = np.zeros(t_dist.shape, ROW_DTYPE)
    for name, value in fields.items():
        rows[name] = value
    return rows.ravel()


def run_scenario(scn: Scenario, root_seed: int = 0) -> np.ndarray:
    """All rows of a scenario as one `ROW_DTYPE` array, sorted.

    A purity sweep runs the purity grid at its one coupling strength; every
    other kind runs one input state across the listed strengths. Each grid
    point's sampled rows come from `run_point`; the seed -1 rows of all
    points are one grid stack of their exact correlations (`stack_sets`, one
    config per point) and Born vectors, estimated with one call per method.
    With QST as a method or the reference, the standard projector family is
    built once here, gives the exact Born vector of each distinct state (the
    points of a strength sweep share one), and is dropped before the first
    point samples. A sampled scenario derives the Philox key of every (grid
    point, seed) here, by the README's "Sampled streams" rule; the root seed
    must be an integer, as its text enters every key. The grid stack is
    handed to `_estimates` and the per-point exact sets are dropped once
    `stack_sets` has joined them, so at the grid stack's `metrics.compare`
    the exact correlations are freed; the Born vectors, the true states and
    the sampled rows stay.
    """
    check_integer("root_seed", root_seed)
    if scn.kind == "purity_sweep":
        psi = states.named_ket(scn.input_state[len("pure:"):], scn.d)
        distinct = [states.purity_family(p, psi) for p in scn.purity_grid]
        theta = scn.theta_list[0]
        grid = [(i, theta, p, (scn.scenario_id, "p", p)) for i, p in enumerate(scn.purity_grid)]
    else:
        distinct = [states.parse_state_spec(scn.input_state, scn.d)]
        p = states.purity(distinct[0])
        grid = [(0, theta, p, (scn.scenario_id, "th", theta)) for theta in scn.theta_list]
    state_of, thetas, purities, coords = zip(*grid)
    rhos = [distinct[i] for i in state_of]
    born = None
    if "QST" in scn.methods or scn.reference == "qst":
        family = reconstruct.standard_projector_family(scn.d)
        born = np.array([reconstruct.born_probabilities(rho, family) for rho in distinct])
        born = born[list(state_of)]  # one row per grid point
        del family  # d^3 entries (its kets), not needed while the points sample
    keys = [None] * len(grid)
    if scn.source == "sampled":
        keys = [[derive_seed(root_seed, *c, seed) for seed in scn.seeds] for c in coords]
    sampled, exact = zip(*(
        run_point(scn, rho, theta, p, None if born is None else born[i], keys[i])
        for i, (rho, theta, p) in enumerate(zip(rhos, thetas, purities))
    ))
    estimates = _estimates(scn, None if exact[0] is None else correlations.stack_sets(exact), born)
    del exact  # the per-point sets, joined into the grid stack that only `estimates` holds
    truth = np.array([rho.matrix for rho in rhos])
    rows = _stack_rows(
        scn, truth, np.array(thetas), np.array(purities), EXPECTATION_SEED, estimates, born
    )
    if scn.source == "sampled":
        rows = np.concatenate([rows, *sampled])
    return sort_rows(rows)


def sort_rows(rows: np.ndarray) -> np.ndarray:
    """Canonical row order, so parallel execution cannot change the artifact: one stable lexsort."""
    keys = ("scenario_id", "kind", "theta_a", "purity_p", "method", "seed")
    return rows[np.lexsort([rows[k] for k in reversed(keys)])]
