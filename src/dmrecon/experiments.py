"""Scenario runner: purity, strength and statistical-error sweeps.

Every run is deterministic: per-point seeds are derived from the root seed
and the scenario coordinates, and rows are sorted before they are written,
so repeated runs (or parallel ones) produce identical output.

The reference a reconstruction is compared against is, by default, the
programmed input state itself, so the comparison carries no reference noise.
A `reference = qst` mode instead compares against a sampled linear-inversion
tomography estimate, mirroring a real experiment's protocol.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import correlations, metrics, qmath, reconstruct, states
from .correlations import OutcomeTables, derive_seed
from .protocol import CouplingConfig, check_dim

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
    bias: BiasModel | None = None
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
            if not 0.0 < th <= math.pi / 2 + 1e-12:
                raise ValueError(f"theta={th} outside (0, pi/2]")
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


@dataclass(frozen=True)
class ResultRow:
    """One reconstruction outcome; maps 1:1 onto a CSV output row.

    `delta_rho` is the propagated statistical error, nan for QST, which
    propagates none.
    """

    scenario_id: str
    kind: str
    method: str
    d: int
    theta_a: float
    theta_b: float
    purity_p: float
    n_events: int
    seed: int
    trace_distance: float
    delta_rho: float
    bound: float
    bias_epsilon: float
    bias_efficiency: float


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
    bias: BiasModel | None = None,
) -> OutcomeTables:
    """Outcome tables for all (j, pair) settings, with optional bias applied."""
    if bias is None:
        return correlations.build_tables(rho, cfg, pairs)
    tables = correlations.build_tables(rho, cfg, pairs, bias.pointer_rotation_epsilon)
    return bias_outcome_table(tables, bias)


def _pairs_for(methods: tuple[str, ...]) -> tuple[correlations.ObsPair, ...]:
    """Observable pairs read by the given direct methods, in first-seen order."""
    return tuple(dict.fromkeys(pair for m in methods for pair in _RECONSTRUCTORS[m][1]))


def run_point(
    scn: Scenario,
    rho: states.DensityMatrix,
    theta: float,
    purity_p: float,
    root_seed: int,
    point_key: tuple,
) -> list[ResultRow]:
    """All rows for one (state, theta) grid point of a scenario.

    Seed -1 (EXPECTATION_SEED) reads the exact correlations and the exact QST
    Born vector; its rows are the exact source's data and the theoretical
    curve. The sampled seeds are drawn as one stack: one sampler call draws
    every seed's correlations, each from its own derived root seed, and
    reduces them to one `Correlations` with a leading seed axis; each seed's
    QST vectors come from its own derived seeds too. Each method (with its
    `finalize`) then runs once over the stack; seed -1 is a stack of its own,
    because estimator II reads exact and sampled data differently. With
    `reference = qst` a seed's rows are compared with its QST reference
    estimate; at seed -1 that is the exact QST estimate. `ResultRow`s are
    built only at the end.
    """
    cfg = CouplingConfig(scn.d, theta, theta)
    direct_methods = tuple(m for m in scn.methods if m in _RECONSTRUCTORS)
    pairs = _pairs_for(direct_methods)
    tables = build_tables(rho, cfg, pairs, scn.bias) if pairs else None
    qst_method = "QST" in scn.methods
    qst_ref = scn.reference == "qst"
    born = (
        reconstruct.born_probabilities(rho, reconstruct.standard_projector_family(scn.d))
        if qst_method or qst_ref
        else None
    )

    # binomial success probabilities of every sampled QST vector at this point
    clipped = None if born is None else np.clip(born, 0.0, 1.0)

    def sampled_born(keys) -> np.ndarray:
        """Born frequencies of n_events per projector, one row per key's derived seed."""
        return np.array([
            np.random.Generator(np.random.Philox(derive_seed(*key))).binomial(scn.n_events, clipped)
            / scn.n_events
            for key in keys
        ])

    def draw(seeds: tuple[int, ...]) -> tuple:
        """A seed stack's correlations, QST method and QST reference vectors (None if unused)."""
        if seeds == (EXPECTATION_SEED,):
            correls = None
            if pairs:
                exact = correlations.correlation_set_from_tables(tables)
                correls = replace(exact, values=exact.values[None], std_error=exact.std_error[None])
            exact_probs = None if born is None else born[None]
            return correls, exact_probs, exact_probs
        sample_roots = [derive_seed(root_seed, *point_key, seed) for seed in seeds]
        correls = (
            correlations.correlation_set_from_tables(
                tables, sampled=True, n=scn.n_events, root_seed=sample_roots
            )
            if pairs
            else None
        )
        method_keys = ((root, "qst-method") for root in sample_roots)
        ref_keys = ((root_seed, *point_key, seed, "qst-ref") for seed in seeds)
        return (
            correls,
            sampled_born(method_keys) if qst_method else None,
            sampled_born(ref_keys) if qst_ref else None,
        )

    # The statistical-error floor of each direct method, nan where undefined.
    bounds = {
        m: metrics.error_lower_bound(m, scn.d, theta, scn.n_events).bound
        for m in direct_methods
        if metrics.has_error_floor(m, scn.d)
    }
    row = functools.partial(
        ResultRow,
        scenario_id=scn.scenario_id,
        kind=scn.kind,
        d=scn.d,
        theta_a=theta,
        theta_b=theta,
        purity_p=purity_p,
        n_events=scn.n_events,
        bias_epsilon=scn.bias.pointer_rotation_epsilon if scn.bias else 0.0,
        bias_efficiency=scn.bias.per_projector_efficiency if scn.bias else 1.0,
    )

    def stack_rows(seeds: tuple[int, ...]) -> list[ResultRow]:
        """Rows of a stack of seeds: each method estimated once over the stack.

        The methods' finalized stacks are then joined into one (method, seed,
        d, d) array, so one `mean_square_error` and one `trace_distance` call
        cover every row. A slice with near-zero trace (zero signal, e.g. zero
        double-flip counts at small theta) has no state estimate: `finalize`
        leaves it nan, and its row reads trace_distance nan and delta_rho inf.
        A nan QST reference slice leaves trace_distance nan.
        """
        correls, method_probs, ref_probs = draw(seeds)
        results = [
            reconstruct.qst_linear_inversion(method_probs, scn.d)
            if m == "QST"
            else _RECONSTRUCTORS[m][0](correls, cfg)
            for m in scn.methods
        ]
        if not qst_ref:
            reference = np.broadcast_to(rho.matrix, (len(seeds), scn.d, scn.d))
        elif seeds == (EXPECTATION_SEED,) and qst_method:
            # both read the exact Born vector: the method's estimate is the reference
            reference = results[scn.methods.index("QST")].finalized
        else:
            reference = reconstruct.qst_linear_inversion(ref_probs, scn.d).finalized
        finalized = np.array([r.finalized for r in results])
        degenerate = np.isnan(finalized[..., 0, 0])
        errors = metrics.mean_square_error(np.array([r.element_errors for r in results]))
        d_rho = np.where(degenerate, np.inf, errors)
        ok = ~(degenerate | np.isnan(reference[:, 0, 0]))
        reference = np.broadcast_to(reference, finalized.shape)
        if ok.all():
            t_dist = qmath.trace_distance(finalized, reference)
        else:
            t_dist = np.full(ok.shape, np.nan)
            if ok.any():
                t_dist[ok] = qmath.trace_distance(finalized[ok], reference[ok])
        return [
            row(method=m, seed=seed, trace_distance=t, delta_rho=e, bound=bounds.get(m, math.nan))
            for m, m_dist, m_rho in zip(scn.methods, t_dist.tolist(), d_rho.tolist())
            for seed, t, e in zip(seeds, m_dist, m_rho)
        ]

    rows = stack_rows((EXPECTATION_SEED,))
    if scn.source == "sampled":
        rows += stack_rows(scn.seeds)
    return rows


def run_scenario(scn: Scenario, root_seed: int = 0) -> list[ResultRow]:
    """All rows of a scenario, sorted.

    A purity sweep runs the purity grid at its one coupling strength; every
    other kind runs one input state across the listed strengths.
    """
    rows: list[ResultRow] = []
    if scn.kind == "purity_sweep":
        psi = states.named_ket(scn.input_state[len("pure:"):], scn.d)
        theta = scn.theta_list[0]
        for p in scn.purity_grid:
            rho = states.purity_family(p, psi)
            rows += run_point(scn, rho, theta, p, root_seed, (scn.scenario_id, "p", p))
    else:
        rho = states.parse_state_spec(scn.input_state, scn.d)
        p = states.purity(rho)
        for theta in scn.theta_list:
            rows += run_point(scn, rho, theta, p, root_seed, (scn.scenario_id, "th", theta))
    return sort_rows(rows)


def sort_rows(rows: list[ResultRow]) -> list[ResultRow]:
    """Canonical row order, so parallel execution cannot change the artifact."""
    return sorted(
        rows,
        key=lambda r: (r.scenario_id, r.kind, r.theta_a, r.purity_p, r.method, r.seed),
    )
