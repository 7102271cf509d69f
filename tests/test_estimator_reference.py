"""The vectorised W/I/II estimators against per-element loop references.

The references are the element-by-element formulas, read one (j, k) at a
time from the dense correlation arrays. Raw matrices must agree exactly;
element errors agree to rtol 1e-14, because the vectorised variance sums
are rounded differently from `math.hypot`.

A stack of correlation sets (or of QST Born vectors) must give, slice by
slice, bit for bit what one call per set gives, through the estimators,
`finalize` and `metrics.compare`; a degenerate slice (near-zero trace) is
all nan in both.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from dmrecon import experiments, metrics, states
from dmrecon.correlations import (
    PAIRS_EXACT_I,
    build_tables,
    correlation_set,
    correlation_set_from_tables,
    stack_sets,
)
from dmrecon.protocol import CouplingConfig
from dmrecon.reconstruct import (
    _element_errors,
    born_probabilities,
    finalize,
    qst_linear_inversion,
    reconstruct_exact_i,
    reconstruct_exact_ii,
    reconstruct_weak,
    standard_projector_family,
)


def _reader(cs):
    def get(j, k, pair):
        p = cs.pairs.index(pair)
        return float(cs.values[j - 1, k - 1, p]), float(cs.std_error[j - 1, k - 1, p])

    return get


def loop_weak(cs, cfg):
    get = _reader(cs)
    d, n = cfg.dim, cfg.n_ab
    raw = np.zeros((d, d), dtype=complex)
    re_err = np.zeros((d, d))
    im_err = np.zeros((d, d))
    for j in range(1, d + 1):
        for k in range(1, d + 1):
            xx, e_xx = get(j, k, ("X", "X"))
            yy, e_yy = get(j, k, ("Y", "Y"))
            yx, e_yx = get(j, k, ("Y", "X"))
            xy, e_xy = get(j, k, ("X", "Y"))
            raw[j - 1, k - 1] = n * (xx - yy) + 1j * n * (xy + yx)
            re_err[j - 1, k - 1] = n * math.hypot(e_xx, e_yy)
            im_err[j - 1, k - 1] = n * math.hypot(e_yx, e_xy)
    return raw, re_err, im_err


def loop_exact_i(cs, cfg):
    get = _reader(cs)
    d, n, t = cfg.dim, cfg.n_ab, cfg.t
    raw = np.zeros((d, d), dtype=complex)
    re_err = np.zeros((d, d))
    im_err = np.zeros((d, d))
    for j in range(1, d + 1):
        for k in range(1, d + 1):
            xx, e_xx = get(j, k, ("X", "X"))
            yy, e_yy = get(j, k, ("Y", "Y"))
            yx, e_yx = get(j, k, ("Y", "X"))
            xy, e_xy = get(j, k, ("X", "Y"))
            xp, e_xp = get(j, k, ("X", "Pi1"))
            px, e_px = get(j, k, ("Pi1", "X"))
            yp, e_yp = get(j, k, ("Y", "Pi1"))
            pp, e_pp = get(j, k, ("Pi1", "Pi1"))
            re = n * (xx - yy) + 2 * n * (t * xp + t * px + 2 * t * t * pp)
            im = n * (xy + yx) + 2 * n * t * yp
            raw[j - 1, k - 1] = re + 1j * im
            re_err[j - 1, k - 1] = n * math.sqrt(
                e_xx**2
                + e_yy**2
                + 4 * t**2 * e_xp**2
                + 4 * t**2 * e_px**2
                + 16 * t**4 * e_pp**2
            )
            im_err[j - 1, k - 1] = n * math.sqrt(e_yx**2 + e_xy**2 + 4 * t**2 * e_yp**2)
    return raw, re_err, im_err


def loop_exact_ii(cs, cfg):
    get = _reader(cs)
    d, n = cfg.dim, cfg.n_ab
    raw = np.zeros((d, d), dtype=complex)
    re_err = np.zeros((d, d))
    im_err = np.zeros((d, d))
    for j in range(1, d + 1):
        est = float(np.mean([get(j, k, ("Pi1", "Pi1"))[0] for k in range(1, d + 1)]))
        se = math.sqrt(max(est / d - est * est, 0.0) / cs.n_events) if cs.n_events else 0.0
        raw[j - 1, j - 1] = 16 * n * n * est
        re_err[j - 1, j - 1] = 16 * n * n * se
        for k in range(1, d + 1):
            if k == j:
                continue
            yy, e_yy = get(j, k, ("Y", "Y"))
            xy, e_xy = get(j, k, ("X", "Y"))
            raw[j - 1, k - 1] = -2 * n * yy + 2j * n * xy
            re_err[j - 1, k - 1] = 2 * n * e_yy
            im_err[j - 1, k - 1] = 2 * n * e_xy
    return raw, re_err, im_err


ESTIMATORS = (
    (reconstruct_weak, loop_weak),
    (reconstruct_exact_i, loop_exact_i),
    (reconstruct_exact_ii, loop_exact_ii),
)


def _correlation_sets(d, seed):
    rng = np.random.default_rng(seed)
    rho = states.random_density(d, seed)
    cfg = CouplingConfig(d, float(rng.uniform(0.05, np.pi / 2)))
    return cfg, (
        correlation_set(rho, cfg, PAIRS_EXACT_I),
        correlation_set(rho, cfg, PAIRS_EXACT_I, 50 * d, root_seed=seed),
    )


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16])
@pytest.mark.parametrize("seed", [0, 1])
def test_vectorised_estimators_match_loops(d, seed):
    cfg, sets = _correlation_sets(d, 1000 * d + seed)
    for cs in sets:
        for rebuild, loop in ESTIMATORS:
            raw, re_err, im_err = loop(cs, cfg)
            result = rebuild(cs)
            np.testing.assert_array_equal(result.raw, raw)
            np.testing.assert_array_equal(result.finalized, finalize(raw))
            np.testing.assert_allclose(
                result.element_errors, _element_errors(re_err, im_err), rtol=1e-14, atol=0
            )


@pytest.mark.parametrize("d", [2, 3, 5])
def test_exact_set_reads_as_the_same_values_sampled(d):
    # an estimator reads the values it is given, exact or sampled: under
    # pointer tilt and inefficiency <Pi1 Pi1> varies over k, and the exact
    # set must still give what the same values carried as a sampled set give
    rho = states.random_density(d, 14 * d)
    cfg = CouplingConfig(d, 0.5)
    tables = experiments.build_tables(rho, cfg, PAIRS_EXACT_I, epsilon=0.05, efficiency=0.95)
    exact = correlation_set_from_tables(tables)
    pp, _ = exact.column(("Pi1", "Pi1"))
    assert np.all(np.ptp(pp, axis=-1) > 0.1 * np.abs(pp).max())
    carried = replace(exact, n_events=1)
    for rebuild, _ in ESTIMATORS:
        assert_array_equal(rebuild(carried).raw, rebuild(exact).raw)


STACK_SEEDS = 8


def _check_stack_matches_slices(stacked, singles, truth):
    """Each slice of a stacked result against one call per slice, bit for bit.

    A degenerate slice is all nan in both, and `compare` reads it as
    distance nan and delta_rho inf. Returns the degenerate mask.
    """
    d = truth.shape[0]
    assert stacked.finalized.shape == (len(singles), d, d)
    for s, one in enumerate(singles):
        assert_array_equal(stacked.raw[s], one.raw)
        assert_array_equal(stacked.element_errors[s], one.element_errors)
        assert_array_equal(stacked.finalized[s], one.finalized)
        assert_array_equal(finalize(stacked.raw)[s], finalize(stacked.raw[s]))
    degenerate = np.isnan(stacked.finalized).all(axis=(1, 2))
    assert_array_equal(degenerate, np.isnan(stacked.finalized).any(axis=(1, 2)))
    t_dist, delta_rho = metrics.compare(stacked.finalized, stacked.element_errors, truth)
    one_by_one = [metrics.compare(one.finalized, one.element_errors, truth) for one in singles]
    assert_array_equal(t_dist, [t for t, _ in one_by_one])
    assert_array_equal(delta_rho, [e for _, e in one_by_one])
    assert_array_equal(np.isnan(t_dist), degenerate)
    assert_array_equal(np.isinf(delta_rho), degenerate)
    return degenerate


# Few events and small theta give degenerate slices among regular ones.
STACK_CASES = [(0.05, 2), (0.3, 40), (math.pi / 2, 1), (math.pi / 2, 10_000)]


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16])
@pytest.mark.parametrize("theta, n", STACK_CASES)
def test_stacked_estimators_match_slices(d, theta, n):
    rho = states.random_density(d, 7 * d)
    cfg = CouplingConfig(d, theta)
    tables = build_tables(rho, cfg, PAIRS_EXACT_I)
    sets = [
        correlation_set_from_tables(tables, n=n, root_seed=seed)
        for seed in range(STACK_SEEDS)
    ]
    stack = stack_sets(sets)
    assert stack.values.shape == (STACK_SEEDS, d, d, len(PAIRS_EXACT_I))
    mixed = False
    for rebuild, _ in ESTIMATORS:
        degenerate = _check_stack_matches_slices(
            rebuild(stack), [rebuild(cs) for cs in sets], rho.matrix
        )
        mixed |= 0 < degenerate.sum() < STACK_SEEDS
    if (theta, n) == (math.pi / 2, 1):
        assert mixed, "the one-event stack must mix degenerate and regular slices"


# One config per slice. tan(0.212 / 2)**2 and tan(0.6468 / 2)**2 in Python
# floats differ in the last bit from numpy's square of the same tangents, so
# these slices match only if the constants stay per-config Python floats.
GRID_THETAS = [0.212, 0.6468, 0.05, math.pi / 2]


@pytest.mark.parametrize("d", [2, 3, 5, 8])
@pytest.mark.parametrize("n", [0, 40, 10_000])
def test_config_tuple_matches_per_config_calls(d, n):
    # a stack over grid points, which carries one config per slice, equals
    # one call per slice with its own config, bit for bit; n = 0 is exact data
    rho = states.random_density(d, 5 * d)
    cfgs = tuple(CouplingConfig(d, theta) for theta in GRID_THETAS)
    sets = [
        correlation_set_from_tables(
            build_tables(rho, cfg, PAIRS_EXACT_I), n=n, root_seed=s if n else None
        )
        for s, cfg in enumerate(cfgs)
    ]
    stack = stack_sets(sets)
    assert stack.cfg == cfgs
    for rebuild, _ in ESTIMATORS:
        _check_stack_matches_slices(rebuild(stack), [rebuild(cs) for cs in sets], rho.matrix)
    for wrong_set, wrong_cfgs in ((stack, cfgs[:3]), (sets[0], cfgs)):
        with pytest.raises(ValueError, match="configs for correlations shaped"):
            replace(wrong_set, cfg=wrong_cfgs)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16])
@pytest.mark.parametrize("n", [1, 3, 10_000])
def test_stacked_qst_matches_slices(d, n):
    rho = states.random_density(d, 11 * d)
    born = born_probabilities(rho, standard_projector_family(d))
    rng = np.random.default_rng(100 * d + n)
    probs = rng.binomial(n, np.clip(born, 0.0, 1.0), size=(STACK_SEEDS, d * d)) / n
    stacked = qst_linear_inversion(probs, d)
    degenerate = _check_stack_matches_slices(
        stacked, [qst_linear_inversion(p, d) for p in probs], rho.matrix
    )
    if (d, n) == (16, 1):
        assert 0 < degenerate.sum() < STACK_SEEDS
    # any leading axes: a (T, S, d^2) stack gives the (T, S) reshape of the flat one
    shape = (2, STACK_SEEDS // 2)
    grid = qst_linear_inversion(probs.reshape(*shape, d * d), d)
    for name in ("raw", "finalized", "element_errors"):
        assert_array_equal(getattr(grid, name), getattr(stacked, name).reshape(*shape, d, d))
    for got, flat in zip(
        metrics.compare(grid.finalized, grid.element_errors, rho.matrix),
        metrics.compare(stacked.finalized, stacked.element_errors, rho.matrix),
    ):
        assert_array_equal(got, flat.reshape(shape))
