"""Scenario runner: sweeps, bias injection, determinism."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmrecon import correlations, experiments, qmath, reconstruct, states
from dmrecon.correlations import PAIRS_EXACT_I, PAIRS_EXACT_II, correlation_set_from_tables
from dmrecon.experiments import (
    EXPECTATION_SEED,
    Scenario,
    build_tables,
    check_bias,
    run_scenario,
)
from dmrecon.io import results_csv
from dmrecon.protocol import CouplingConfig, pointer_setting
from dmrecon.reconstruct import reconstruct_exact_i, reconstruct_exact_ii


def rows_by(rows, **conditions):
    """The rows whose fields equal the given values, still one row array."""
    keep = np.ones(len(rows), dtype=bool)
    for key, val in conditions.items():
        keep &= rows[key] == val
    return rows[keep]


class TestBiasModel:
    def test_neutral_bias_is_noop(self):
        rho = states.random_density(2, 3)
        cfg = CouplingConfig(2, 0.7)
        plain = correlations.build_tables(rho, cfg, PAIRS_EXACT_I)
        neutral = build_tables(rho, cfg, PAIRS_EXACT_I, 0.0, 1.0)
        assert neutral.pairs == plain.pairs
        np.testing.assert_array_equal(neutral.weights, plain.weights)
        np.testing.assert_array_equal(neutral.probs, plain.probs)

    def test_rotation_overlap_geometry(self):
        # a projector tilted by epsilon overlaps its original by cos^2(epsilon)
        _, tilted = pointer_setting("X", 0.02)
        for original, perturbed in zip(pointer_setting("X")[1], tilted):
            overlap = float(np.trace(original @ perturbed).real)
            assert overlap == pytest.approx(np.cos(0.02) ** 2, abs=1e-12)

    def test_perturbed_settings_still_complete(self):
        for name in ("X", "Y", "Z", "Pi1"):
            _, projectors = pointer_setting(name, 0.05)
            np.testing.assert_allclose(projectors.sum(axis=0), np.eye(2), atol=1e-12)

    def test_efficiency_scaling_renormalizes(self):
        rho = states.random_density(2, 3)
        cfg = CouplingConfig(2, 0.7)
        pairs = (("X", "X"), ("Y", "Pi1"))
        tables = correlations.build_tables(rho, cfg, pairs)
        biased = build_tables(rho, cfg, pairs, efficiency=1.05)
        # every (j, pair) table renormalized on its own
        np.testing.assert_allclose(biased.probs.sum(axis=(2, 3, 4)), 1.0, atol=1e-12)
        ratio = biased.probs[:, :, 0] / tables.probs[:, :, 0]
        assert np.all(ratio > 1.0)  # designated row gained weight
        assert np.all(biased.probs[:, :, 1] < tables.probs[:, :, 1])

    def test_model_validation(self):
        rotation = r"pointer rotation bias limited to \|epsilon\| <= 0\.1 rad"
        efficiency = r"projector efficiency limited to \[0\.9, 1\.1\]"
        for bias, message in (
            (dict(bias_epsilon=0.5), rotation),
            (dict(bias_epsilon=float("nan")), rotation),
            (dict(bias_efficiency=1.5), efficiency),
            (dict(bias_efficiency=float("nan")), efficiency),
        ):
            with pytest.raises(ValueError, match=message):
                check_bias(bias.get("bias_epsilon", 0.0), bias.get("bias_efficiency", 1.0))
            with pytest.raises(ValueError, match=message):
                Scenario(scenario_id="v", kind="single", **bias)
            with pytest.raises(ValueError, match=message):
                build_tables(
                    states.maximally_mixed(2), CouplingConfig(2, 0.5), PAIRS_EXACT_I,
                    bias.get("bias_epsilon", 0.0), bias.get("bias_efficiency", 1.0),
                )


class TestBiasDirectionalEffects:
    def test_weak_coupling_amplifies_rotation_bias(self):
        # expected-value runs: the same tilt distorts method II far more at
        # theta = 0.1 than at full strength
        rho = states.pure_state(states.b0_state(2))
        dists = {}
        for theta in (0.1, math.pi / 2):
            cfg = CouplingConfig(2, theta)
            tables = build_tables(rho, cfg, PAIRS_EXACT_II, epsilon=0.02)
            result = reconstruct_exact_ii(correlation_set_from_tables(tables))
            dists[theta] = qmath.trace_distance(result.finalized, rho.matrix)
        assert dists[0.1] > 10 * dists[math.pi / 2]

    def test_strong_regime_robust_for_both_exact_methods(self):
        rho = states.pure_state(states.b0_state(2))
        for rebuild, pairs in (
            (reconstruct_exact_i, PAIRS_EXACT_I),
            (reconstruct_exact_ii, PAIRS_EXACT_II),
        ):
            changes = {}
            for theta in (0.05, math.pi / 2):
                cfg = CouplingConfig(2, theta)
                biased = rebuild(
                    correlation_set_from_tables(build_tables(rho, cfg, pairs, epsilon=0.02))
                )
                changes[theta] = qmath.trace_distance(biased.finalized, rho.matrix)
            assert changes[math.pi / 2] < changes[0.05]


class TestScenarioValidation:
    def test_defaults_fill_in(self):
        scn = Scenario(scenario_id="s", kind="strength_sweep")
        assert len(scn.theta_list) == 12
        assert scn.theta_list[-1] == pytest.approx(math.pi / 2)
        assert len(scn.seeds) == 50

    def test_purity_sweep_defaults(self):
        scn = Scenario(scenario_id="s", kind="purity_sweep")
        assert scn.theta_list == (math.pi / 2,)
        assert len(scn.purity_grid) == 9

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            Scenario(scenario_id="s", kind="nope")
        with pytest.raises(ValueError):
            Scenario(scenario_id="s", kind="single", theta_list=(0.0,))
        with pytest.raises(ValueError):
            Scenario(scenario_id="s", kind="single", theta_list=(0.5,), seeds=())
        with pytest.raises(ValueError):
            Scenario(scenario_id="s", kind="single", theta_list=(0.5,), methods=("Q",))
        with pytest.raises(ValueError):
            Scenario(scenario_id="s", kind="purity_sweep", theta_list=(0.1, 0.2))
        single = dict(scenario_id="s", kind="single", theta_list=(0.5,))
        with pytest.raises(ValueError, match="^need at least one method$"):
            Scenario(**single, methods=())
        with pytest.raises(ValueError, match=r"^source must be one of \('sampled', 'exact'\)$"):
            Scenario(**single, source="simulated")
        with pytest.raises(ValueError, match=r"^reference must be one of \('truth', 'qst'\)$"):
            Scenario(**single, reference="oracle")
        for p in (1.5, -0.5, math.nan):
            with pytest.raises(ValueError, match=rf"^purity point {p} outside \[0, 1\]$"):
                Scenario(scenario_id="s", kind="purity_sweep", purity_grid=(p,))


class TestRunners:
    def test_purity_sweep_exact_mode(self):
        scn = Scenario(
            scenario_id="p1",
            kind="purity_sweep",
            input_state="pure:D",
            purity_grid=(0.25, 0.5, 1.0),
            methods=("W", "I", "II"),
            source="exact",
            seeds=(0,),
        )
        rows = run_scenario(scn, root_seed=1)
        # exact estimators stay at machine precision across all purities
        for method in ("I", "II"):
            for r in rows_by(rows, method=method):
                assert r["trace_distance"] < 1e-10
        # the weak estimator is far off at full strength
        for r in rows_by(rows, method="W"):
            assert r["trace_distance"] > 0.05
        # lower purity shrinks the weak bias (expected-value runs)
        w_rows = sorted(rows_by(rows, method="W"), key=lambda r: r["purity_p"])
        assert w_rows[0]["trace_distance"] < w_rows[-1]["trace_distance"]

    def test_strength_sweep_has_expectation_curve(self):
        scn = Scenario(
            scenario_id="s1",
            kind="strength_sweep",
            input_state="pure:D",
            theta_list=(0.3, math.pi / 2),
            n_events=2000,
            seeds=(0, 1),
        )
        rows = run_scenario(scn, root_seed=3)
        curve = rows_by(rows, seed=EXPECTATION_SEED, method="W")
        assert len(curve) == 2  # one expectation row per theta
        sampled = rows_by(rows, method="W", theta_a=0.3)
        assert len(sampled) == 3  # expectation + two seeds
        # weak expectation distance grows with strength
        by_theta = {r["theta_a"]: r["trace_distance"] for r in curve}
        assert by_theta[math.pi / 2] > by_theta[0.3]
        # the exact estimators' expectation rows stay at machine precision
        for method in ("I", "II"):
            for r in rows_by(rows, seed=EXPECTATION_SEED, method=method):
                assert r["trace_distance"] < 1e-9

    def test_expectation_row_is_limit_of_sampled_rows(self):
        # a seed -1 row applies each estimator to the exact correlations: the
        # large-n limit of its sampled rows, also where bias makes the
        # double-flip correlation vary over the final outcome k
        scn = Scenario(
            scenario_id="lim",
            kind="single",
            input_state="random:seed=5",
            d=3,
            theta_list=(0.5,),
            n_events=10**12,
            seeds=tuple(range(20)),
            bias_epsilon=0.05,
            bias_efficiency=0.95,
        )
        rows = run_scenario(scn, root_seed=0)
        for method in scn.methods:
            (expected,) = rows_by(rows, method=method, seed=EXPECTATION_SEED)["trace_distance"]
            sampled = rows_by(rows, method=method)
            sampled = sampled[sampled["seed"] != EXPECTATION_SEED]["trace_distance"]
            assert len(sampled) == 20
            assert abs(np.median(sampled) - expected) < 1e-3, method

    def test_exact_rows_match_direct_reconstruction(self):
        scn = Scenario(
            scenario_id="x",
            kind="single",
            input_state="random:seed=6",
            d=3,
            theta_list=(0.8,),
            source="exact",
            seeds=(0,),
            methods=("I",),
        )
        rows = run_scenario(scn, root_seed=0)
        assert len(rows) == 1
        assert rows[0]["trace_distance"] < 1e-10
        assert rows[0]["delta_rho"] == 0.0

    def test_error_sweep_reports_bound_and_measured(self):
        scn = Scenario(
            scenario_id="e1",
            kind="error_sweep",
            input_state="pure:D",
            theta_list=(0.2,),
            n_events=4000,
            seeds=(0, 1, 2),
            methods=("W", "II"),
        )
        rows = run_scenario(scn, root_seed=5)
        w = rows_by(rows, method="W", seed=0)[0]
        assert w["bound"] == pytest.approx(0.5 / (0.2**2 * math.sqrt(4000)))
        assert w["delta_rho"] > 0
        ii = rows_by(rows, method="II", seed=0)[0]
        assert math.isnan(ii["bound"])  # no floor below d=5

    def test_qst_method_rows(self):
        scn = Scenario(
            scenario_id="q",
            kind="single",
            input_state="random:seed=3",
            theta_list=(0.5,),
            n_events=50_000,
            seeds=(0, 1),
            methods=("QST",),
        )
        rows = run_scenario(scn, root_seed=9)
        exact_row = rows_by(rows, seed=EXPECTATION_SEED)[0]
        assert exact_row["trace_distance"] < 1e-10
        for r in rows_by(rows, method="QST"):
            if r["seed"] != EXPECTATION_SEED:
                assert 0 < r["trace_distance"] < 0.1
            # tomography propagates no statistical error
            assert math.isnan(r["delta_rho"])

    def test_qst_reference_mode(self):
        scn = Scenario(
            scenario_id="qr",
            kind="single",
            input_state="pure:D",
            theta_list=(math.pi / 2,),
            n_events=20_000,
            seeds=(0,),
            methods=("I",),
            reference="qst",
        )
        rows = run_scenario(scn, root_seed=11)
        sampled = rows_by(rows, seed=0)[0]
        # reference noise keeps this above machine precision but small
        assert 0 < sampled["trace_distance"] < 0.2

    def test_full_determinism(self):
        scn = Scenario(
            scenario_id="det",
            kind="strength_sweep",
            input_state="family:p=0.7,psi=D",
            theta_list=(0.4, 1.2),
            n_events=3000,
            seeds=(0, 1, 2),
            bias_epsilon=0.01,
        )
        csv_a = results_csv(run_scenario(scn, root_seed=21))
        csv_b = results_csv(run_scenario(scn, root_seed=21))
        assert csv_a == csv_b
        csv_c = results_csv(run_scenario(scn, root_seed=22))
        assert csv_a != csv_c

    @pytest.mark.parametrize("reference", ["truth", "qst"])
    def test_seed_rows_independent_of_listed_seeds(self, reference):
        # each seed draws from its own stream: listing other seeds, or
        # listing them in another order, leaves its rows byte-identical
        def seed_2_csv(seeds):
            scn = Scenario(
                scenario_id="ind",
                kind="strength_sweep",
                input_state="random:seed=4",
                d=3,
                theta_list=(0.3, 1.2),
                n_events=800,
                seeds=seeds,
                methods=("W", "I", "II", "QST"),
                reference=reference,
                bias_epsilon=0.01,
                bias_efficiency=0.97,
            )
            rows = rows_by(run_scenario(scn, root_seed=5), seed=2)
            assert len(rows) == 2 * 4
            return results_csv(rows)

        want = seed_2_csv((0, 1, 2))
        assert seed_2_csv((2, 0)) == want
        assert seed_2_csv((2,)) == want

    @pytest.mark.parametrize("methods", [("W", "QST"), ("QST",)], ids=["W-QST", "QST-only"])
    def test_one_generator_per_seed_draws_classes_then_method_then_reference(self, methods):
        # one seed's generator, rebuilt by hand from its derived seed: the
        # outcome classes (when a direct method reads them), then the QST
        # method's Born counts, then the QST reference's, all drawn with
        # numpy directly, give the scenario's rows to the last bit
        scn = Scenario(
            scenario_id="one-stream", kind="strength_sweep", input_state="random:seed=4", d=3,
            theta_list=(0.4, 1.1), n_events=700, seeds=(0, 1, 2), methods=methods,
            reference="qst", bias_epsilon=0.01, bias_efficiency=0.97,
        )
        root_seed, theta, seed, n, d = 5, 1.1, 1, scn.n_events, scn.d
        rows = rows_by(run_scenario(scn, root_seed), theta_a=theta, seed=seed)
        rng = np.random.Generator(np.random.Philox(
            key=correlations.derive_seed(root_seed, scn.scenario_id, "th", theta, seed)
        ))
        rho = states.parse_state_spec(scn.input_state, d)
        cfg = CouplingConfig(d, theta)
        estimates = {}
        if "W" in methods:
            tables = build_tables(rho, cfg, correlations.PAIRS_WEAK, 0.01, 0.97)
            classes = correlations.outcome_classes(tables)
            counts = rng.multinomial(n, classes / classes.sum(axis=-1, keepdims=True))
            values, std_error = correlations.sampled_records_from_counts(counts, n)
            correls = correlations.Correlations(cfg, tables.pairs, values, std_error, n)
            estimates["W"] = reconstruct.reconstruct_weak(correls).finalized
        born = reconstruct.born_probabilities(rho, reconstruct.standard_projector_family(d))
        p = np.clip(born, 0.0, 1.0)
        estimates["QST"] = reconstruct.qst_linear_inversion(rng.binomial(n, p) / n, d).finalized
        reference = reconstruct.qst_linear_inversion(rng.binomial(n, p) / n, d).finalized
        assert sorted(rows["method"]) == sorted(methods)
        for row in rows:
            assert row["trace_distance"] == qmath.trace_distance(estimates[row["method"]], reference)

    def test_rows_sorted(self):
        scn = Scenario(
            scenario_id="srt",
            kind="strength_sweep",
            input_state="pure:D",
            theta_list=(1.2, 0.4),
            n_events=500,
            seeds=(1, 0),
        )
        rows = run_scenario(scn, root_seed=2)
        keys = [(r["theta_a"], r["purity_p"], r["method"], r["seed"]) for r in rows]
        assert keys == sorted(keys)

    def test_unreconstructable_seed_marked_unbounded(self):
        # method II at weak coupling with few events: double-flip counts are
        # zero, no estimate exists, error is unbounded
        scn = Scenario(
            scenario_id="fail",
            kind="single",
            input_state="pure:D",
            theta_list=(0.1,),
            n_events=1000,
            seeds=(0,),
            methods=("II",),
        )
        rows = run_scenario(scn, root_seed=1)
        sampled = rows_by(rows, seed=0)[0]
        assert math.isinf(sampled["delta_rho"])
        assert math.isnan(sampled["trace_distance"])


def one_point_scenarios(scn):
    """The scenario split into one scenario per grid point, under the same id."""
    if scn.kind == "purity_sweep":
        return [replace(scn, purity_grid=(p,)) for p in scn.purity_grid]
    return [replace(scn, theta_list=(theta,)) for theta in scn.theta_list]


@pytest.mark.parametrize("scn", [
    Scenario(
        scenario_id="grid-exact", kind="strength_sweep", input_state="random:seed=3", d=4,
        theta_list=(0.05, 0.4, 1.1, math.pi / 2), source="exact", seeds=(0,),
        methods=("W", "I", "II", "QST"), reference="qst",
        bias_epsilon=0.02, bias_efficiency=1.04,
    ),
    Scenario(
        scenario_id="grid-purity", kind="purity_sweep", input_state="pure:b0", d=3,
        purity_grid=(0.0, 0.3, 0.7, 1.0), n_events=600, seeds=(0, 1, 2),
        methods=("W", "I", "II", "QST"),
    ),
    Scenario(
        scenario_id="grid-error", kind="error_sweep", input_state="random:seed=2", d=5,
        theta_list=(0.1, 0.6, 1.3), n_events=900, seeds=(0, 1), methods=("II", "W"),
    ),
], ids=["exact-strength-qstref", "sampled-purity-qst", "error-d5"])
def test_grid_stack_matches_one_point_scenarios(scn):
    # a scenario's seed -1 rows are estimated as one stack over its grid
    # points; every row, to the last bit, must equal the row of a scenario
    # holding that point alone
    split = np.concatenate([run_scenario(one, root_seed=13) for one in one_point_scenarios(scn)])
    assert results_csv(run_scenario(scn, root_seed=13)) == results_csv(experiments.sort_rows(split))


# The large-n limit, across the config space. At n = 10**12 the median of a
# method's sampled estimates must equal its seed -1 estimate, biased or not.
# The tolerance comes from the seeds' own spread: 4 x IQR / sqrt(9), with
# the elementwise IQR and the difference each taken in the Frobenius norm of
# the real and imaginary parts. A stream that draws the wrong table moves
# the median; one that reuses a key collapses the spread to zero. Where the
# estimates still scatter (small theta, or a trace normalisation near zero)
# n = 10**12 is not yet the limit, so a method is checked only where all of
# its seeds are finite and their spread is at most LIMIT_SPREAD: there the
# normalisation's nonlinearity moves the median by about 1% of the tolerance.
LIMIT_N, LIMIT_SEEDS, LIMIT_SPREAD = 10**12, 9, 0.01


def limit_failures(scn, root_seed):
    """Methods whose median over the seeds misses the seed -1 estimate, and how.

    The finalized estimates are read from `metrics.compare`, which the rows'
    builder calls once for the point's seed stack and once for its seed -1 row.
    """
    compared = []
    compare = experiments.metrics.compare

    def spy(finalized, errors, reference):
        compared.append(finalized)
        return compare(finalized, errors, reference)

    with mock.patch.object(experiments.metrics, "compare", spy):
        run_scenario(scn, root_seed)
    sampled, expected = compared
    assert sampled.shape[:2] == (len(scn.methods), LIMIT_SEEDS)
    failures = []
    for method, seeds, limit in zip(scn.methods, sampled, expected[:, 0]):
        parts = np.stack([seeds.real, seeds.imag], axis=1)
        q1, median, q3 = np.percentile(parts, [25, 50, 75], axis=0)
        spread = np.linalg.norm(q3 - q1)
        if not (np.isfinite(parts).all() and spread <= LIMIT_SPREAD):
            continue
        if scn.d == 1:  # every estimate is [[1]], whatever the counts: no spread to read
            if not np.allclose([*seeds.ravel(), limit.item()], 1.0, rtol=0, atol=4e-16):
                failures.append(f"{method}: a 1 x 1 estimate is not 1")
            continue
        miss = np.linalg.norm(median - np.stack([limit.real, limit.imag]))
        if not miss <= 4 * spread / math.sqrt(LIMIT_SEEDS):
            failures.append(f"{method}: median misses by {miss:.3e}, spread {spread:.3e}")
    return failures


@st.composite
def limit_scenarios(draw):
    d = draw(st.integers(1, 6))
    labels = ["b0", *(f"a{j}" for j in range(1, d + 1))] + (["H", "D", "R"] if d == 2 else [])
    state = draw(st.one_of(
        st.integers(0, 2**31 - 1).map(lambda s: f"random:seed={s}"),
        st.sampled_from(labels).map(lambda label: f"pure:{label}"),
        st.just("mixed"),
    ))
    log_theta = draw(st.floats(math.log(1e-3), math.log(math.pi / 2)))
    epsilon, efficiency = draw(st.one_of(
        st.just((0.0, 1.0)), st.tuples(st.floats(-0.1, 0.1), st.floats(0.9, 1.1))
    ))
    return Scenario(
        scenario_id="limit", kind="single", input_state=state, d=d,
        theta_list=(min(math.exp(log_theta), math.pi / 2),), n_events=LIMIT_N,
        seeds=tuple(range(LIMIT_SEEDS)),
        methods=tuple(draw(st.lists(st.sampled_from(experiments.METHODS), min_size=1,
                                    unique=True))),
        bias_epsilon=epsilon, bias_efficiency=efficiency,
    )


@settings(derandomize=True, max_examples=100, deadline=None)
@given(scn=limit_scenarios(), root_seed=st.integers(0, 2**64 - 1))
def test_median_of_sampled_rows_is_the_expectation(scn, root_seed):
    failures = limit_failures(scn, root_seed)
    assert not failures, failures
