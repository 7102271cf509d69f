"""Correlation values: trace path vs closed forms vs finite-N sampling."""

import numpy as np
import pytest
from dense_oracle import couplings, evolved, trace_tables
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dmrecon import correlations, protocol, states
from dmrecon.correlations import (
    PAIRS_EXACT_I,
    PAIRS_EXACT_II,
    SUPPORTED_PAIRS,
    Correlations,
    analytic_correlation,
    derive_seed,
    sample_counts,
    sampled_records_from_counts,
    stack_sets,
)
from dmrecon.experiments import BiasModel, build_tables
from dmrecon.protocol import CouplingConfig


def exact_values(rho, pair, cfg):
    """Exact <O_A O_B> of one pair as a d x d matrix indexed [j-1, k-1]."""
    return correlations.exact_correlation_set(rho, cfg, (pair,)).column(pair)[0]


def tables_for(rho, pair, cfg):
    return correlations.build_tables(rho, cfg, (pair,))


def sample(tables, j, n, root_seed):
    """Counts, per-k estimates and per-k standard errors of setting (j, pairs[0])."""
    counts = sample_counts(tables, n, root_seed)
    est, se = sampled_records_from_counts(tables, counts, n)
    return counts[j - 1, 0], est[j - 1, :, 0], se[j - 1, :, 0]


class TestOutcomeTables:
    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 5),
        seed=st.integers(0, 2**31 - 1),
        theta_a=st.floats(0.05, np.pi / 2),
        theta_b=st.floats(0.05, np.pi / 2),
        tilt=st.floats(-0.1, 0.1),
    )
    def test_probs_match_elementwise_trace(self, d, seed, theta_a, theta_b, tilt):
        # every probs[j, p, alpha, beta, k] against Tr[(Pi_k (x) P_alpha (x) Q_beta) sigma_j],
        # with sigma_j = U_B U_A (rho (x) |00><00|) (U_B U_A)^dagger evolved densely
        assume(abs(theta_a - theta_b) > 1e-3 and abs(tilt) > 1e-4)
        rho = states.random_density(d, seed)
        cfg = CouplingConfig(d, theta_a, theta_b)
        tables = correlations.build_tables(rho, cfg, SUPPORTED_PAIRS, tilt)
        assert tables.probs.shape == (d, len(SUPPORTED_PAIRS), 2, 2, d)
        setting_pairs = [
            (protocol.pointer_setting(obs_a, tilt), protocol.pointer_setting(obs_b, tilt))
            for obs_a, obs_b in SUPPORTED_PAIRS
        ]
        for p, (setting_a, setting_b) in enumerate(setting_pairs):
            for alpha, (eig_a, _) in enumerate(setting_a.projectors):
                for beta, (eig_b, _) in enumerate(setting_b.projectors):
                    assert tables.weights[p, alpha, beta] == eig_a * eig_b
        for j in range(1, d + 1):
            u_a, u_b = couplings(j, cfg)
            expected = trace_tables(evolved(rho, u_b @ u_a), setting_pairs)
            assert np.max(np.abs(tables.probs[j - 1] - expected)) <= 1e-14

    def test_counts_follow_one_philox_stream(self):
        # pins the sampling stream: one Philox generator keyed by the root
        # seed, one multinomial draw over the (d, P, 4d) stack of flat tables
        rho = states.random_density(3, 41)
        tables = correlations.build_tables(rho, CouplingConfig(3, 0.4, 1.2), PAIRS_EXACT_II, 0.02)
        root, n = 12345, 777
        counts = sample_counts(tables, n, root)
        flat = tables.probs.reshape(3, len(PAIRS_EXACT_II), 12)
        rng = np.random.Generator(np.random.Philox(root))
        expected = rng.multinomial(n, flat / flat.sum(axis=-1, keepdims=True))
        assert counts.shape == tables.probs.shape
        np.testing.assert_array_equal(counts, expected.reshape(tables.probs.shape))
        assert np.all(counts.sum(axis=(2, 3, 4)) == n)


class TestExactCorrelation:
    def test_real_state_has_zero_xy(self):
        rho = states.pure_state(states.basis_state(2, 1))
        cfg = CouplingConfig(2, 0.8, 0.8)
        cs = correlations.exact_correlation_set(rho, cfg, (("X", "Y"),))
        assert cs.values[0, 1, 0] == pytest.approx(0.0, abs=1e-12)
        assert cs.n_events == 0
        assert np.all(cs.std_error == 0.0)

    def test_diagonal_state_yy_value(self):
        # <Y_A Y_B> = -Re rho_12 / (2 n_ab) off the diagonal
        rho = states.pure_state(states.b0_state(2))
        cfg = CouplingConfig(2, np.pi / 2, np.pi / 2)
        assert exact_values(rho, ("Y", "Y"), cfg)[0, 1] == pytest.approx(-0.5, abs=1e-12)

    def test_double_flip_value_and_k_independence(self):
        rho = states.maximally_mixed(2)
        cfg = CouplingConfig(2, np.pi / 2, np.pi / 2)
        np.testing.assert_allclose(exact_values(rho, ("Pi1", "Pi1"), cfg)[0], 0.125, atol=1e-12)

    def test_double_flip_k_independent_random_state(self):
        rho = states.random_density(4, 77)
        cfg = CouplingConfig(4, 0.6, 1.1)
        pp = exact_values(rho, ("Pi1", "Pi1"), cfg)
        assert np.max(pp.max(axis=1) - pp.min(axis=1)) < 1e-12


class TestAnalyticCorrelation:
    def test_agrees_with_trace_path_randomized(self):
        # the central oracle pairing: 200 randomized scenarios, all eight pairs
        rng = np.random.default_rng(505)
        worst = 0.0
        for _ in range(200):
            d = int(rng.integers(2, 6))
            rho = states.random_density(d, int(rng.integers(0, 2**31)))
            cfg = CouplingConfig(
                d,
                float(rng.uniform(0.05, np.pi / 2)),
                float(rng.uniform(0.05, np.pi / 2)),
            )
            j = int(rng.integers(1, d + 1))
            k = int(rng.integers(1, d + 1))
            cs = correlations.exact_correlation_set(rho, cfg, SUPPORTED_PAIRS)
            for (oa, ob), trace_val in zip(cs.pairs, cs.values[j - 1, k - 1]):
                closed_val = analytic_correlation(rho, j, k, oa, ob, cfg)
                worst = max(worst, abs(trace_val - closed_val))
        assert worst < 1e-10

    def test_real_state_kills_ya_terms(self):
        # <Y_A X_B> is built from imaginary parts only
        rho = states.purity_family(0.7, states.named_ket("D", 2))
        cfg = CouplingConfig(2, 0.4, 0.9)
        for j in (1, 2):
            for k in (1, 2):
                assert analytic_correlation(rho, j, k, "Y", "X", cfg) == pytest.approx(
                    0.0, abs=1e-14
                )

    def test_x_pi1_at_full_a_strength(self):
        # c_A = 0 reduces the closed form to s_B (row sum - rho_jj) / (2 d n_ab)
        rho = states.random_density(3, 8)
        cfg = CouplingConfig(3, np.pi / 2, 0.7)
        j = 2
        expected = (
            np.sin(0.7)
            * (rho.matrix[j - 1].real.sum() - rho.matrix[j - 1, j - 1].real)
            / (2 * 3 * cfg.n_ab)
        )
        assert analytic_correlation(rho, j, 1, "X", "Pi1", cfg) == pytest.approx(
            expected, abs=1e-14
        )

    def test_magnitude_bounded(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            rho = states.random_density(3, int(rng.integers(0, 1000)))
            cfg = CouplingConfig(3, 0.9, 0.9)
            for oa, ob in SUPPORTED_PAIRS:
                assert abs(analytic_correlation(rho, 1, 2, oa, ob, cfg)) <= 1 + 1e-9

    def test_rejects_unsupported_pair(self):
        rho = states.maximally_mixed(2)
        cfg = CouplingConfig(2, 0.5, 0.5)
        with pytest.raises(ValueError, match="supported pairs"):
            analytic_correlation(rho, 1, 1, "Z", "Z", cfg)


class TestSampling:
    def test_same_seed_identical_counts(self):
        rho = states.random_density(2, 4)
        cfg = CouplingConfig(2, 1.0, 1.0)
        tables = tables_for(rho, ("X", "Y"), cfg)
        counts_a, est_a, _ = sample(tables, 1, 5000, 99)
        counts_b, est_b, _ = sample(tables, 1, 5000, 99)
        np.testing.assert_array_equal(counts_a, counts_b)
        np.testing.assert_array_equal(est_a, est_b)

    def test_counts_total_and_record_shape(self):
        rho = states.random_density(3, 4)
        cfg = CouplingConfig(3, 0.9, 0.9)
        tables = tables_for(rho, ("Y", "Y"), cfg)
        counts = sample_counts(tables, 1234, 5)
        assert counts.shape == tables.probs.shape == (3, 1, 2, 2, 3)
        np.testing.assert_array_equal(counts.sum(axis=(2, 3, 4)), 1234)
        est, se = sampled_records_from_counts(tables, counts, 1234)
        assert est.shape == se.shape == (3, 3, 1)
        cs = correlations.sampled_correlation_set(rho, cfg, (("Y", "Y"),), 1234, root_seed=5)
        assert cs.n_events == 1234

    def test_double_flip_estimate_is_relative_frequency(self):
        rho = states.random_density(2, 6)
        cfg = CouplingConfig(2, np.pi / 2, np.pi / 2)
        counts, est, _ = sample(tables_for(rho, ("Pi1", "Pi1"), cfg), 1, 2000, 3)
        np.testing.assert_allclose(est, counts[0, 0] / 2000)
        assert np.all((0.0 <= est) & (est <= 1.0))

    def test_large_n_consistency(self):
        # 20 random scenarios at n = 1e6: estimate within 5 standard errors
        rng = np.random.default_rng(607)
        for trial in range(20):
            d = int(rng.integers(2, 4))
            rho = states.random_density(d, trial)
            cfg = CouplingConfig(d, float(rng.uniform(0.2, np.pi / 2)), float(rng.uniform(0.2, np.pi / 2)))
            j = int(rng.integers(1, d + 1))
            pair = SUPPORTED_PAIRS[int(rng.integers(0, len(SUPPORTED_PAIRS)))]
            _, est, se = sample(tables_for(rho, pair, cfg), j, 10**6, trial)
            k = int(rng.integers(1, d + 1))
            exact = exact_values(rho, pair, cfg)[j - 1, k - 1]
            margin = 5 * max(se[k - 1], 1e-9)
            assert abs(est[k - 1] - exact) < margin

    def test_estimates_unbiased(self):
        # mean over 200 independent draws deviates < 4 sigma/sqrt(200)
        rho = states.random_density(2, 31)
        cfg = CouplingConfig(2, 0.8, 0.8)
        exact = exact_values(rho, ("X", "X"), cfg)[0, 1]
        tables = tables_for(rho, ("X", "X"), cfg)
        n = 10**4
        vals, errs = [], []
        for seed in range(200):
            _, est, se = sample(tables, 1, n, seed)
            vals.append(est[1])
            errs.append(se[1])
        mean = float(np.mean(vals))
        se_mean = float(np.mean(errs)) / np.sqrt(200)
        assert abs(mean - exact) < 4 * se_mean

    def test_std_error_tracks_spread(self):
        rho = states.random_density(2, 15)
        cfg = CouplingConfig(2, 1.2, 1.2)
        tables = tables_for(rho, ("Y", "Y"), cfg)
        vals, errs = [], []
        for seed in range(150):
            _, est, se = sample(tables, 1, 4000, 1000 + seed)
            vals.append(est[0])
            errs.append(se[0])
        spread = float(np.std(vals))
        claimed = float(np.mean(errs))
        assert claimed == pytest.approx(spread, rel=0.25)


ROOTS = [derive_seed(9, "stack", s) for s in range(5)]


def stacked_tables(d, biased):
    """Outcome tables of every pair at one point, with tilt and efficiency bias or none."""
    rho = states.random_density(d, 50 + d)
    bias = BiasModel(0.04, 0.93) if biased else BiasModel()
    return build_tables(rho, CouplingConfig(d, 0.3, 1.4), SUPPORTED_PAIRS, bias)


class TestSeedStack:
    # a list of root seeds draws a seed stack in one call; slice s must be
    # the single-root draw of roots[s], bit for bit

    @pytest.mark.parametrize("biased", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 5, 16])
    def test_stack_equals_per_root_calls(self, d, biased):
        tables = stacked_tables(d, biased)
        n = 3000
        counts = sample_counts(tables, n, ROOTS)
        assert counts.shape == (len(ROOTS), *tables.probs.shape)
        for root, slice_ in zip(ROOTS, counts):
            np.testing.assert_array_equal(slice_, sample_counts(tables, n, root))
        stack = correlations.correlation_set_from_tables(tables, sampled=True, n=n, root_seed=ROOTS)
        oracle = stack_sets([
            correlations.correlation_set_from_tables(tables, sampled=True, n=n, root_seed=root)
            for root in ROOTS
        ])
        assert stack.pairs == oracle.pairs and stack.n_events == oracle.n_events == n
        assert stack.values.shape == (len(ROOTS), d, d, len(SUPPORTED_PAIRS))
        np.testing.assert_array_equal(stack.values, oracle.values)
        np.testing.assert_array_equal(stack.std_error, oracle.std_error)

    def test_slice_independent_of_other_roots(self):
        tables = stacked_tables(4, True)
        full = correlations.correlation_set_from_tables(tables, sampled=True, n=500, root_seed=ROOTS)
        for others in ([ROOTS[2], ROOTS[4], ROOTS[0]], [ROOTS[2]], ROOTS[:0:-1]):
            part = correlations.correlation_set_from_tables(
                tables, sampled=True, n=500, root_seed=others
            )
            s = others.index(ROOTS[2])
            np.testing.assert_array_equal(part.values[s], full.values[2])
            np.testing.assert_array_equal(part.std_error[s], full.std_error[2])

    def test_one_element_list_keeps_the_seed_axis(self):
        tables = stacked_tables(2, False)
        counts = sample_counts(tables, 100, ROOTS[:1])
        assert counts.shape == (1, *tables.probs.shape)
        np.testing.assert_array_equal(counts[0], sample_counts(tables, 100, ROOTS[0]))

    def test_rejects_empty_roots_and_no_events(self):
        tables = stacked_tables(2, False)
        with pytest.raises(ValueError, match="at least one root seed"):
            sample_counts(tables, 100, [])
        for n in (0, -1):
            with pytest.raises(ValueError, match="at least one event"):
                sample_counts(tables, n, ROOTS)
            with pytest.raises(ValueError, match="at least one event"):
                correlations.correlation_set_from_tables(tables, sampled=True, n=n, root_seed=7)


class TestCorrelationSet:
    def test_missing_entry_named(self):
        rho = states.maximally_mixed(2)
        cs = correlations.exact_correlation_set(rho, CouplingConfig(2, 0.5, 0.5), PAIRS_EXACT_II)
        with pytest.raises(ValueError, match=r"missing correlation <X_A X_B>"):
            cs.column(("X", "X"))

    def test_roundtrip(self):
        cs = Correlations((("X", "X"),), np.full((1, 1, 1), 0.25), np.zeros((1, 1, 1)))
        values, errors = cs.column(("X", "X"))
        assert values[0, 0] == 0.25
        assert errors[0, 0] == 0.0
        assert len(cs) == 1

    def test_exact_set_covers_all_indices(self):
        rho = states.random_density(3, 20)
        cfg = CouplingConfig(3, 0.5, 0.5)
        cs = correlations.exact_correlation_set(rho, cfg, PAIRS_EXACT_I)
        assert len(cs) == 3 * 3 * len(PAIRS_EXACT_I)
        assert cs.values.shape == (3, 3, len(PAIRS_EXACT_I))
        assert cs.pairs == PAIRS_EXACT_I

    def test_record_validation(self):
        with pytest.raises(ValueError, match="standard error"):
            Correlations((("X", "X"),), np.zeros((1, 1, 1)), np.full((1, 1, 1), 0.1))
        with pytest.raises(ValueError, match="shaped"):
            Correlations((("X", "X"),), np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        a = derive_seed(7, "corr", 1, "X", "Y")
        assert a == derive_seed(7, "corr", 1, "X", "Y")
        assert a != derive_seed(7, "corr", 2, "X", "Y")
        assert a != derive_seed(8, "corr", 1, "X", "Y")

    def test_sampled_sets_reproducible(self):
        rho = states.random_density(2, 12)
        cfg = CouplingConfig(2, 0.9, 0.9)
        cs1 = correlations.sampled_correlation_set(rho, cfg, PAIRS_EXACT_I, 500, root_seed=3)
        cs2 = correlations.sampled_correlation_set(rho, cfg, PAIRS_EXACT_I, 500, root_seed=3)
        np.testing.assert_array_equal(cs1.values, cs2.values)
        np.testing.assert_array_equal(cs1.std_error, cs2.std_error)
