"""Correlation values: trace path vs closed forms vs finite-N sampling."""

from dataclasses import replace

import numpy as np
import pytest
from dense_oracle import couplings, evolved, trace_tables
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dmrecon import correlations, protocol, reconstruct, states
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
from dmrecon.experiments import build_tables
from dmrecon.protocol import CouplingConfig


def exact_values(rho, pair, cfg):
    """Exact <O_A O_B> of one pair as a d x d matrix indexed [j-1, k-1]."""
    return correlations.correlation_set(rho, cfg, (pair,)).column(pair)[0]


def tables_for(rho, pair, cfg):
    return correlations.build_tables(rho, cfg, (pair,))


def classes_by_loop(weights, cells):
    """Merge cells [..., j-1, p, alpha, beta, k-1] into outcome classes [..., j-1, p, c], one at a time.

    Class k-1 gathers weight +1 at k, class d + k-1 weight -1 at k, class 2d
    every zero-weight cell.
    """
    d, n_pairs = cells.shape[-1], cells.shape[-4]
    out = np.zeros((*cells.shape[:-3], 2 * d + 1), dtype=cells.dtype)
    for p in range(n_pairs):
        for alpha in range(2):
            for beta in range(2):
                w = weights[p, alpha, beta]
                for k in range(d):
                    c = {1.0: k, -1.0: d + k, 0.0: 2 * d}[w]
                    out[..., p, c] += cells[..., p, alpha, beta, k]
    return out


def sample(tables, j, n, root_seed):
    """Class counts, per-k estimates and per-k standard errors of setting (j, pairs[0])."""
    (counts,), _ = sample_counts(tables, n, [root_seed])
    est, se = sampled_records_from_counts(counts, n)
    return counts[j - 1, 0], est[j - 1, :, 0], se[j - 1, :, 0]


class TestOutcomeTables:
    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 5),
        seed=st.integers(0, 2**31 - 1),
        theta=st.floats(0.05, np.pi / 2),
        tilt=st.floats(-0.1, 0.1),
    )
    def test_probs_match_elementwise_trace(self, d, seed, theta, tilt):
        # every probs[j, p, alpha, beta, k] against Tr[(Pi_k (x) P_alpha (x) Q_beta) sigma_j],
        # with sigma_j = U_B U_A (rho (x) |00><00|) (U_B U_A)^dagger evolved densely
        assume(abs(tilt) > 1e-4)
        rho = states.random_density(d, seed)
        cfg = CouplingConfig(d, theta)
        tables = correlations.build_tables(rho, cfg, SUPPORTED_PAIRS, tilt)
        assert tables.probs.shape == (d, len(SUPPORTED_PAIRS), 2, 2, d)
        setting_pairs = [
            (protocol.pointer_setting(obs_a, tilt), protocol.pointer_setting(obs_b, tilt))
            for obs_a, obs_b in SUPPORTED_PAIRS
        ]
        for p, ((eigs_a, _), (eigs_b, _)) in enumerate(setting_pairs):
            for alpha, eig_a in enumerate(eigs_a):
                for beta, eig_b in enumerate(eigs_b):
                    assert tables.weights[p, alpha, beta] == eig_a * eig_b
        for j in range(1, d + 1):
            u_a, u_b = couplings(j, cfg)
            expected = trace_tables(evolved(rho, u_b @ u_a), setting_pairs)
            assert np.max(np.abs(tables.probs[j - 1] - expected)) <= 1e-14

    def test_counts_follow_one_philox_stream(self):
        # pins the sampling stream: one Philox generator keyed by the key,
        # one multinomial draw over the (d, P, 2d + 1) outcome classes
        rho = states.random_density(3, 41)
        tables = build_tables(rho, CouplingConfig(3, 0.4), PAIRS_EXACT_II, 0.02, 0.95)
        key, n = 12345, 777
        (counts,), _ = sample_counts(tables, n, [key])
        classes = classes_by_loop(tables.weights, tables.probs)
        np.testing.assert_allclose(correlations.outcome_classes(tables), classes, rtol=0, atol=1e-15)
        rng = np.random.Generator(np.random.Philox(key=key))
        expected = rng.multinomial(n, classes / classes.sum(axis=-1, keepdims=True))
        assert counts.shape == (3, len(PAIRS_EXACT_II), 7)
        np.testing.assert_array_equal(counts, expected)
        assert np.all(counts.sum(axis=-1) == n)
        # Pi1-Pi1 has no weight -1 outcome: its padded classes draw nothing
        assert np.all(counts[:, PAIRS_EXACT_II.index(("Pi1", "Pi1")), 3:6] == 0)

    @pytest.mark.parametrize("draws", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 4, 16])
    def test_each_root_draws_its_classes_then_its_born_counts(self, d, draws):
        # pins the stream of every slice of a seed stack: a fresh Philox(key=k)
        # draws the class multinomial, then one binomial per Born vector, in order
        tables = stacked_tables(d, True)
        classes = correlations.outcome_classes(tables)
        pvals = classes / classes.sum(axis=-1, keepdims=True)
        keys = [derive_seed(3, "pin", d, s) for s in range(50)]
        born = np.random.default_rng(d).uniform(size=(2, d * d))[:draws]
        n = 500
        counts, born_counts = sample_counts(tables, n, keys, born)
        assert counts.shape == (50, d, len(SUPPORTED_PAIRS), 2 * d + 1)
        assert born_counts.shape == (50, draws, d * d if draws else 0)
        for key, slice_counts, slice_born in zip(keys, counts, born_counts):
            fresh = np.random.Generator(np.random.Philox(key=key))
            np.testing.assert_array_equal(slice_counts, fresh.multinomial(n, pvals))
            for got, p in zip(slice_born, born):
                np.testing.assert_array_equal(got, fresh.binomial(n, p))

    def test_born_stack_draws_as_one_binomial_per_vector(self):
        # the (B, P) Born stack is drawn by one binomial call: on each key it
        # gives the counts of one binomial per vector from a fresh
        # Philox(key=k), and leaves the stream at the same next draw
        born = np.random.default_rng(9).uniform(size=(3, 16))
        keys = [derive_seed(5, "born", s) for s in range(3)]
        _, born_counts = sample_counts(None, 400, keys, born)
        assert born_counts.shape == (3, 3, 16)
        for key, slice_born in zip(keys, born_counts):
            per_vector = np.random.Generator(np.random.Philox(key=key))
            one_call = np.random.Generator(np.random.Philox(key=key))
            expected = [per_vector.binomial(400, p) for p in born]
            np.testing.assert_array_equal(slice_born, expected)
            np.testing.assert_array_equal(one_call.binomial(400, born), expected)
            assert one_call.random() == per_vector.random()

    def test_born_counts_alone_follow_the_stream(self):
        # with no tables, the Born vectors are the first draws of each stream;
        # numpy integers key the stream their int value keys
        born = np.random.default_rng(8).uniform(size=(2, 9))
        keys = [77, np.uint64(2**64 - 1), np.int32(77)]
        counts, born_counts = sample_counts(None, 300, keys, born)
        assert counts is None and born_counts.shape == (3, 2, 9)
        for key, slice_born in zip(keys, born_counts):
            fresh = np.random.Generator(np.random.Philox(key=int(key)))
            for got, p in zip(slice_born, born):
                np.testing.assert_array_equal(got, fresh.binomial(300, p))


# the text of a scenario id may hold the payload's separator and its tags
SCENARIO_IDS = st.one_of(
    st.text(min_size=1, max_size=12),
    st.lists(st.sampled_from(["::", "th", "p", "0.5", "7", "é", "鍵", "\x00"]), min_size=1,
             max_size=6).map("".join),
)
# (root, scenario id, tag, theta or purity, seed): one sampled seed of a config
COORDINATES = st.tuples(
    st.integers(0, 2**64 - 1),
    SCENARIO_IDS,
    st.one_of(
        st.tuples(st.just("th"), st.floats(3.5e-77, np.pi / 2)),
        st.tuples(st.just("p"), st.floats(0.0, 1.0)),
    ),
    st.integers(0, 2**63 - 1),
).map(lambda c: (c[0], c[1], *c[2], c[3]))


class TestKeys:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(coords=st.lists(COORDINATES, min_size=2, max_size=6), pick=st.data())
    def test_distinct_coordinates_give_distinct_keys(self, coords, pick):
        # a key per seed of any config: equal coordinates, rebuilt from their
        # text, give equal keys, distinct ones distinct keys, all within 128 bits
        twin = pick.draw(st.sampled_from(coords))
        coords.append((int(str(twin[0])), "".join(twin[1]), twin[2], float(repr(twin[3])), twin[4]))
        keys = {}
        for c in coords:
            key = derive_seed(*c)
            assert type(key) is int and 0 <= key <= 2**128 - 1
            assert keys.setdefault(c, key) == key
        assert len(set(keys.values())) == len(keys)


class TestExactCorrelation:
    def test_real_state_has_zero_xy(self):
        rho = states.pure_state(states.basis_state(2, 1))
        cfg = CouplingConfig(2, 0.8)
        cs = correlations.correlation_set(rho, cfg, (("X", "Y"),))
        assert cs.values[0, 1, 0] == pytest.approx(0.0, abs=1e-12)
        assert cs.n_events == 0
        assert np.all(cs.std_error == 0.0)

    def test_diagonal_state_yy_value(self):
        # <Y_A Y_B> = -Re rho_12 / (2 n_ab) off the diagonal
        rho = states.pure_state(states.b0_state(2))
        cfg = CouplingConfig(2, np.pi / 2)
        assert exact_values(rho, ("Y", "Y"), cfg)[0, 1] == pytest.approx(-0.5, abs=1e-12)

    def test_double_flip_value_and_k_independence(self):
        rho = states.maximally_mixed(2)
        cfg = CouplingConfig(2, np.pi / 2)
        np.testing.assert_allclose(exact_values(rho, ("Pi1", "Pi1"), cfg)[0], 0.125, atol=1e-12)

    def test_double_flip_k_independent_random_state(self):
        rho = states.random_density(4, 77)
        cfg = CouplingConfig(4, 0.6)
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
            cfg = CouplingConfig(d, float(rng.uniform(0.05, np.pi / 2)))
            j = int(rng.integers(1, d + 1))
            k = int(rng.integers(1, d + 1))
            cs = correlations.correlation_set(rho, cfg, SUPPORTED_PAIRS)
            for (oa, ob), trace_val in zip(cs.pairs, cs.values[j - 1, k - 1]):
                closed_val = analytic_correlation(rho, j, k, oa, ob, cfg)
                worst = max(worst, abs(trace_val - closed_val))
        assert worst < 1e-10

    def test_real_state_kills_ya_terms(self):
        # <Y_A X_B> is built from imaginary parts only
        rho = states.purity_family(0.7, states.named_ket("D", 2))
        cfg = CouplingConfig(2, 0.4)
        for j in (1, 2):
            for k in (1, 2):
                assert analytic_correlation(rho, j, k, "Y", "X", cfg) == pytest.approx(
                    0.0, abs=1e-14
                )

    def test_x_pi1_at_full_a_strength(self):
        # c = 0 and s = 1 reduce the closed form to (row sum - rho_jj) / (2 d n_ab)
        rho = states.random_density(3, 8)
        cfg = CouplingConfig(3, np.pi / 2)
        j = 2
        row_off = rho.matrix[j - 1].real.sum() - rho.matrix[j - 1, j - 1].real
        expected = row_off / (2 * 3 * cfg.n_ab)
        assert analytic_correlation(rho, j, 1, "X", "Pi1", cfg) == pytest.approx(
            expected, abs=1e-14
        )

    def test_magnitude_bounded(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            rho = states.random_density(3, int(rng.integers(0, 1000)))
            cfg = CouplingConfig(3, 0.9)
            for oa, ob in SUPPORTED_PAIRS:
                assert abs(analytic_correlation(rho, 1, 2, oa, ob, cfg)) <= 1 + 1e-9

    def test_rejects_unsupported_pair(self):
        rho = states.maximally_mixed(2)
        cfg = CouplingConfig(2, 0.5)
        with pytest.raises(ValueError, match="supported pairs"):
            analytic_correlation(rho, 1, 1, "Z", "Z", cfg)

    @pytest.mark.parametrize("d_state, d_cfg, j", [(3, 2, 1), (2, 3, 3)])
    def test_rejects_state_of_another_dimension(self, d_state, d_cfg, j):
        # j = 3 lies inside the config's range but outside the d = 2 state
        rho = states.random_density(d_state, 1)
        cfg = CouplingConfig(d_cfg, 0.5)
        message = f"state dimension {d_state} does not match config d={d_cfg}"
        with pytest.raises(ValueError, match=message):
            analytic_correlation(rho, j, j, "X", "X", cfg)


class TestSampling:
    def test_same_seed_identical_counts(self):
        rho = states.random_density(2, 4)
        cfg = CouplingConfig(2, 1.0)
        tables = tables_for(rho, ("X", "Y"), cfg)
        counts_a, est_a, _ = sample(tables, 1, 5000, 99)
        counts_b, est_b, _ = sample(tables, 1, 5000, 99)
        np.testing.assert_array_equal(counts_a, counts_b)
        np.testing.assert_array_equal(est_a, est_b)

    def test_counts_total_and_record_shape(self):
        rho = states.random_density(3, 4)
        cfg = CouplingConfig(3, 0.9)
        tables = tables_for(rho, ("Y", "Y"), cfg)
        (counts,), _ = sample_counts(tables, 1234, [5])
        assert counts.shape == (3, 1, 7)
        np.testing.assert_array_equal(counts.sum(axis=-1), 1234)
        est, se = sampled_records_from_counts(counts, 1234)
        assert est.shape == se.shape == (3, 3, 1)
        cs = correlations.correlation_set(rho, cfg, (("Y", "Y"),), 1234, root_seed=5)
        assert cs.n_events == 1234

    def test_double_flip_estimate_is_relative_frequency(self):
        rho = states.random_density(2, 6)
        cfg = CouplingConfig(2, np.pi / 2)
        counts, est, _ = sample(tables_for(rho, ("Pi1", "Pi1"), cfg), 1, 2000, 3)
        np.testing.assert_allclose(est, counts[:2] / 2000)
        np.testing.assert_array_equal(counts[2:4], 0)
        assert np.all((0.0 <= est) & (est <= 1.0))

    def test_large_n_consistency(self):
        # 20 random scenarios at n = 1e6: estimate within 5 standard errors
        rng = np.random.default_rng(607)
        for trial in range(20):
            d = int(rng.integers(2, 4))
            rho = states.random_density(d, trial)
            cfg = CouplingConfig(d, float(rng.uniform(0.2, np.pi / 2)))
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
        cfg = CouplingConfig(2, 0.8)
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
        cfg = CouplingConfig(2, 1.2)
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
    bias = (0.04, 0.93) if biased else (0.0, 1.0)
    return build_tables(rho, CouplingConfig(d, 0.3), SUPPORTED_PAIRS, *bias)


def set_from_tables(rho, cfg, pairs, n=0, root_seed=None):
    return correlations.correlation_set_from_tables(build_tables(rho, cfg, pairs), n, root_seed)


# both ways to build a correlation set follow the same n and root-seed rules
SET_BUILDERS = pytest.mark.parametrize(
    "make", [set_from_tables, correlations.correlation_set],
    ids=["from_tables", "correlation_set"],
)


class TestSeedStack:
    # a list of root seeds draws a seed stack in one call; slice s must be
    # the single-root draw of roots[s], bit for bit

    @pytest.mark.parametrize("biased", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 5, 16])
    def test_stack_equals_per_root_calls(self, d, biased):
        tables = stacked_tables(d, biased)
        n = 3000
        counts, _ = sample_counts(tables, n, ROOTS)
        assert counts.shape == (len(ROOTS), d, len(SUPPORTED_PAIRS), 2 * d + 1)
        for root, slice_ in zip(ROOTS, counts):
            np.testing.assert_array_equal(slice_, sample_counts(tables, n, [root])[0][0])
        stack = correlations.correlation_set_from_tables(tables, n=n, root_seed=ROOTS)
        oracle = stack_sets([
            correlations.correlation_set_from_tables(tables, n=n, root_seed=root)
            for root in ROOTS
        ])
        assert stack.pairs == oracle.pairs and stack.n_events == oracle.n_events == n
        assert stack.values.shape == (len(ROOTS), d, d, len(SUPPORTED_PAIRS))
        np.testing.assert_array_equal(stack.values, oracle.values)
        np.testing.assert_array_equal(stack.std_error, oracle.std_error)

    def test_slice_independent_of_other_roots(self):
        tables = stacked_tables(4, True)
        full = correlations.correlation_set_from_tables(tables, n=500, root_seed=ROOTS)
        for others in ([ROOTS[2], ROOTS[4], ROOTS[0]], [ROOTS[2]], ROOTS[:0:-1]):
            part = correlations.correlation_set_from_tables(
                tables, n=500, root_seed=others
            )
            s = others.index(ROOTS[2])
            np.testing.assert_array_equal(part.values[s], full.values[2])
            np.testing.assert_array_equal(part.std_error[s], full.std_error[2])

    def test_one_element_list_keeps_the_seed_axis(self):
        # one root seed gives a set without the seed axis, a one-element list keeps it
        tables = stacked_tables(2, False)
        stack = correlations.correlation_set_from_tables(tables, 100, ROOTS[:1])
        alone = correlations.correlation_set_from_tables(tables, 100, ROOTS[0])
        assert stack.values.shape == (1, 2, 2, len(SUPPORTED_PAIRS))
        assert alone.values.shape == (2, 2, len(SUPPORTED_PAIRS))
        np.testing.assert_array_equal(stack.values[0], alone.values)
        np.testing.assert_array_equal(stack.std_error[0], alone.std_error)

    def test_rejects_empty_roots_and_no_events(self):
        tables = stacked_tables(2, False)
        with pytest.raises(ValueError, match="at least one Philox key"):
            sample_counts(tables, 100, [])
        with pytest.raises(ValueError, match="at least one Philox key"):
            correlations.correlation_set_from_tables(tables, n=100, root_seed=[])
        for n in (0, -1):
            with pytest.raises(ValueError, match="at least one event"):
                sample_counts(tables, n, ROOTS)
        with pytest.raises(ValueError, match="at least one event"):
            correlations.correlation_set_from_tables(tables, n=-1, root_seed=7)

    @pytest.mark.parametrize("root_seed", [7, [1, 2]])
    @SET_BUILDERS
    def test_exact_set_rejects_a_root_seed(self, make, root_seed):
        # n = 0 is the exact set: a root seed there would be silently unused
        rho = states.random_density(2, 52)
        with pytest.raises(ValueError, match="take no root seed"):
            make(rho, CouplingConfig(2, 0.3), SUPPORTED_PAIRS, n=0, root_seed=root_seed)

    @SET_BUILDERS
    def test_draw_requires_a_root_seed(self, make):
        # n >= 1 draws: without a root seed it must not fall back to a default one
        rho = states.random_density(2, 52)
        with pytest.raises(ValueError, match="needs a root seed"):
            make(rho, CouplingConfig(2, 0.3), SUPPORTED_PAIRS, n=100)


class TestOutcomeClasses:
    # the sampler draws each table's outcome classes instead of its cells;
    # merged multinomial cells are a multinomial over the summed probabilities

    @pytest.mark.parametrize("d", [1, 2, 5, 16])
    def test_merged_fine_counts_give_the_cell_estimates(self, d):
        # fine counts of every cell, merged into classes, must give the
        # estimates of the weighted sum over cells; the cell formula lives
        # only here, as the oracle. Each count is summed once either way, so
        # the two agree to a few ulp of the unit-bounded moments.
        tables = stacked_tables(d, True)
        n = 3000
        flat = tables.probs.reshape(d, len(SUPPORTED_PAIRS), 4 * d)
        fine = np.array([
            np.random.Generator(np.random.Philox(key=root)).multinomial(
                n, flat / flat.sum(-1, keepdims=True)
            )
            for root in ROOTS
        ]).reshape(len(ROOTS), *tables.probs.shape)
        w, freq = tables.weights, fine / n
        est_cells = np.einsum("pxy,...jpxyk->...jkp", w, freq)
        second_cells = np.einsum("pxy,...jpxyk->...jkp", w * w, freq)
        var_cells = np.maximum(second_cells - est_cells * est_cells, 0.0)
        est, se = sampled_records_from_counts(classes_by_loop(w, fine), n)
        assert est.shape == se.shape == (len(ROOTS), d, d, len(SUPPORTED_PAIRS))
        np.testing.assert_allclose(est, est_cells, rtol=0, atol=1e-15)
        np.testing.assert_allclose(n * se * se, var_cells, rtol=0, atol=1e-14)

    def test_rejects_a_weight_outside_the_classes(self):
        # a table built by hand may carry any weights; the classes hold only -1, 0 and 1
        tables = replace(stacked_tables(2, False), weights=np.full((len(SUPPORTED_PAIRS), 2, 2), 0.5))
        with pytest.raises(ValueError, match=r"weight in \{-1, 0, 1\}"):
            sample_counts(tables, 100, [7])

    def test_class_draws_follow_the_exact_distribution(self):
        # 2000 seeds at d = 3 with tilt and efficiency: every mean within 5
        # sigma of the exact correlation, and the plug-in standard error of
        # one draw as large as the ensemble's spread. The spread of 2000
        # draws is known to about 1.6%; the median standard error of a rare
        # outcome moves in steps of one count, so each entry is checked by
        # its root-mean-square error and the medians only across entries.
        tables = stacked_tables(3, True)
        seeds, n = 2000, 2000
        roots = [derive_seed(11, "ensemble", s) for s in range(seeds)]
        counts, _ = sample_counts(tables, n, roots)
        est, se = sampled_records_from_counts(counts, n)
        spread = est.std(axis=0)
        z = (est.mean(axis=0) - correlations.records_from_table(tables)) / (spread / np.sqrt(seeds))
        assert np.max(np.abs(z)) < 5.0
        rms = np.sqrt(np.mean(se * se, axis=0)) / spread
        assert np.all((0.9 < rms) & (rms < 1.1)), rms
        assert 0.95 < np.median(np.median(se, axis=0) / spread) < 1.05


class TestCorrelationSet:
    def test_missing_entry_named(self):
        rho = states.maximally_mixed(2)
        cs = correlations.correlation_set(rho, CouplingConfig(2, 0.5), PAIRS_EXACT_II)
        with pytest.raises(ValueError, match=r"missing correlation <X_A X_B>"):
            cs.column(("X", "X"))

    def test_roundtrip(self):
        cfg = CouplingConfig(1, 0.5)
        cs = Correlations(cfg, (("X", "X"),), np.full((1, 1, 1), 0.25), np.zeros((1, 1, 1)))
        values, errors = cs.column(("X", "X"))
        assert values[0, 0] == 0.25
        assert errors[0, 0] == 0.0
        assert len(cs) == 1

    def test_exact_set_covers_all_indices(self):
        rho = states.random_density(3, 20)
        cfg = CouplingConfig(3, 0.5)
        cs = correlations.correlation_set(rho, cfg, PAIRS_EXACT_I)
        assert len(cs) == 3 * 3 * len(PAIRS_EXACT_I)
        assert cs.values.shape == (3, 3, len(PAIRS_EXACT_I))
        assert cs.pairs == PAIRS_EXACT_I

    def test_record_validation(self):
        cfg = CouplingConfig(1, 0.5)
        with pytest.raises(ValueError, match="standard error"):
            Correlations(cfg, (("X", "X"),), np.zeros((1, 1, 1)), np.full((1, 1, 1), 0.1))
        with pytest.raises(ValueError, match="shaped"):
            Correlations(cfg, (("X", "X"),), np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("n_events, error", [
        (-5, "n_events=-5 is negative"),
        (1.5, "n_events=1.5 is not an integer"),
        (True, "n_events=True is not an integer"),
        (np.int64(100), None),
    ], ids=["negative", "float", "bool", "numpy-int"])
    def test_n_events_is_a_nonnegative_integer(self, n_events, error):
        # the estimators divide by n_events: a negative one gave a nan error
        # and a float or bool a silently wrong one
        drawn = correlations.correlation_set(
            states.random_density(2, 1), CouplingConfig(2, 0.5), PAIRS_EXACT_II, 100, 3
        )
        if error is not None:
            with pytest.raises(ValueError, match=error):
                replace(drawn, n_events=n_events)
            return
        rebuilt = reconstruct.reconstruct_exact_ii(replace(drawn, n_events=n_events))
        want = reconstruct.reconstruct_exact_ii(drawn)
        np.testing.assert_array_equal(rebuilt.element_errors, want.element_errors)


CFG = CouplingConfig(2, 0.3)
CFG2 = CouplingConfig(2, 0.9)


def _set_at(cfg, n=0, root_seed=None):
    return correlations.correlation_set(
        states.random_density(2, 52), cfg, PAIRS_EXACT_II, n, root_seed
    )


def _grid_stack_with(cfg):
    """A two-slice stack over CFG and CFG2, rebuilt to carry `cfg` instead."""
    return replace(stack_sets([_set_at(CFG), _set_at(CFG2)]), cfg=cfg)


@pytest.mark.parametrize("make, carried", [
    (lambda: _set_at(CFG), CFG),
    (lambda: _set_at(CFG, 100, 7), CFG),
    (lambda: _set_at(CFG, 100, [7, 8]), CFG),
    (lambda: stack_sets([_set_at(CFG), _set_at(CouplingConfig(2, 0.3))]), CFG),
    (lambda: stack_sets([_set_at(CFG), _set_at(CFG2)]), (CFG, CFG2)),
    (lambda: _grid_stack_with(((CFG, CFG2), (CFG, CFG2))), "a CouplingConfig or a tuple"),
    (lambda: _grid_stack_with((CFG, CFG2, CFG)), "3 configs for correlations shaped"),
    (lambda: _grid_stack_with(CouplingConfig(3, 0.3)), "for d=2, config has d=3"),
    (lambda: stack_sets([_grid_stack_with((CFG, CFG2))] * 2), "a CouplingConfig or a tuple"),
], ids=[
    "exact", "int-root", "root-list", "stack-one-config", "stack-two-configs",
    "nested-tuple", "wrong-length-tuple", "other-d", "restack-per-slice",
])
def test_set_carries_its_coupling(make, carried):
    # a set is read at the coupling it was drawn at, so it must hold that
    # config, one per slice of a grid stack, and refuse one that cannot fit
    if isinstance(carried, str):
        with pytest.raises((TypeError, ValueError), match=carried):
            make()
    else:
        assert make().cfg == carried


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        a = derive_seed(7, "corr", 1, "X", "Y")
        assert a == derive_seed(7, "corr", 1, "X", "Y")
        assert a != derive_seed(7, "corr", 2, "X", "Y")
        assert a != derive_seed(8, "corr", 1, "X", "Y")

    def test_sampled_sets_reproducible(self):
        rho = states.random_density(2, 12)
        cfg = CouplingConfig(2, 0.9)
        cs1 = correlations.correlation_set(rho, cfg, PAIRS_EXACT_I, 500, root_seed=3)
        cs2 = correlations.correlation_set(rho, cfg, PAIRS_EXACT_I, 500, root_seed=3)
        np.testing.assert_array_equal(cs1.values, cs2.values)
        np.testing.assert_array_equal(cs1.std_error, cs2.std_error)
