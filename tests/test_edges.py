"""Error contracts and degenerate inputs across the package."""

import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from dmrecon import correlations, experiments, metrics, protocol, qmath, reconstruct, states
from dmrecon.correlations import PAIRS_WEAK, Correlations, sample_counts
from dmrecon.protocol import CouplingConfig


class TestQmathRejections:
    def test_non_matrix_input(self):
        with pytest.raises(ValueError, match="ndim"):
            qmath.as_complex_matrix(np.zeros(3))

    def test_allclose_shape_mismatch_is_unequal(self):
        assert not qmath.allclose(np.eye(2), np.eye(3))

    def test_is_hermitian_requires_square(self):
        assert not qmath.is_hermitian(np.zeros((2, 3)))

    def test_eigensystem_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            qmath.hermitian_eigensystem(np.zeros((2, 3)))

    def test_eigensystem_rejects_nan(self):
        nan_matrix = np.array([[np.nan, 0], [0, 1]])
        for fn in (qmath.hermitian_eigensystem, lambda m: qmath.matrix_exponential(m, 0.5)):
            with pytest.raises(ValueError, match="not Hermitian"):
                fn(nan_matrix)

    def test_trace_distance_requires_hermitian(self):
        skew = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            qmath.trace_distance(skew, np.eye(2))

    def test_trace_distance_rejects_one_non_hermitian_slice(self):
        stack = np.stack([np.eye(2) / 2] * 3).astype(complex)
        assert qmath.is_hermitian(stack)
        skewed = stack.copy()
        skewed[1, 0, 1] = 0.5
        assert not qmath.is_hermitian(skewed)
        for a, b in ((skewed, stack), (stack, skewed)):
            with pytest.raises(ValueError, match="Hermitian"):
                qmath.trace_distance(a, b)

    def test_trace_distance_rejects_mismatched_stacks(self):
        half = np.eye(2) / 2
        for a, b in (
            (np.stack([half] * 3), np.stack([half] * 2)),
            (np.stack([half] * 2), np.stack([np.eye(3) / 3] * 2)),
            (np.stack([half] * 2), half),
            (np.stack([half] * 2)[None], np.stack([half] * 2)),
        ):
            with pytest.raises(ValueError, match="mismatch"):
                qmath.trace_distance(a, b)


class TestStatesRejections:
    def test_non_square_density(self):
        with pytest.raises(ValueError, match="square"):
            states.DensityMatrix(np.full((2, 3), 0.5))

    @pytest.mark.parametrize("func", [states.b0_state, states.maximally_mixed, states.random_density])
    def test_nonpositive_dimension(self, func):
        with pytest.raises(ValueError):
            func(0) if func is not states.random_density else func(0, 1)

    def test_unnormalized_kets_rejected(self):
        with pytest.raises(ValueError, match="unit norm"):
            states.pure_state(np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="unit norm"):
            states.purity_family(0.5, np.array([1.0, 1.0]))

    def test_b0_label_resolves_any_dimension(self):
        rho = states.parse_state_spec("pure:b0", 5)
        np.testing.assert_allclose(rho.matrix, np.full((5, 5), 0.2), atol=1e-12)

    def test_malformed_family_and_random_specs(self):
        with pytest.raises(ValueError, match="unknown family parameter"):
            states.parse_state_spec("family:p=0.5,phi=D", 2)
        with pytest.raises(ValueError, match="family spec needs"):
            states.parse_state_spec("family:p=0.5", 2)
        with pytest.raises(ValueError, match="random spec needs"):
            states.parse_state_spec("random:42", 2)
        with pytest.raises(ValueError, match=r"random spec needs seed=<int>: 'random:seed=x'"):
            states.parse_state_spec("random:seed=x", 2)
        with pytest.raises(ValueError, match=r"family spec needs .*'family:p=abc,psi=D'"):
            states.parse_state_spec("family:p=abc,psi=D", 2)


class TestProtocolRejections:
    def test_coupling_unitary_input_checks(self):
        with pytest.raises(ValueError, match="square"):
            protocol.coupling_unitary(np.zeros((2, 3)), 0.5)
        with pytest.raises(ValueError, match="Hermitian"):
            protocol.coupling_unitary(np.array([[0, 1], [0, 0]], dtype=complex), 0.5)

    def test_outcome_probabilities_flags_corruption(self):
        rho = states.maximally_mixed(2)
        probs = protocol.outcome_probabilities(rho, CouplingConfig(2, 0.5), (("Z", "Z"), ("X", "Z")))
        probs = probs.astype(complex)
        # tables scaled so they no longer sum to one
        with pytest.raises(ValueError, match="sum to"):
            protocol._checked_probabilities(2.0 * probs)
        bad = probs.copy()
        bad[1, 0, 0, 1, 0] = -0.3
        with pytest.raises(ValueError, match="below -1e-9"):
            protocol._checked_probabilities(bad)
        with pytest.raises(ValueError, match="imaginary part"):
            protocol._checked_probabilities(probs + 1e-3j)
        # a nan tilt is rejected where it enters, in protocol.pointer_setting
        with pytest.raises(ValueError, match="not finite"):
            correlations.build_tables(rho, CouplingConfig(2, 0.5), (("X", "Z"),), np.nan)

    def test_outcome_probabilities_flags_non_positive_state(self):
        # a Hermitian unit-trace matrix with a negative eigenvalue is no state:
        # its outcome tables have negative entries
        # (a DensityMatrix rejects it, so a stand-in carries it)
        m = np.diag([1.5, -0.5]).astype(complex)
        rho = SimpleNamespace(matrix=m, dim=2)
        with pytest.raises(ValueError, match="below -1e-9"):
            protocol.outcome_probabilities(rho, CouplingConfig(2, 0.5), (("Z", "Z"),))

    @pytest.mark.parametrize("tilt", [math.inf, -math.inf, math.nan])
    def test_non_finite_tilt_is_named(self, tilt):
        rho = states.maximally_mixed(2)
        with pytest.raises(ValueError, match=r"pointer tilt .* is not finite"):
            correlations.build_tables(rho, CouplingConfig(2, 0.5), (("X", "Z"),), tilt)
        with pytest.raises(ValueError, match="pointer tilt"):
            protocol.pointer_setting("X", tilt)

    def test_non_finite_tables_are_rejected(self):
        # a non-finite tilt no longer reaches the tables, so corrupt one directly
        probs = protocol.outcome_probabilities(
            states.maximally_mixed(2), CouplingConfig(2, 0.5), (("X", "Z"),)
        ).astype(complex)
        probs[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            protocol._checked_probabilities(probs)


class TestCorrelationRejections:
    def test_negative_std_error(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Correlations(
                CouplingConfig(1, 0.5), (("X", "X"),), np.zeros((1, 1, 1)),
                np.full((1, 1, 1), -0.1), n_events=10,
            )

    def test_stacked_std_error_checked(self):
        cfg = CouplingConfig(2, 0.5)
        pairs = (("X", "X"), ("Y", "Y"))
        values = np.zeros((3, 2, 2, 2))
        Correlations(cfg, pairs, values, np.full(values.shape, 0.1), n_events=10)
        for wrong in ((2, 2, 2, 2), (3, 2, 2, 1), (2, 2, 2)):
            with pytest.raises(ValueError, match="shaped"):
                Correlations(cfg, pairs, values, np.zeros(wrong), n_events=10)
        negative = np.full(values.shape, 0.1)
        negative[2, 1, 0, 1] = -1e-3
        with pytest.raises(ValueError, match="nonnegative"):
            Correlations(cfg, pairs, values, negative, n_events=10)
        with pytest.raises(ValueError, match="nonnegative"):
            Correlations(cfg, pairs, values, np.full(values.shape, np.nan), n_events=0)

    def test_stack_needs_matching_sets(self):
        rho = states.maximally_mixed(2)
        cfg = CouplingConfig(2, 0.5)
        a = correlations.correlation_set(rho, cfg, PAIRS_WEAK, 100, root_seed=1)
        b = correlations.correlation_set(rho, cfg, PAIRS_WEAK, 200, root_seed=2)
        with pytest.raises(ValueError, match="share pairs and n_events$"):
            correlations.stack_sets([a, b])
        c = correlations.correlation_set(
            states.maximally_mixed(3), CouplingConfig(3, 0.5), PAIRS_WEAK, 100, root_seed=1
        )
        with pytest.raises(ValueError, match=r"share pairs and n_events.*\(2, 2, 4\) and \(3, 3, 4\)"):
            correlations.stack_sets([a, c])
        with pytest.raises(ValueError, match="at least one"):
            correlations.stack_sets([])
        stack = correlations.stack_sets([a, a])
        assert stack.dim == 2 and stack.values.shape == (2, *a.values.shape)

    def test_analytic_index_range(self):
        rho = states.maximally_mixed(2)
        cfg = CouplingConfig(2, 0.5)
        with pytest.raises(ValueError, match="out of range"):
            correlations.analytic_correlation(rho, 3, 1, "X", "X", cfg)

    def test_sample_counts_needs_events(self):
        # and no more than the sampler's int64 event count holds
        rho = states.maximally_mixed(2)
        cfg = CouplingConfig(2, 0.5)
        tables = correlations.build_tables(rho, cfg, (("X", "X"),))
        with pytest.raises(ValueError, match="one event"):
            sample_counts(tables, 0, [1])
        too_many = re.escape(f"at most 2**63-1 (the sampler's range), got n={2**63}")
        with pytest.raises(ValueError, match=too_many):
            sample_counts(tables, 2**63, [1])
        with pytest.raises(ValueError, match=too_many):
            correlations.correlation_set(rho, cfg, (("X", "X"),), n=2**63, root_seed=1)
        (counts,), _ = sample_counts(tables, 2**63 - 1, [1])
        assert (counts.sum(axis=-1) == 2**63 - 1).all()

    @pytest.mark.parametrize("pairs", [(), [("X", "X")], (["X", "X"],)],
                             ids=["empty", "list", "list-pair"])
    def test_build_tables_rejects_bad_pairs(self, monkeypatch, pairs):
        # by name, before anything is evolved: not inside numpy's stack or
        # the pointer-measurement cache's hash
        def not_evolved(*args):
            raise AssertionError("evolved before pairs were checked")

        monkeypatch.setattr(protocol, "evolve", not_evolved)
        want = re.escape(f"pairs must be a nonempty tuple of (obs_a, obs_b) tuples, got {pairs!r}")
        with pytest.raises(ValueError, match=f"^{want}$"):
            correlations.correlation_set(states.maximally_mixed(2), CouplingConfig(2, 0.5), pairs)


class TestNonIntegerSizes:
    """Sizes and seeds must be integers; numpy integers are."""

    @staticmethod
    def _scenario(**kw):
        fields = dict(
            scenario_id="int", kind="single", input_state="mixed", theta_list=(0.5,),
            n_events=100, seeds=(0, 1),
        )
        return experiments.Scenario(**{**fields, **kw})

    @pytest.mark.parametrize(
        "field, value, want",
        [
            ("n_events", 10.5, "n_events=10.5 is not an integer"),
            ("seeds", (0.5,), "seed=0.5 is not an integer"),
            ("seeds", (0, 2.0), "seed=2.0 is not an integer"),
            ("d", 2.0, "dimension d=2.0 is not an integer"),
            ("d", True, "dimension d=True is not an integer"),
        ],
    )
    def test_scenario_rejects(self, field, value, want):
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            self._scenario(**{field: value})

    def test_coupling_config_rejects_a_float_dimension(self):
        with pytest.raises(ValueError, match=re.escape("dimension d=2.0 is not an integer")):
            CouplingConfig(2.0, 0.5)

    def test_sample_counts_rejects_a_float_n(self):
        tables = correlations.build_tables(
            states.maximally_mixed(2), CouplingConfig(2, 0.5), (("X", "X"),)
        )
        keys = [1]
        with pytest.raises(ValueError, match=re.escape("n=10.5 is not an integer")):
            sample_counts(tables, 10.5, keys)
        by_numpy_int, _ = sample_counts(tables, np.int64(10), keys)
        assert (by_numpy_int == sample_counts(tables, 10, keys)[0]).all()

    @pytest.mark.parametrize("n", [0.0, False])
    def test_exact_set_rejects_a_float_or_bool_n(self, n):
        # n = 0 picks the exact set, but only as an integer
        rho, pairs = states.maximally_mixed(2), (("X", "X"),)
        cfg = CouplingConfig(2, 0.5)
        with pytest.raises(ValueError, match=re.escape(f"n={n} is not an integer")):
            correlations.correlation_set(rho, cfg, pairs, n)
        exact = correlations.correlation_set(rho, cfg, pairs)
        by_numpy_int = correlations.correlation_set(rho, cfg, pairs, np.int64(0))
        assert by_numpy_int.n_events == 0
        assert (by_numpy_int.values == exact.values).all()

    @pytest.mark.parametrize(
        "root, want",
        [
            (True, "Philox key=True is not an integer"),
            (1.5, "Philox key=1.5 is not an integer"),
            (-1, "Philox key=-1 outside 0..2**128-1"),
            (2**128, f"Philox key={2**128} outside 0..2**128-1"),
        ],
        ids=["bool", "float", "negative", "2**128"],
    )
    def test_sample_counts_rejects_a_root(self, root, want):
        # a library root seed is the 128-bit Philox key itself, and
        # `correlation_set` and `sample_counts` reject one that is not
        rho, cfg = states.maximally_mixed(2), CouplingConfig(2, 0.5)
        tables = correlations.build_tables(rho, cfg, (("X", "X"),))
        for roots in (root, [0, root]):
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                correlations.correlation_set(rho, cfg, (("X", "X"),), 10, roots)
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                sample_counts(tables, 10, roots if isinstance(roots, list) else [roots])
        top = np.random.Generator(np.random.Philox(key=2**128 - 1))
        classes = correlations.outcome_classes(tables)
        want_counts = top.multinomial(10, classes / classes.sum(axis=-1, keepdims=True))
        (counts,), _ = sample_counts(tables, 10, [2**128 - 1])
        assert (counts == want_counts).all()
        top_set = correlations.correlation_set(rho, cfg, (("X", "X"),), 10, 2**128 - 1)
        want_values, _ = correlations.sampled_records_from_counts(want_counts, 10)
        assert (top_set.values == want_values).all()

    def test_sample_counts_rejects_bad_keys_and_an_empty_draw(self):
        tables = correlations.build_tables(
            states.maximally_mixed(2), CouplingConfig(2, 0.5), (("X", "X"),)
        )
        # an (S, 2) array of key words is not a list of keys: its rows are not integers
        for dtype in (np.uint64, np.int64):
            with pytest.raises(ValueError, match=re.escape("Philox key=[0 0] is not an integer")):
                sample_counts(tables, 10, np.zeros((2, 2), dtype=dtype))
        # one key, not in a list, is named as the keys argument
        for key in (7, np.uint64(7), np.array(7)):
            with pytest.raises(ValueError, match="keys=.* is not a sequence of Philox keys"):
                sample_counts(tables, 10, key)
        by_array, _ = sample_counts(tables, 10, np.zeros(2, dtype=np.uint64))
        assert (by_array == sample_counts(tables, 10, [0, 0])[0]).all()
        with pytest.raises(ValueError, match="nothing to draw"):
            sample_counts(None, 10, [1])

    def test_numpy_integers_run_as_ints(self):
        plain = experiments.run_scenario(self._scenario(d=3))
        numpy_ints = experiments.run_scenario(
            self._scenario(d=np.int64(3), n_events=np.int32(100), seeds=(np.int64(0), np.uint8(1)))
        )
        assert numpy_ints.tobytes() == plain.tobytes()


class TestMetricsRejections:
    def test_bound_input_validation(self):
        # checked for every method, those whose floor is nan too
        for method in experiments.METHODS:
            with pytest.raises(ValueError, match="theta > 0"):
                metrics.error_lower_bound(method, 4, 0.0, 100)
            with pytest.raises(ValueError, match="theta > 0"):
                metrics.error_lower_bound(method, 4, 0.5, 0)


class TestReconstructRejections:
    def test_qubit_labels_require_d2(self):
        # a qubit-sized vector (the d = 2 family: H, V, D, L) is read at d = 2
        # only; at d = 3 the closed form needs all 9 family probabilities
        qubit = np.array([1.0, 0.0, 0.5, 0.5])
        reconstruct.qst_linear_inversion(qubit, 2)
        with pytest.raises(ValueError, match="d=3 needs 9 probabilities"):
            reconstruct.qst_linear_inversion(qubit, 3)

    def test_too_few_projectors(self):
        kets = reconstruct.standard_projector_family(3)[:5]
        assert kets.shape == (5, 3)
        with pytest.raises(ValueError, match="at least 9"):
            reconstruct.qst_least_squares(kets, np.full(5, 0.1))

    def test_least_squares_takes_kets_only(self):
        # a projector stack is not a ket array, even of the right size
        want = "kets of shape (9, 3, 3) are not an (n, d) array"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            reconstruct.qst_least_squares(np.zeros((9, 3, 3)), np.full(9, 0.1))

    @pytest.mark.parametrize(
        "kets, shape",
        [
            (reconstruct.standard_projector_family(2), "(4, 2)"),
            (np.ones(3), "(3,)"),
            (np.zeros((9, 4)), "(9, 4)"),
            # a (n, d, d) projector stack of the state's d is not a ket array
            (np.zeros((9, 3, 3)), "(9, 3, 3)"),
        ],
    )
    def test_born_needs_a_projector_stack_of_the_state_dimension(self, kets, shape):
        want = f"kets of shape {shape} are not an (n, d) array for a state of shape (3, 3)"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            reconstruct.born_probabilities(states.maximally_mixed(3), kets)

    def test_finalize_reads_a_nan_trace_as_degenerate(self):
        # an all-nan slice and one with a single nan on its diagonal have a
        # nan trace: each is all nan, with no warning, and the other slices
        # are those of the stack without them, bit for bit
        rng = np.random.default_rng(21)
        raw = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3)) + 2 * np.eye(3)
        raw[1] = np.nan
        raw[3, 2, 2] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = reconstruct.finalize(raw)
            qst = reconstruct.qst_linear_inversion([np.nan] * 4, 2)
        assert np.isnan(out[[1, 3]]).all()
        assert out[[0, 2, 4]].tobytes() == reconstruct.finalize(raw[[0, 2, 4]]).tobytes()
        assert np.isnan(qst.finalized).all()


class TestDegenerateRunnerPoints:
    def test_weak_method_at_zero_purity_full_strength(self):
        # at p = 0 and theta = pi/2 the weak estimator has no signal at all:
        # the runner records the point instead of crashing
        scn = experiments.Scenario(
            scenario_id="edge",
            kind="purity_sweep",
            input_state="pure:D",
            purity_grid=(0.0,),
            methods=("W",),
            source="exact",
            seeds=(0,),
        )
        rows = experiments.run_scenario(scn, root_seed=0)
        assert len(rows) == 1
        assert math.isnan(rows[0]["trace_distance"])
        assert math.isinf(rows[0]["delta_rho"])

    @pytest.mark.parametrize("on_sampled", [False, True])
    def test_estimator_value_error_propagates(self, monkeypatch, on_sampled):
        # only a near-zero trace marks a row degenerate; any other ValueError
        # from an estimator, on exact or on sampled data, is a fault and must surface
        def broken(correls):
            if bool(correls.n_events) == on_sampled:
                raise ValueError("broken estimator")
            return reconstruct.reconstruct_weak(correls)

        monkeypatch.setitem(experiments._RECONSTRUCTORS, "W", (broken, PAIRS_WEAK))
        scn = experiments.Scenario(
            scenario_id="e", kind="single", theta_list=(0.5,), methods=("W",), seeds=(0,)
        )
        with pytest.raises(ValueError, match="broken estimator"):
            experiments.run_scenario(scn)

    def test_error_bound_value_error_propagates(self, monkeypatch):
        # a missing floor is nan from error_lower_bound itself; no guard in the
        # runner swallows a ValueError from it, not even for II at d = 4
        def broken(method, d, theta, n):
            raise ValueError("broken bound")

        monkeypatch.setattr(metrics, "error_lower_bound", broken)
        for method in experiments.METHODS:
            scn = experiments.Scenario(
                scenario_id="b", kind="single", input_state="mixed", d=4, theta_list=(0.5,),
                methods=(method,), seeds=(0,),
            )
            with pytest.raises(ValueError, match="broken bound"):
                experiments.run_scenario(scn)

    def test_purity_sweep_needs_pure_state(self):
        with pytest.raises(ValueError, match="pure input"):
            experiments.Scenario(scenario_id="m", kind="purity_sweep", input_state="mixed")

    def test_scenario_id_required(self):
        with pytest.raises(ValueError, match="id"):
            experiments.Scenario(scenario_id="", kind="single", theta_list=(0.5,))
