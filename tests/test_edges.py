"""Error contracts and degenerate inputs across the package."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dmrecon import correlations, experiments, metrics, protocol, qmath, reconstruct, states
from dmrecon.correlations import PAIRS_WEAK, Correlations, sample_counts
from dmrecon.protocol import CouplingConfig, PointerSetting


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


class TestProtocolRejections:
    def test_pointer_setting_validation(self):
        good = protocol.pointer_setting("Z").projectors
        with pytest.raises(ValueError, match="not Hermitian"):
            PointerSetting("Z", ((1.0, np.array([[0, 1], [0, 0]], dtype=complex)), good[1]))
        with pytest.raises(ValueError, match="not idempotent"):
            PointerSetting("Z", ((1.0, 2 * good[0][1]), good[1]))
        with pytest.raises(ValueError, match="sum to identity"):
            PointerSetting("Z", (good[0], good[0]))

    def test_coupling_unitary_input_checks(self):
        with pytest.raises(ValueError, match="square"):
            protocol.coupling_unitary(np.zeros((2, 3)), 0.5)
        with pytest.raises(ValueError, match="Hermitian"):
            protocol.coupling_unitary(np.array([[0, 1], [0, 0]], dtype=complex), 0.5)

    def test_outcome_probabilities_flags_corruption(self):
        rho = states.maximally_mixed(2)
        probs = protocol.outcome_probabilities(rho, CouplingConfig(2, 0.5, 0.5), (("Z", "Z"), ("X", "Z")))
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

    def test_outcome_probabilities_flags_non_positive_state(self):
        # a Hermitian unit-trace matrix with a negative eigenvalue is no state:
        # its outcome tables have negative entries
        rho = states.DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(ValueError, match="below -1e-9"):
            protocol.outcome_probabilities(rho, CouplingConfig(2, 0.5, 0.5), (("Z", "Z"),))


class TestCorrelationRejections:
    def test_negative_std_error(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Correlations((("X", "X"),), np.zeros((1, 1, 1)), np.full((1, 1, 1), -0.1), n_events=10)

    def test_stacked_std_error_checked(self):
        pairs = (("X", "X"), ("Y", "Y"))
        values = np.zeros((3, 2, 2, 2))
        Correlations(pairs, values, np.full(values.shape, 0.1), n_events=10)
        for wrong in ((2, 2, 2, 2), (3, 2, 2, 1), (2, 2, 2)):
            with pytest.raises(ValueError, match="shaped"):
                Correlations(pairs, values, np.zeros(wrong), n_events=10)
        negative = np.full(values.shape, 0.1)
        negative[2, 1, 0, 1] = -1e-3
        with pytest.raises(ValueError, match="nonnegative"):
            Correlations(pairs, values, negative, n_events=10)

    def test_stack_needs_matching_sets(self):
        rho = states.maximally_mixed(2)
        cfg = CouplingConfig(2, 0.5, 0.5)
        a = correlations.sampled_correlation_set(rho, cfg, PAIRS_WEAK, 100, root_seed=1)
        b = correlations.sampled_correlation_set(rho, cfg, PAIRS_WEAK, 200, root_seed=2)
        with pytest.raises(ValueError, match="share pairs and n_events"):
            correlations.stack_sets([a, b])
        stack = correlations.stack_sets([a, a])
        assert stack.dim == 2 and stack.values.shape == (2, *a.values.shape)

    def test_analytic_index_range(self):
        rho = states.maximally_mixed(2)
        cfg = CouplingConfig(2, 0.5, 0.5)
        with pytest.raises(ValueError, match="out of range"):
            correlations.analytic_correlation(rho, 3, 1, "X", "X", cfg)

    def test_sample_counts_needs_events(self):
        rho = states.maximally_mixed(2)
        cfg = CouplingConfig(2, 0.5, 0.5)
        tables = correlations.build_tables(rho, cfg, (("X", "X"),))
        with pytest.raises(ValueError, match="one event"):
            sample_counts(tables, 0, 1)


class TestMetricsRejections:
    def test_bound_input_validation(self):
        with pytest.raises(ValueError, match="theta > 0"):
            metrics.error_lower_bound("W", 2, 0.0, 100)
        with pytest.raises(ValueError, match="theta > 0"):
            metrics.error_lower_bound("W", 2, 0.5, 0)


class TestReconstructRejections:
    def test_qubit_labels_require_d2(self):
        # a qubit-sized vector (the d = 2 family: H, V, D, L) is read at d = 2
        # only; at d = 3 the closed form needs all 9 family probabilities
        qubit = np.array([1.0, 0.0, 0.5, 0.5])
        reconstruct.qst_linear_inversion(qubit, 2)
        with pytest.raises(ValueError, match="d=3 needs 9 probabilities"):
            reconstruct.qst_linear_inversion(qubit, 3)

    def test_too_few_projectors(self):
        family = reconstruct.standard_projector_family(3)[:5]
        with pytest.raises(ValueError, match="at least 9"):
            reconstruct.qst_least_squares(family, np.full(5, 0.1))


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
        def broken(correls, cfg):
            if bool(correls.n_events) == on_sampled:
                raise ValueError("broken estimator")
            return reconstruct.reconstruct_weak(correls, cfg)

        monkeypatch.setitem(experiments._RECONSTRUCTORS, "W", (broken, PAIRS_WEAK))
        scn = experiments.Scenario(
            scenario_id="e", kind="single", theta_list=(0.5,), methods=("W",), seeds=(0,)
        )
        with pytest.raises(ValueError, match="broken estimator"):
            experiments.run_scenario(scn)

    def test_error_bound_value_error_propagates(self, monkeypatch):
        # the bound is nan only where metrics.has_error_floor says no floor
        # exists; any other ValueError from the floor is a fault
        def broken(method, d, theta, n):
            raise ValueError("broken bound")

        monkeypatch.setattr(metrics, "error_lower_bound", broken)
        scn = experiments.Scenario(
            scenario_id="b", kind="single", input_state="mixed", d=4, theta_list=(0.5,),
            methods=("II",), seeds=(0,),
        )
        assert math.isnan(experiments.run_scenario(scn)[0]["bound"])  # II has no floor at d=4
        with pytest.raises(ValueError, match="broken bound"):
            experiments.run_scenario(replace(scn, methods=("I",)))

    def test_purity_sweep_needs_pure_state(self):
        with pytest.raises(ValueError, match="pure input"):
            experiments.Scenario(scenario_id="m", kind="purity_sweep", input_state="mixed")

    def test_scenario_id_required(self):
        with pytest.raises(ValueError, match="id"):
            experiments.Scenario(scenario_id="", kind="single", theta_list=(0.5,))
