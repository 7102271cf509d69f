"""Transient memory of the stack path, and bit-equality of its in-place forms.

`qmath.hermitian_part`, `reconstruct.finalize`, `reconstruct.born_probabilities`,
`metrics.compare` and `correlations.sampled_records_from_counts` work in
buffers they own. The peak
tests bound what each allocates while it runs, read with `tracemalloc` (numpy
reports its array buffers to it), as a multiple of the bytes of its input
stack or of its outputs. A scenario run must leave none of its large arrays
(Kraus stacks, the tomography family) allocated once it returns. The
equality tests pin each in-place form to the plain expression it replaced,
byte for byte.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dmrecon import correlations, experiments, metrics, qmath, reconstruct, states
from dmrecon.correlations import PAIRS_EXACT_I
from dmrecon.protocol import CouplingConfig


def _peak_bytes(fn, *args):
    """(bytes allocated at the peak while fn(*args) runs, its result)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base, result


def _hermitian_stack(shape, d, seed):
    """Random Hermitian unit-trace matrices (not positive), shaped shape + (d, d)."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=shape + (d, d)) + 1j * rng.normal(size=shape + (d, d))
    h = m + m.conj().swapaxes(-1, -2)
    return h / np.trace(h, axis1=-2, axis2=-1).real[..., None, None]


def _raw_stack(shape, d, seed):
    """Random non-Hermitian raw estimates; slice [0] has zero trace, so it is degenerate."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=shape + (d, d)) + 1j * rng.normal(size=shape + (d, d))
    raw += 2 * np.eye(d)
    raw[0] -= np.eye(d) * np.trace(raw[0]).real / d
    return raw


STACK = (4, 50)
D = 32


class TestPeaks:
    @pytest.mark.parametrize("broken", ["none", "degenerate", "nan_reference"])
    def test_compare_holds_two_stacks(self, broken):
        finalized = _hermitian_stack(STACK, D, 1)
        reference = np.broadcast_to(_hermitian_stack((), D, 2), STACK[1:] + (D, D)).copy()
        if broken == "degenerate":
            finalized[2, 7] = np.nan
        elif broken == "nan_reference":
            reference[11] = np.nan
        errors = np.abs(finalized)
        peak, (t_dist, _) = _peak_bytes(metrics.compare, finalized, errors, reference)
        assert np.isnan(t_dist).sum() == {"none": 0, "degenerate": 1, "nan_reference": 4}[broken]
        assert peak <= 2.5 * finalized.nbytes, peak / finalized.nbytes

    def test_finalize_holds_its_result(self):
        raw = _raw_stack(STACK, D, 3)
        peak, out = _peak_bytes(reconstruct.finalize, raw)
        assert out.shape == raw.shape
        assert peak <= 1.25 * raw.nbytes, peak / raw.nbytes

    def test_sampled_records_hold_one_extra_output(self):
        d = 16
        tables = correlations.build_tables(
            states.random_density(d, 4), CouplingConfig(d, 0.5), PAIRS_EXACT_I
        )
        counts, _ = correlations.sample_counts(tables, 1000, range(50))
        peak, (est, std_error) = _peak_bytes(
            correlations.sampled_records_from_counts, counts, 1000
        )
        outputs = est.nbytes + std_error.nbytes
        assert peak <= 1.6 * outputs, peak / outputs

    def test_family_and_born_hold_three_kets(self):
        # the standard family is its d^2 kets, and the Born vector forms no
        # (n, d, d) projector stack and no conjugate copy of them
        d = 16
        rho = states.random_density(d, 12)
        kets_nbytes = d * d * d * np.dtype(complex).itemsize
        peak, probs = _peak_bytes(
            lambda: reconstruct.born_probabilities(rho, reconstruct.standard_projector_family(d))
        )
        assert probs.shape == (d * d,)
        assert peak <= 3 * kets_nbytes, peak / kets_nbytes


class TestRunPathKeepsNoArrays:
    def test_scenario_leaves_less_than_one_kraus_stack_allocated(self):
        # strengths that no other test uses, so that no earlier call has built
        # this run's Kraus stacks; the QST method and reference need the family
        d = 16
        scn = experiments.Scenario(
            scenario_id="held", kind="strength_sweep", input_state="random:seed=11", d=d,
            theta_list=(0.3141, 1.2718), n_events=1000, seeds=(0, 1),
            methods=("W", "QST"), reference="qst",
        )
        kraus_stack = 4 * d**3 * np.dtype(float).itemsize  # (d, 2, 2, d, d) floats
        experiments.run_scenario(replace(scn, d=2))  # loads what the run imports lazily
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            assert len(experiments.run_scenario(scn)) > 0  # the rows are freed here
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held - base < kraus_stack

    def test_sampled_point_drops_its_counts_before_the_rows(self, monkeypatch):
        # while a d = 16 point's sampled seeds become rows, what the point has
        # allocated is its correlations and Born frequencies, not its class counts
        d, seeds = 16, 50
        scn = experiments.Scenario(
            scenario_id="drop", kind="single", input_state="random:seed=6", d=d,
            theta_list=(0.7,), n_events=1000, seeds=tuple(range(seeds)),
            methods=experiments.METHODS, reference="qst",
        )
        class_counts = seeds * d * len(PAIRS_EXACT_I) * (2 * d + 1) * np.dtype(np.int64).itemsize
        stack_rows, seen = experiments._stack_rows, {}

        def spy(*args):
            _, _, _, _, seed_col, correls, method_probs, ref_probs = args
            if np.ndim(seed_col) and "base" in seen:  # the traced run's sampled stack
                inputs = correls.values.nbytes + correls.std_error.nbytes
                inputs += method_probs.nbytes + ref_probs.nbytes
                seen["extra"] = tracemalloc.get_traced_memory()[0] - seen["base"] - inputs
            return stack_rows(*args)

        monkeypatch.setattr(experiments, "_stack_rows", spy)
        experiments.run_scenario(replace(scn, seeds=(0,)))  # fills the run's caches
        tracemalloc.start()
        try:
            seen["base"] = tracemalloc.get_traced_memory()[0]
            experiments.run_scenario(scn)
        finally:
            tracemalloc.stop()
        assert seen["extra"] < class_counts / 4, seen["extra"] / class_counts


class TestInPlaceFormsAreBitIdentical:
    def test_hermitian_part(self):
        a = _raw_stack((3, 5), 4, 5)
        a[1, 2, 0, 1] = np.nan
        old = (a + a.conj().swapaxes(-1, -2)) / 2
        new = qmath.hermitian_part(a)
        assert new.flags.c_contiguous
        assert new.tobytes() == old.tobytes()

    def test_born_probabilities(self):
        # the family at each d, and drawn kets of two elements or more
        rng = np.random.default_rng(13)
        for d in range(1, 17):
            rho = states.random_density(d, 50 + d)
            drawn = rng.normal(size=(3 * d + 2, d)) + 1j * rng.normal(size=(3 * d + 2, d))
            for kets in (reconstruct.standard_projector_family(d), drawn, drawn[1::3]):
                old = ((kets.conj() @ rho.matrix) * kets).sum(-1).real
                assert reconstruct.born_probabilities(rho, kets).tobytes() == old.tobytes()

    def test_finalize(self):
        raw = _raw_stack((6,), 4, 6)
        h = (raw + raw.conj().swapaxes(-1, -2)) / 2
        tr = np.trace(h, axis1=-2, axis2=-1).real
        degenerate = np.abs(tr) <= reconstruct.FINALIZE_TRACE_ATOL
        assert degenerate.tolist() == [True] + [False] * 5
        old = h / np.where(degenerate, 1.0, tr)[..., None, None]
        old[degenerate] = np.nan
        assert reconstruct.finalize(raw).tobytes() == old.tobytes()

    @pytest.mark.parametrize("broken", ["none", "degenerate", "nan_reference"])
    def test_compare_matches_the_masked_distances(self, broken):
        finalized = _hermitian_stack((3, 4), 4, 7)
        reference = _hermitian_stack((4,), 4, 8)
        if broken == "degenerate":
            finalized[1, 2] = np.nan
        elif broken == "nan_reference":
            reference[3] = np.nan
        errors = np.abs(finalized)
        t_dist, delta_rho = metrics.compare(finalized, errors, reference)
        full = np.broadcast_to(reference, finalized.shape)
        ok = ~(np.isnan(finalized[..., 0, 0]) | np.isnan(full[..., 0, 0]))
        old = np.full(ok.shape, np.nan)
        old[ok] = qmath.trace_distance(finalized[ok], full[ok])
        assert t_dist.tobytes() == old.tobytes()
        assert (np.isnan(t_dist) == ~ok).all()
        assert delta_rho.tobytes() == np.where(
            np.isnan(finalized[..., 0, 0]), np.inf, metrics.mean_square_error(errors)
        ).tobytes()

    def test_trace_distance_reads_nan_pairs_as_nan(self):
        a = _hermitian_stack((5, 3), 4, 10)
        b = _hermitian_stack((5, 3), 4, 11)
        a[1, 0] = np.nan
        b[2, 2] = np.nan
        a[4] = np.nan
        b[4] = np.nan
        nan = np.zeros((5, 3), dtype=bool)
        nan[1, 0] = nan[2, 2] = True
        nan[4] = True
        t_dist = qmath.trace_distance(a, b)
        assert (np.isnan(t_dist) == nan).all()
        assert t_dist[~nan].tobytes() == qmath.trace_distance(a[~nan], b[~nan]).tobytes()
        for i in zip(*np.nonzero(~nan)):
            assert np.float64(qmath.trace_distance(a[i], b[i])).tobytes() == t_dist[i].tobytes()
        assert np.isnan(qmath.trace_distance(np.full_like(a, np.nan), b)).all()
        one = qmath.trace_distance(a[1, 0], b[1, 0])
        assert isinstance(one, float) and np.isnan(one)
        a[3, 1, 0, 1] += 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            qmath.trace_distance(a, b)

    def test_compare_of_one_matrix(self):
        a, b = _hermitian_stack((2,), 3, 9)
        t_dist, delta_rho = metrics.compare(a, np.zeros((3, 3)), b)
        assert t_dist.shape == () and delta_rho.shape == ()
        assert float(t_dist) == qmath.trace_distance(a[None], b[None])[0]

    def test_sampled_records(self):
        d, n = 4, 50
        tables = correlations.build_tables(
            states.random_density(d, 10), CouplingConfig(d, 0.5), PAIRS_EXACT_I
        )
        counts, _ = correlations.sample_counts(tables, n, range(6))
        swapped = np.swapaxes(counts, -1, -2)
        plus, minus = swapped[..., :d, :], swapped[..., d : 2 * d, :]
        est = (plus - minus) / n
        second = (plus + minus) / n
        var = np.maximum(second - est * est, 0.0) / n
        assert (var == 0).any() and (var > 0).any()
        new_est, new_std = correlations.sampled_records_from_counts(counts, n)
        assert new_est.tobytes() == est.tobytes()
        assert new_std.tobytes() == np.sqrt(var).tobytes()
