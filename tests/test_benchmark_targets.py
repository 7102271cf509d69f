"""The functions the benchmark's tracer wraps by name still exist in dmrecon.

The tracer reports a vanished target as absent rather than failing, so only
the benchmark's own smoke test, outside these testpaths, would notice a
rename. benchmarks/tracer.py is loaded from its source without writing
bytecode next to it. The stack path must also keep calling the traced names
it goes through: `metrics.compare` calls `qmath.trace_distance` once, and
every method reaches `reconstruct.finalize`.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_target_is_a_callable(tracer):
    missing = [t for t in tracer.TARGETS if not callable(getattr(*tracer._resolve(t), None))]
    assert not missing, f"traced names missing from dmrecon: {missing}"


def _count_calls(monkeypatch, module, name) -> list:
    """Count the calls of module.name made through any reference a dmrecon module holds.

    Like the tracer, swap a counting wrapper in for every module attribute
    that is the function, so a shortcut past the traced name shows as a
    missing call here and not only in the benchmark's coverage check.
    """
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "dmrecon" or mod_name.startswith("dmrecon."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("broken", ["none", "degenerate", "all", "nan_reference"])
def test_compare_calls_trace_distance_once(monkeypatch, broken):
    from dmrecon import metrics, qmath

    calls = _count_calls(monkeypatch, qmath, "trace_distance")
    finalized = np.broadcast_to(np.eye(3) / 3, (2, 4, 3, 3)).astype(complex)
    reference = np.broadcast_to(np.diag([1.0, 0.0, 0.0]), (4, 3, 3)).copy()
    if broken == "degenerate":
        finalized[1, 2] = np.nan
    elif broken == "all":
        finalized[:] = np.nan
    elif broken == "nan_reference":
        reference[3] = np.nan
    metrics.compare(finalized, np.zeros(finalized.shape), reference)
    assert len(calls) == 1


def test_every_method_reaches_finalize(monkeypatch):
    from dmrecon import correlations, experiments, reconstruct, states
    from dmrecon.protocol import CouplingConfig

    calls = _count_calls(monkeypatch, reconstruct, "finalize")
    rho = states.random_density(3, 1)
    cfg = CouplingConfig(3, 0.5)
    for method, (estimate, pairs) in experiments._RECONSTRUCTORS.items():
        before = len(calls)
        estimate(correlations.correlation_set(rho, cfg, pairs, 0))
        assert len(calls) == before + 1, method
    born = reconstruct.born_probabilities(rho, reconstruct.standard_projector_family(3))
    reconstruct.qst_linear_inversion(born, 3)
    assert len(calls) == len(experiments._RECONSTRUCTORS) + 1


def test_run_scenario_builds_one_projector_family(monkeypatch):
    # one family per scenario, not one per grid point, and one Born vector per
    # distinct state: the points of a strength sweep share one, each point of
    # a purity sweep has its own
    from dmrecon import experiments, reconstruct

    family = _count_calls(monkeypatch, reconstruct, "standard_projector_family")
    born = _count_calls(monkeypatch, reconstruct, "born_probabilities")
    scn = experiments.Scenario(
        scenario_id="family", kind="strength_sweep", input_state="random:seed=4", d=3,
        theta_list=(0.2, 0.6, 1.1), n_events=100, seeds=(0,), methods=("W", "QST"),
        reference="qst",
    )
    experiments.run_scenario(scn)
    assert len(family) == 1
    assert len(born) == 1
    purity = experiments.Scenario(
        scenario_id="family", kind="purity_sweep", input_state="pure:b0", d=3,
        purity_grid=(0.0, 0.5, 1.0), n_events=100, seeds=(0,), methods=("W", "QST"),
    )
    experiments.run_scenario(purity)
    assert len(family) == 2
    assert len(born) == 1 + len(purity.purity_grid)
