"""Direct density-matrix reconstruction with two qubit pointers.

Simulates a coupling protocol in which a d-dimensional system is measured
through two sequentially coupled qubit pointers, and reconstructs the density
matrix with three direct estimators (one weak-approximation, two exact at any
coupling strength) plus a linear-inversion tomography reference. Includes
finite-statistics sampling, error propagation against the theoretical error
floor, and deterministic scenario sweeps.
"""

from .correlations import (
    PAIRS_EXACT_I,
    PAIRS_EXACT_II,
    PAIRS_WEAK,
    Correlations,
    OutcomeTables,
    analytic_correlation,
    exact_correlation_set,
    sampled_correlation_set,
    stack_sets,
)
from .experiments import BiasModel, Scenario, run_scenario
from .metrics import compare, error_lower_bound, mean_square_error
from .protocol import CouplingConfig, PointerSetting, pointer_setting
from .reconstruct import (
    ReconstructionResult,
    finalize,
    qst_linear_inversion,
    reconstruct_exact_i,
    reconstruct_exact_ii,
    reconstruct_weak,
)
from .states import (
    DensityMatrix,
    b0_state,
    basis_state,
    maximally_mixed,
    parse_state_spec,
    pure_state,
    purity,
    purity_family,
    random_density,
)

__all__ = [
    "BiasModel",
    "Correlations",
    "CouplingConfig",
    "DensityMatrix",
    "OutcomeTables",
    "PAIRS_EXACT_I",
    "PAIRS_EXACT_II",
    "PAIRS_WEAK",
    "PointerSetting",
    "ReconstructionResult",
    "Scenario",
    "analytic_correlation",
    "b0_state",
    "basis_state",
    "compare",
    "error_lower_bound",
    "exact_correlation_set",
    "finalize",
    "maximally_mixed",
    "mean_square_error",
    "parse_state_spec",
    "pointer_setting",
    "pure_state",
    "purity",
    "purity_family",
    "qst_linear_inversion",
    "random_density",
    "reconstruct_exact_i",
    "reconstruct_exact_ii",
    "reconstruct_weak",
    "run_scenario",
    "sampled_correlation_set",
    "stack_sets",
]

__version__ = "0.1.0"
