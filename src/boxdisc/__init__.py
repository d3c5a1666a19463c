"""Discrimination strategies for quantum program boxes.

The package answers questions of the form "which unknown unitary box sits in
this slot?" for single-qubit boxes that can only be queried as black boxes:
it builds entangled test states, averages the unknown boxes out of the
picture (exactly via a group design, deterministically via quadrature, or
stochastically via sampling), constructs the measurements that tell the
hypotheses apart, and scores them against frozen reference values.
"""

from .discrimination import (
    MinErrorResult,
    Povm,
    PovmReport,
    Subspace,
    UnambiguousResult,
    WeightScanRow,
    helstrom,
    jordan_bases,
    outcome_probs,
    singlet_weight_scan,
    unambiguous_eval,
    unambiguous_subspace_povm,
    validate_povm,
)
from .haar import (
    AverageResult,
    BoxPattern,
    IdentityCheck,
    Su2Params,
    average_pattern,
    clifford_group,
    su2_from_params,
    twirl_identity_suite,
    twirl_operator,
)
from .linalg import (
    ComplexMatrix,
    Spectrum,
    abs_eig_sum,
    herm_eig,
    kron,
    partial_trace,
    permute_qubits,
    range_basis,
)
from .scenarios import (
    SCENARIO_IDS,
    PermutationWitness,
    Scenario,
    ScenarioResult,
    WitnessReport,
    build_scenario,
    equivalence_witness_order_refs,
    load_reference_values,
    run_scenario,
)
from .states import (
    DensityMatrix,
    PureState,
    approx_double_singlet_3q,
    bell,
    bell_combination,
    density,
    double_singlet,
    embed_operator,
    four_qubit_norm_factor,
    four_qubit_test_state,
    ket,
    sym_antisym_projectors,
)

__version__ = "0.1.0"

__all__ = [
    "AverageResult",
    "BoxPattern",
    "ComplexMatrix",
    "DensityMatrix",
    "IdentityCheck",
    "MinErrorResult",
    "PermutationWitness",
    "Povm",
    "PovmReport",
    "PureState",
    "SCENARIO_IDS",
    "Scenario",
    "ScenarioResult",
    "Spectrum",
    "Su2Params",
    "Subspace",
    "UnambiguousResult",
    "WeightScanRow",
    "WitnessReport",
    "abs_eig_sum",
    "approx_double_singlet_3q",
    "average_pattern",
    "bell",
    "bell_combination",
    "build_scenario",
    "clifford_group",
    "density",
    "double_singlet",
    "embed_operator",
    "equivalence_witness_order_refs",
    "four_qubit_norm_factor",
    "four_qubit_test_state",
    "helstrom",
    "herm_eig",
    "jordan_bases",
    "ket",
    "kron",
    "load_reference_values",
    "outcome_probs",
    "partial_trace",
    "permute_qubits",
    "range_basis",
    "run_scenario",
    "singlet_weight_scan",
    "su2_from_params",
    "sym_antisym_projectors",
    "twirl_identity_suite",
    "twirl_operator",
    "unambiguous_eval",
    "unambiguous_subspace_povm",
    "validate_povm",
    "__version__",
]
