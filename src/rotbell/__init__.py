"""rotbell: detection of genuine N-partite quantum correlations.

The package computes, for any N-qubit pure state or density matrix, the
violation factor of a rotationally invariant Bell-type inequality built from
measurements restricted to local x-y planes, and classifies the state against
the ladder of k-separability thresholds.  Every closed form has a brute-force
numerical counterpart in :mod:`rotbell.oracle`.
"""

from .correlation import (
    AntidiagonalProfile,
    CorrelationTensor,
    antidiagonal_profile,
    correlation_tensor,
    correlation_value,
    correlation_value_from_tensor,
    correlation_value_trace,
    e_max,
    norm_squared_antidiagonal,
    norm_squared_tensor,
    optimal_angles_two_qubit,
)
from .oracle import (
    BudgetExceededError,
    GridSearchConfig,
    ValidationReport,
    cross_validate,
    maximize_grid,
    norm_squared_quadrature,
)
from .separability import (
    PartitionEnumeration,
    enumerate_partitions,
    max_antidiagonal_bound,
    sample_partition,
    stirling_second,
    verify_antidiagonal_bound,
)
from .states import (
    DensityMatrix,
    KetParse,
    PartitionSpec,
    PureState,
    add_white_noise,
    as_density,
    make_ghz,
    mix,
    parse_ket,
    parse_ket_info,
    random_density_matrix,
    random_pure_state,
    render_ket,
    sample_k_separable,
    sample_product_terms,
    state_from_json,
    state_to_json,
    tensor_product,
)
from .witness import (
    ThresholdVerdict,
    WitnessReport,
    classify,
    critical_visibility,
    k_sep_threshold,
    max_violation_bound,
    violation_factor,
)

__version__ = "0.1.0"

__all__ = [
    "AntidiagonalProfile",
    "BudgetExceededError",
    "CorrelationTensor",
    "DensityMatrix",
    "GridSearchConfig",
    "KetParse",
    "PartitionEnumeration",
    "PartitionSpec",
    "PureState",
    "ThresholdVerdict",
    "ValidationReport",
    "WitnessReport",
    "add_white_noise",
    "antidiagonal_profile",
    "as_density",
    "classify",
    "correlation_tensor",
    "correlation_value",
    "correlation_value_from_tensor",
    "correlation_value_trace",
    "critical_visibility",
    "cross_validate",
    "e_max",
    "enumerate_partitions",
    "k_sep_threshold",
    "make_ghz",
    "max_antidiagonal_bound",
    "max_violation_bound",
    "maximize_grid",
    "mix",
    "norm_squared_antidiagonal",
    "norm_squared_quadrature",
    "norm_squared_tensor",
    "optimal_angles_two_qubit",
    "parse_ket",
    "parse_ket_info",
    "random_density_matrix",
    "random_pure_state",
    "render_ket",
    "sample_k_separable",
    "sample_partition",
    "sample_product_terms",
    "state_from_json",
    "state_to_json",
    "stirling_second",
    "tensor_product",
    "verify_antidiagonal_bound",
    "violation_factor",
]
