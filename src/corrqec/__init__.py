"""corrqec: correlated-noise Pauli channels, codes, recovery, and fidelity."""

from .channels import (
    FLAVOR_BIT,
    FLAVOR_PHASE,
    MODEL_I,
    MODEL_II,
    ChannelParams,
    NoiseChannel,
    build_channel,
)
from .codes import (
    QuantumCode,
    bitflip3,
    concatenate,
    dfs2,
    hadamard_conjugate_code,
    hadamard_transform,
    pattern_state,
)
from .errors import (
    CapacityError,
    ContractViolationError,
    DimensionError,
    ParameterError,
)
from .fidelity import (
    FidelityResult,
    ThresholdPoint,
    closed_form,
    dense_oracle_fidelity,
    entanglement_fidelity_corrected,
    entanglement_fidelity_unencoded,
    evaluate,
    threshold_mu,
)
from .pauli import (
    PauliString,
    SparseState,
    apply_to_state,
    basis_state,
    matrix_element,
    multiply,
)
from .recovery import (
    RecoveryOp,
    RecoverySet,
    alternative_maximal_sets,
    build_recovery,
    correctable_set,
    is_detectable,
    non_detectable_set,
    trace_preservation_deviation,
)
from .schemes import BASE_SCHEMES, build_code, resolve_scheme, scheme_recovery

__version__ = "0.1.0"
