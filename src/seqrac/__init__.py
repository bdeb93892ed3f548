"""Sequential qubit random access codes: simulate, optimize, certify."""

from .analytics import (
    SelfTestReport,
    SharpnessInterval,
    boundary_wac,
    certify_interval,
    in_classical_set,
    in_quantum_set,
    selftest_report,
    sharpness_lower,
    sharpness_upper,
)
from .errors import (
    BlochNormExceeded,
    CompletenessViolated,
    ConvergenceFailure,
    DocumentError,
    DocumentInvariantError,
    DomainError,
    InequalityViolation,
    InfeasiblePair,
    InvalidStrategy,
    NotHermitian,
    NotPsd,
    SeqracError,
)
from .linalg import (
    BinaryPovm,
    EigenPair,
    QubitState,
    bloch_from_matrix,
    matrix_sqrt_psd,
    max_eigenpair,
    polar_decompose,
    projective_povm,
    state_from_bloch,
    validate_povm,
)
from .optimizer import (
    BoundaryPoint,
    ClassicalBruteforce,
    OptimizerConfig,
    ReducedParameters,
    SeesawResult,
    charlie_best_response,
    classical_bruteforce,
    reduced_objective,
    seesaw,
    strategy_from_reduced,
    trace_boundary,
)
from .scenario import (
    BinaryInstrument,
    Strategy,
    WitnessPair,
    conjugate_strategy,
    effective_ensemble,
    joint_prob,
    witness_ab,
    witness_pair,
)
from .sequence import (
    ChainConfig,
    ChainStep,
    party_witness_closed_form,
    simulate_chain,
)
from .strategies import (
    VisibilityTriple,
    apply_visibility,
    canonical_strategy,
    canonical_witness_pair,
)

__version__ = "0.1.0"
