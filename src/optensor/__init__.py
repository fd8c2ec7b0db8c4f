"""Operator-tensor circuit calculus.

Parse typed circuit expressions, bind operations to labeled Hermitian
operators, compute circuit probabilities by circuit-trace contraction or by
foliated state evolution, verify physicality, and run duotensor
decomposition, process tomography, and formalism-locality analysis.
"""

from .binding import Binding, resolve_binding
from .contraction import (
    ContractionPlan,
    PlanStep,
    circuit_trace,
    contract_pair,
    execute_plan,
    plan_contraction,
    plan_left_to_right,
)
from .duotensor import (
    BLACK,
    WHITE,
    DuoIndex,
    Duotensor,
    FiducialSet,
    convert_dots,
    decompose,
    default_fiducials,
    default_fiducials_for,
    dump_fiducials,
    hopping_metric,
    load_fiducials,
    make_fiducials,
    reconstruct,
    wire_decomposition_check,
)
from .errors import (
    CircuitSyntaxError,
    ClosedLoop,
    ConditioningWarning,
    DimMismatchError,
    DuplicateLabelError,
    LabelArityError,
    NonCircuitTermError,
    NonHermitianError,
    NonUnitaryError,
    NotApplicableError,
    OneWireViolation,
    PhysicalityWarning,
    ShapeMismatchError,
    SignatureMismatchError,
    SingularBasisError,
    SingularMetricError,
    TypeMismatch,
    UnboundOperationError,
    UnknownLabelError,
    WiringError,
    ZeroFragmentError,
)
from .evaluator import (
    AlternateTransposeReport,
    CircuitExpression,
    alternate_transpose_positivity,
    formalism_locality_ratio,
    fragment_operator,
    p_function,
    probability,
    probability_foliated,
)
from .notation import (
    CIRCUIT,
    INPUT,
    OUTPUT,
    PREPARATION,
    RESULT,
    CausalStructure,
    CircuitFragment,
    Foliation,
    InternalWire,
    OperationDecl,
    SystemType,
    WireLabel,
    canonicalize,
    causal_structure,
    foliate,
    fragment_from_ops,
    parse_circuit,
    parse_registry,
    print_circuit,
)
from .operators import (
    LabeledOperator,
    Leg,
    dumps,
    from_json_dict,
    haar_state,
    identity_preparation,
    identity_result,
    identity_transformation,
    load,
    loads,
    max_eigenvalue,
    min_eigenvalue,
    operator_from_kraus,
    partial_trace,
    partial_transpose,
    projector,
    random_kraus_set,
    random_physical_transformation,
    random_preparation,
    random_result,
    random_unitary,
    save,
    scalar_operator,
    to_json_dict,
    unitary_channel,
)
from .physicality import (
    PhysicalityReport,
    SandwichReport,
    Witness,
    input_transpose,
    is_complete_set,
    is_physical,
    output_trace,
    sandwich_check,
    transform,
    witness_nonphysical,
)
from .tomography import (
    ExactBlackBox,
    SampledBlackBox,
    probe,
    reconstruct_operation,
)

__version__ = "0.1.0"
