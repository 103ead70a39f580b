"""Quantum measurement sequence probabilities and local-lemma checking.

The package models finite-outcome quantum measurements, events over their
outcomes, probabilities of ordered event sequences (in a bare state and
relative to a test), independence and negative-independence structure, and
mechanical checks of local-lemma bounds that certify all events in a test
can be jointly avoided.
"""

from .errors import (
    BadOrderingError,
    BadPError,
    BadTraceError,
    ConditionOnZeroError,
    DifferentMeasurementsError,
    DimensionCapError,
    DimensionMismatchError,
    EnumerationCapError,
    InternalConsistencyError,
    MissingAssignmentError,
    NotCompleteError,
    NotFiniteError,
    NotHermitianError,
    NotPositiveError,
    ParseError,
    QlllError,
    ValidationError,
)
from .events import (
    Event,
    Measurement,
    SuperOperator,
    complement,
    complete_event,
    empty_event,
    parse_event_expr,
    parse_event_seq,
    super_operator_of,
    union,
)
from .generate import (
    GeneratorKind,
    GeneratorSpec,
    generate,
    generate_assumption_satisfying,
    ginibre_state,
    haar_unitary,
    worked_examples,
)
from .independence import (
    DependenceProfile,
    compute_profile,
    is_independent,
    is_neg_independent,
)
from .linalg import (
    DEFAULT_TOL,
    DensityOperator,
    ToleranceConfig,
    as_matrix,
    dimension_cap,
    trace,
    validate_density,
)
from .lll import (
    LLLInstance,
    LLLReport,
    SymmetricReport,
    check_general,
    check_symmetric,
    symmetric_chain_holds,
)
from .oracle import (
    SampleEstimate,
    enumerate_probability,
    sample_trajectories,
)
from .probability import (
    Test,
    TestEventAssignment,
    check_index_set,
    pr_state,
    pr_state_cond,
    pr_test_cond,
    pr_test_marginal,
)
from .serialize import dumps, instance_from_dict, instance_to_dict, load_path, loads

__version__ = "0.1.0"
