"""Finite-lattice aggregation toolkit.

Builds finite bounded lattices, evaluates lattice-valued Sugeno
integrals in both canonical forms, tests the comonotonicity-style
vector relations, decides the axioms that characterize the integral
among aggregation functions, recognizes integral tables, and accounts
for the exact cost of each decision procedure.
"""

from .errors import (
    ArityMismatch,
    BoundaryViolation,
    CyclicOrder,
    EnumerationTooLarge,
    Error,
    InvalidCapacity,
    LatticeMismatch,
    MonotonicityViolation,
    NoBounds,
    NotAggregation,
    NotALattice,
    NotDistributive,
    ParseError,
    UnknownElement,
)
from .lattice import (
    Lattice,
    boolean_lattice,
    chain,
    distributivity_witness,
    from_covers,
    is_distributive,
    m3,
    n5,
    product,
    same_structure,
)
from .relations import (
    RelationKind,
    RelationResult,
    all_vectors,
    check_vector,
    relation_check,
    relation_holds,
    relation_region,
)
from .capacity import (
    Capacity,
    SugenoForm,
    characteristic_vector,
    enumerate_capacities,
    format_subset,
    sample_capacities,
    sugeno,
    validate_capacity,
)
from .axioms import (
    AxiomCheck,
    AxiomKind,
    CHARACTERIZATIONS,
    CheckReport,
    FunctionTable,
    axiom_check,
    characterization_label,
    characterization_report,
    enumerate_aggregations,
    relation_pairs,
    sample_aggregations,
    sugeno_table,
    table_from_function,
)
from .recognizer import (
    RecognitionMethod,
    RecognitionResult,
    recognize,
    recover_capacity,
)
from .bench import CostModel, cost_model, format_cost_report, run_bench
from .fileio import (
    build_lattice,
    format_capacity,
    format_lattice,
    format_table,
    format_vector,
    parse_capacity,
    parse_lattice,
    parse_table,
    parse_vector,
    render_check_report,
    render_recognition,
)
from .suites import SCOPES, SuiteResult, run_scope

__version__ = "0.1.0"
