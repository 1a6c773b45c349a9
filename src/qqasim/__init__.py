"""Simulation, verification, transformation, and composition of quantum query
algorithms for Boolean functions.

A quantum query algorithm here is a fixed sequence of small unitary gates
interleaved with input-dependent diagonal ±1 query gates, followed by a
computational-basis measurement whose outputs carry 0/1 values.  The package
provides exhaustive simulation and verification, two built-in exact 2-query
algorithms, exactness-preserving transformations, bounded-error combiners for
AND/OR/MAJORITY compositions, and catalog generation over everything the
transformations and combiners reach.
"""

from .linalg import (
    NORM_TOL,
    UNITARY_TOL,
    adjoint,
    apply,
    block_diag,
    is_unitary,
    permutation_matrix,
)
from .boolfun import (
    MAX_ARITY,
    SensitivityResult,
    TruthTable,
    all_inputs,
    bit_string,
    combine_disjoint,
    from_accepting,
    majority_compose,
    named_function,
    sensitivity,
    table_from_csv,
    table_to_csv,
)
from .simulator import (
    QQA,
    QueryGate,
    SimulationTrace,
    StructuralProperty,
    VerificationReport,
    check_property,
    computed_function,
    is_exact,
    query_transform,
    run,
    run_all,
    trace,
    verify,
)
from .algorithms import (
    constant_one_algorithm,
    equality3_algorithm,
    pair_equality4_algorithm,
)
from .transforms import (
    invert_outputs,
    normalize_accepting_sign,
    permute_outputs,
    permute_variables,
    permuted_input,
)
from .constructors import (
    ConstructionResult,
    and_construct,
    majority3_construct,
    majority_even4_construct,
    or_construct,
)
from .serialize import from_document, load, save, to_document
from .catalog import (
    CatalogEntry,
    CatalogSummary,
    FunctionSet,
    SET_NAMES,
    catalog_summary,
    export_csv,
    generate_all,
    generate_set,
)

__version__ = "0.1.0"

__all__ = [
    "NORM_TOL",
    "UNITARY_TOL",
    "adjoint",
    "apply",
    "block_diag",
    "is_unitary",
    "permutation_matrix",
    "MAX_ARITY",
    "SensitivityResult",
    "TruthTable",
    "all_inputs",
    "bit_string",
    "combine_disjoint",
    "from_accepting",
    "majority_compose",
    "named_function",
    "sensitivity",
    "table_from_csv",
    "table_to_csv",
    "QQA",
    "QueryGate",
    "SimulationTrace",
    "StructuralProperty",
    "VerificationReport",
    "check_property",
    "computed_function",
    "is_exact",
    "query_transform",
    "run",
    "run_all",
    "trace",
    "verify",
    "constant_one_algorithm",
    "equality3_algorithm",
    "pair_equality4_algorithm",
    "invert_outputs",
    "normalize_accepting_sign",
    "permute_outputs",
    "permute_variables",
    "permuted_input",
    "ConstructionResult",
    "and_construct",
    "majority3_construct",
    "majority_even4_construct",
    "or_construct",
    "from_document",
    "load",
    "save",
    "to_document",
    "CatalogEntry",
    "CatalogSummary",
    "FunctionSet",
    "SET_NAMES",
    "catalog_summary",
    "export_csv",
    "generate_all",
    "generate_set",
]
