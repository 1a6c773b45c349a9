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
from types import ModuleType as _ModuleType

from .linalg import (
    NORM_TOL,
    UNITARY_TOL,
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
    input_index,
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
    FunctionSet,
    SET_NAMES,
    export_csv,
    generate_all,
    generate_set,
)

__version__ = "0.1.0"

#: Every public name imported above; the imports are the one list of exports.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
