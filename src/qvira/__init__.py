"""Exact computer algebra for the q-deformed Virasoro-like algebra and
the classification of its windowed graded modules."""

from .field import (
    DivisionByZero,
    FieldContext,
    Monomial2,
    PoleAtPoint,
    Poly2,
    RF_A,
    RF_ONE,
    RF_Q,
    RF_ZERO,
    RationalFunction,
    ZeroDenominator,
    poly_gcd,
    q_pow,
    rf_int,
    sign_pow,
    substitute,
)
from .expr import ExprSyntaxError, parse_value, print_canonical
from .table import (
    TableDocument,
    TableSemanticError,
    TableSyntaxError,
    parse_table,
    write_table,
)
from .algebra import (
    AlgebraElement,
    bracket,
    component_of_degree,
    parse_element,
    print_element,
    random_element,
)
from .families import (
    Family,
    FamilyModule,
    GradedVector,
    Irreducible,
    Reducible,
    act,
    action_coeff,
    check_graded_irreducible,
    closed_form_f,
    gen_table,
    verify_axiom,
)
from .presentation import (
    Degenerate,
    DegenerateTable,
    HasZeroDims,
    InvariantTriple,
    NoInvariants,
    NormalizedTable,
    NotConstant,
    Violation,
    degeneracy_test,
    extract_invariants,
    omega_normalize,
    validate_table,
    verify_relation_suite,
)
from .classifier import (
    ClassificationResult,
    Inconsistent,
    IsoClass,
    Orientation,
    Reason,
    TrivialSum,
    characteristic_equation,
    classify,
    orientation_from_b,
)

__version__ = "0.1.0"
