"""Decision procedure for windowed candidate modules.

Given a parsed table, decide whether it presents a direct sum of
trivial modules, identify its isomorphism class (orientation of the
geometric ratio plus the parameter a) with full closed-form verification,
or report an inconsistency together with a finite witness.  The
bracket-relation scan runs only on tables the closed model does not
prove.

The analytic exclusion arguments of the source material (limits, absolute
values, complex roots) are replaced here by exact checks: constancy of
the invariants, membership of the ratio in {q, 1/q}, and entrywise
comparison with the closed model.  Anything those checks reject carries a
concrete witness on the window.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .field import (
    FieldContext,
    NotQuadratic,
    RF_ONE,
    RF_Q,
    RationalFunction,
    RepeatedRoot,
    RootsNotInField,
    TwoRoots,
    rf_int,
    q_pow,
    sign_pow,
    solve_quadratic,
)
from .table import TableDocument
from .families import Family, action_coeff
from .presentation import (
    DegenerateTable,
    MissingData,
    Nondegenerate,
    NotConstant,
    ZeroEntry,
    degeneracy_test,
    extract_invariants,
    omega_normalize,
    validate_table,
)


class Orientation(enum.Enum):
    FORWARD = "forward"  # ratio b = q
    REVERSE = "reverse"  # ratio b = 1/q


class Reason(enum.Enum):
    BRACKET_RELATION = "bracket-relation"
    DEGENERATE_NONZERO = "degenerate-nonzero"
    P_NOT_ONE = "p-not-one"
    BAD_RATIO = "bad-ratio"
    CLOSED_FORM_MISMATCH = "closed-form-mismatch"
    WINDOW_TOO_SMALL = "window-too-small"


@dataclass(frozen=True)
class TrivialSum:
    pass


@dataclass(frozen=True)
class IsoClass:
    orientation: Orientation
    a: RationalFunction
    exact_family: Optional[Family] = None


@dataclass(frozen=True)
class Inconsistent:
    reason: Reason
    witness: object = None


ClassificationResult = Union[TrivialSum, IsoClass, Inconsistent]


def characteristic_equation(lambda_sq: RationalFunction):
    """Coefficients and roots of the step-recurrence characteristic equation.

    The quadratic is L x^2 - (2L + (1-q)(1/q - 1)) x + L with L the
    squared unit; at L = 1 it reduces to x^2 - (q + 1/q) x + 1 with roots
    q and 1/q.
    """
    if lambda_sq.is_zero:
        raise ValueError("squared unit must be nonzero")
    one = RF_ONE
    alpha = lambda_sq
    beta = -(rf_int(2) * lambda_sq + (one - RF_Q) * (q_pow(-1) - one))
    gamma = lambda_sq
    return (alpha, beta, gamma), solve_quadratic(alpha, beta, gamma)


class Neither:
    """Sentinel verdict: the ratio is neither q nor 1/q."""

    def __repr__(self):
        return "Neither"


NEITHER = Neither()


def orientation_from_b(
    b: RationalFunction, ctx: FieldContext = FieldContext.symbolic()
) -> Union[Orientation, Neither]:
    """Decide the orientation from the geometric ratio.

    Checks the exact identity (1+b)^2 / b = (1+q)^2 / q, whose only
    solutions are b = q and b = 1/q, then separates the two.
    """
    if b.is_zero:
        raise ValueError("ratio must be nonzero")
    one = RF_ONE
    q_val = ctx.reduce(RF_Q)
    lhs = (one + b) ** 2 / b
    rhs = (one + q_val) ** 2 / q_val
    if lhs != rhs:
        return NEITHER
    return Orientation.FORWARD if b == q_val else Orientation.REVERSE


def _model_coeff(
    orientation: Orientation, a: RationalFunction, h: int, j: int, k: int
) -> RationalFunction:
    """Omega-basis closed model entry for the given orientation."""
    if orientation is Orientation.FORWARD:
        return (a * q_pow(k)) ** j
    return sign_pow(h + j + 1) * (a * q_pow(-k - h)) ** j


def classify(doc: TableDocument) -> ClassificationResult:
    """Full decision pipeline on a parsed table document."""
    h_min, h_max = doc.h_range
    j_min, j_max = doc.j_range
    k_min, k_max = doc.k_range
    if h_max < 2 or h_min > -2 or j_max < 2 or j_min > -2 or k_max - k_min < 5:
        return Inconsistent(
            Reason.WINDOW_TOO_SMALL,
            witness={"h_range": doc.h_range, "j_range": doc.j_range, "k_range": doc.k_range},
        )

    # Degeneracy is decided before bracket validation: a degenerate table
    # with nonzero entries is rejected as such even when the surviving
    # entries also break the bracket relation.
    verdict = degeneracy_test(doc)
    if not isinstance(verdict, Nondegenerate):
        if not doc.entries:
            return TrivialSum()
        return Inconsistent(Reason.DEGENERATE_NONZERO, witness=verdict)

    # A table equal to the closed model in every omega-basis cell satisfies
    # the bracket relation on the window without a scan: the relation is
    # invariant under the diagonal gauge, both models satisfy it as Laurent
    # polynomial identities in (q, a), and these survive every nonzero
    # specialization.  So the scan runs only when that proof fails, and a
    # failure it finds takes precedence, as it did when it ran first.
    verdict = _closed_model_verdict(doc)
    if isinstance(verdict, IsoClass):
        return verdict
    violations = validate_table(doc, stop_after=1)
    if violations:
        return Inconsistent(Reason.BRACKET_RELATION, witness=violations[0])
    return verdict


def _closed_model_verdict(doc: TableDocument) -> ClassificationResult:
    """Normalize, read the invariants and compare every window cell with the
    closed model; the first check that fails gives the verdict."""
    h_min, h_max = doc.h_range
    j_min, j_max = doc.j_range
    k_min, k_max = doc.k_range
    try:
        nt = omega_normalize(doc)
        invariants = extract_invariants(nt)
    except DegenerateTable as exc:
        # Unreachable after a passing degeneracy test; kept as a guard.
        return Inconsistent(Reason.DEGENERATE_NONZERO, witness=exc.k)
    except NotConstant as exc:
        reason = Reason.P_NOT_ONE if exc.invariant == "p" else Reason.BAD_RATIO
        return Inconsistent(reason, witness=(exc.invariant, exc.k, exc.value, exc.reference))
    except (MissingData, ZeroEntry) as exc:
        return Inconsistent(Reason.BAD_RATIO, witness=str(exc))

    one_val = doc.context.reduce(RF_ONE)
    if invariants.p != one_val:
        return Inconsistent(Reason.P_NOT_ONE, witness=invariants.p)

    orientation = orientation_from_b(invariants.b, doc.context)
    if orientation is NEITHER:
        return Inconsistent(Reason.BAD_RATIO, witness=invariants.b)
    a = invariants.a
    if a.is_zero:
        return Inconsistent(Reason.BAD_RATIO, witness=a)

    red = doc.context.reduce
    for h in range(h_min, h_max + 1):
        for j in range(j_min, j_max + 1):
            if (h, j) == (0, 0):
                continue
            for k in range(k_min, k_max + 1):
                if not k_min <= k + h <= k_max:
                    continue
                model = red(_model_coeff(orientation, a, h, j, k))
                if nt.f_omega(h, j, k) != model:
                    return Inconsistent(
                        Reason.CLOSED_FORM_MISMATCH,
                        witness=((h, j, k), nt.f_omega(h, j, k), model),
                    )

    exact_family = None
    for family in Family:
        if _matches_family_verbatim(doc, family, a):
            exact_family = family
            break
    return IsoClass(orientation=orientation, a=a, exact_family=exact_family)


def _matches_family_verbatim(
    doc: TableDocument, family: Family, a: RationalFunction
) -> bool:
    red = doc.context.reduce
    k_min, k_max = doc.k_range
    for h in range(doc.h_range[0], doc.h_range[1] + 1):
        for j in range(doc.j_range[0], doc.j_range[1] + 1):
            if (h, j) == (0, 0):
                continue
            for k in range(k_min, k_max + 1):
                if not k_min <= k + h <= k_max:
                    continue
                if doc.entry(h, j, k) != red(action_coeff(family, a, h, j, k)):
                    return False
    return True


@dataclass(frozen=True)
class DistinctRoots:
    """Closed form g(k) = c1 x^k + c2 x^{-k}."""

    x: RationalFunction
    c1: RationalFunction
    c2: RationalFunction


@dataclass(frozen=True)
class RepeatedRootFit:
    """Closed form g(k) = r^k (c1 + k c2)."""

    r: RationalFunction
    c1: RationalFunction
    c2: RationalFunction


RecurrenceSolution = Union[DistinctRoots, RepeatedRootFit, RootsNotInField]


class SingularFit(Exception):
    pass


def solve_recurrence2(
    alpha: RationalFunction,
    beta: RationalFunction,
    gamma: RationalFunction,
    g0: RationalFunction,
    g1: RationalFunction,
) -> RecurrenceSolution:
    """Closed form of the order-2 recurrence with characteristic quadratic
    alpha x^2 + beta x + gamma, fitted to the initial values g(0), g(1).

    In the distinct-root case the quadratic must have root product 1, so
    the solution reads g(k) = c1 x^k + c2 x^{-k}.
    """
    roots = solve_quadratic(alpha, beta, gamma)
    if isinstance(roots, RootsNotInField):
        return roots
    if isinstance(roots, RepeatedRoot):
        r = roots.root
        if r.is_zero:
            raise SingularFit("repeated root zero")
        c1 = g0
        c2 = g1 / r - g0
        return RepeatedRootFit(r=r, c1=c1, c2=c2)
    x = roots.r1
    x_inv = roots.r2
    if x * x_inv != RF_ONE:
        raise ValueError("root product must be 1 for the x, 1/x closed form")
    det = x - x_inv
    if det.is_zero:
        raise SingularFit("roots coincide")
    c1 = (g1 - g0 * x_inv) / det
    c2 = g0 - c1
    return DistinctRoots(x=x, c1=c1, c2=c2)


@dataclass(frozen=True)
class Geometric:
    a: RationalFunction
    b: RationalFunction


@dataclass(frozen=True)
class NotGeometric:
    witness_k: int


class ZeroSample(Exception):
    def __init__(self, k: int):
        self.k = k
        super().__init__(f"sample at k={k} is zero")


def fit_geometric(
    samples: Sequence[tuple[int, RationalFunction]]
) -> Union[Geometric, NotGeometric]:
    """Fit g(k) = a b^k to consecutive nonzero samples; a uses the k = 0
    convention."""
    if len(samples) < 3:
        raise ValueError("need at least three samples")
    ordered = sorted(samples)
    for (k, value), (k_next, _) in zip(ordered, ordered[1:]):
        if k_next != k + 1:
            raise ValueError("samples must be consecutive in k")
    for k, value in ordered:
        if value.is_zero:
            raise ZeroSample(k)
    b = ordered[1][1] / ordered[0][1]
    for (k, value), (_, nxt) in zip(ordered, ordered[1:]):
        if nxt / value != b:
            return NotGeometric(witness_k=k)
    k0, g0 = ordered[0]
    return Geometric(a=g0 * b ** (-k0), b=b)
