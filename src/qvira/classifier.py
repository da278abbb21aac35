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
from typing import Optional, Union

from .field import (
    FieldContext,
    RF_ONE,
    RF_Q,
    RationalFunction,
    rf_int,
    q_pow,
)
from .table import TableDocument
from .families import Family, action_coeff
from .presentation import (
    MissingData,
    Nondegenerate,
    NotConstant,
    ZeroEntry,
    degeneracy_test,
    extract_invariants,
    mismatches,
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
    """Coefficients (alpha, beta, gamma) of the step-recurrence characteristic
    equation alpha x^2 + beta x + gamma.

    The quadratic is L x^2 - (2L + (1-q)(1/q - 1)) x + L with L the
    squared unit; at L = 1 it reduces to x^2 - (q + 1/q) x + 1 with roots
    q and 1/q.  No verdict solves it: the classifier tests the ratio b for
    membership in {q, 1/q} directly (orientation_from_b).
    """
    if lambda_sq.is_zero:
        raise ValueError("squared unit must be nonzero")
    one = RF_ONE
    alpha = lambda_sq
    beta = -(rf_int(2) * lambda_sq + (one - RF_Q) * (q_pow(-1) - one))
    gamma = lambda_sq
    return alpha, beta, gamma


class Neither:
    """Sentinel verdict: the ratio is neither q nor 1/q."""

    def __repr__(self):
        return "Neither"


NEITHER = Neither()


def orientation_from_b(
    b: RationalFunction, ctx: FieldContext = FieldContext.symbolic()
) -> Union[Orientation, Neither]:
    """Decide the orientation from the geometric ratio.

    b = q is FORWARD and b = 1/q is REVERSE: these are the only solutions
    of the identity (1+b)^2 / b = (1+q)^2 / q, and q differs from 1/q (in
    numeric mode q is q0, which lies outside {0, 1, -1}).
    """
    if b.is_zero:
        raise ValueError("ratio must be nonzero")
    if b == ctx.q_pow(1):
        return Orientation.FORWARD
    if b == ctx.q_pow(-1):
        return Orientation.REVERSE
    return NEITHER


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


def proves_relation(doc: TableDocument) -> bool:
    """True when the closed-model proof of classify shows that doc satisfies
    the bracket relation on its window, so that a scan would find nothing.

    The proof holds on any window: it compares every window cell, and the
    scan checks only instances inside the window.
    """
    return isinstance(degeneracy_test(doc), Nondegenerate) and isinstance(
        _closed_model_verdict(doc), IsoClass
    )


def _closed_model_verdict(doc: TableDocument) -> ClassificationResult:
    """Normalize, read the invariants and compare every window cell with the
    closed model, built of constants in numeric mode; the first failure is the verdict."""
    try:
        nt = omega_normalize(doc)
        invariants = extract_invariants(nt)
    except NotConstant as exc:
        reason = Reason.P_NOT_ONE if exc.invariant == "p" else Reason.BAD_RATIO
        return Inconsistent(reason, witness=(exc.invariant, exc.k, exc.value, exc.reference))
    except (MissingData, ZeroEntry) as exc:
        return Inconsistent(Reason.BAD_RATIO, witness=str(exc))

    if invariants.p != RF_ONE:
        return Inconsistent(Reason.P_NOT_ONE, witness=invariants.p)

    orientation = orientation_from_b(invariants.b, doc.context)
    if orientation is NEITHER:
        return Inconsistent(Reason.BAD_RATIO, witness=invariants.b)
    a = invariants.a

    # The omega-basis models are families I and III.
    forward = orientation is Orientation.FORWARD
    model_family = Family.I if forward else Family.III

    def sides(h, j, k):
        return nt.f_omega(h, j, k), action_coeff(model_family, a, h, j, k, doc.context)

    mismatch = next(mismatches(doc.cells(), sides), None)
    if mismatch is not None:
        return Inconsistent(Reason.CLOSED_FORM_MISMATCH, witness=mismatch)

    # The raw table is the omega table times s_{k+h} / s_k, a factor that
    # is 1 when the up-chain f(1, 0, k) is 1 throughout and (-1)^h when it
    # is -1 throughout.  Every family's up-chain is one of these constants,
    # so no other table is a family verbatim.
    k_min, k_max = doc.k_range
    ups = {doc.entry(1, 0, k) for k in range(k_min, k_max)}
    if ups == {RF_ONE}:
        exact_family = model_family
    elif ups == {-RF_ONE}:
        exact_family = Family.II if forward else Family.IV
    else:
        exact_family = None
    return IsoClass(orientation=orientation, a=a, exact_family=exact_family)
