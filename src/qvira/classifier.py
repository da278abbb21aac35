"""Decision procedure for windowed candidate modules.

Given a parsed table, decide whether it presents a direct sum of
trivial modules, identify its isomorphism class (orientation of the
geometric ratio plus the parameter a) with full closed-form verification,
or report an inconsistency together with a finite witness.  prove runs
the stages of the proof in order (degeneracy, omega normalization, the
invariants, the ratio, the closed model) and returns the verdict of the
first that fails, or the proved IsoClass.  classify is the window check,
then prove, then the bracket-relation scan, which runs only on tables
whose closed model fails.

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
    NoInvariants,
    NotConstant,
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


def orientation_from_b(
    b: RationalFunction, ctx: FieldContext = FieldContext.symbolic()
) -> Optional[Orientation]:
    """Decide the orientation from the geometric ratio, None when it is
    neither q nor 1/q.

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
    return None


def classify(doc: TableDocument) -> ClassificationResult:
    """Full decision pipeline on a parsed table document: the window check,
    then prove, then the bracket-relation scan when the closed model fails."""
    h_min, h_max = doc.h_range
    j_min, j_max = doc.j_range
    k_min, k_max = doc.k_range
    if h_max < 2 or h_min > -2 or j_max < 2 or j_min > -2 or k_max - k_min < 5:
        return Inconsistent(
            Reason.WINDOW_TOO_SMALL,
            witness={"h_range": doc.h_range, "j_range": doc.j_range, "k_range": doc.k_range},
        )

    # A table equal to the closed model in every omega-basis cell satisfies
    # the bracket relation on the window without a scan: the relation is
    # invariant under the diagonal gauge, both models satisfy it as Laurent
    # polynomial identities in (q, a), and these survive every nonzero
    # specialization.  So the scan runs only when the model fails, and a
    # violation it finds is the verdict, as a scan run first would give.
    verdict = prove(doc)
    if isinstance(verdict, Inconsistent) and verdict.reason is not Reason.DEGENERATE_NONZERO:
        violations = validate_table(doc, stop_after=1)
        if violations:
            return Inconsistent(Reason.BRACKET_RELATION, witness=violations[0])
    return verdict


def prove(doc: TableDocument) -> ClassificationResult:
    """The proof of classify, on any window: degeneracy, the omega basis, the
    invariants (p, b, a), b in {q, 1/q}, and every window cell against the
    closed model, built of constants in numeric mode.  The first stage that
    fails is the verdict; an IsoClass proves the bracket relation on the
    window, so a scan would find nothing.  A degenerate table with nonzero
    entries is rejected as such even when it also breaks the relation.
    """
    degenerate = degeneracy_test(doc)
    if degenerate is not None:
        if not doc.entries:
            return TrivialSum()
        return Inconsistent(Reason.DEGENERATE_NONZERO, witness=degenerate)

    # A nondegenerate table has every dimension 1 and every f(1, 0, k)
    # nonzero, so only the invariants can fail here.
    try:
        nt = omega_normalize(doc)
        invariants = extract_invariants(nt)
    except NotConstant as exc:
        reason = Reason.P_NOT_ONE if exc.invariant == "p" else Reason.BAD_RATIO
        return Inconsistent(reason, witness=(exc.invariant, exc.k, exc.value, exc.reference))
    except NoInvariants as exc:
        return Inconsistent(Reason.BAD_RATIO, witness=str(exc))

    if invariants.p != RF_ONE:
        return Inconsistent(Reason.P_NOT_ONE, witness=invariants.p)

    orientation = orientation_from_b(invariants.b, doc.context)
    if orientation is None:
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
