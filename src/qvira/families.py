"""The four closed-form graded module families and their action machinery.

Each family attaches, to a nonzero parameter a, an action of the algebra
on a tower of one-dimensional degree spaces spanned by vectors v_k:

    (t1^m t2^n).v_k = f(m, n, k) v_{k+m}

with coefficient, per family tag:

    I    (a q^k)^n
    II   (-1)^m (a q^k)^n
    III  (-1)^{m+n+1} (a q^{-k-m})^n
    IV   (-1)^{n+1} (a q^{-k-m})^n

Families I and III are also the omega-basis models the classifier
compares candidate tables against.  Also provided: the generic
two-parameter closed form (geometric ratio b in {q, 1/q}, unit sign lam in
{1, -1}) that reproduces all four, windowed table generation, and the
graded-irreducibility check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Union

from .field import (
    FieldContext,
    RF_ONE,
    RF_Q,
    RationalFunction,
    rf_int,
    q_pow,
    sign_pow,
)
from .algebra import AlgebraElement, Combination, _accumulate, bracket
from .expr import check_value, power
from .table import TableDocument, check_window, specialize
from .presentation import Degenerate, Nondegenerate, degeneracy_test


class Family(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


class IndexZero(Exception):
    """The excluded basis index (0, 0) was used as an action index."""


class BadParameter(Exception):
    pass


@dataclass(frozen=True)
class FamilyModule:
    family: Family
    a: RationalFunction
    # f(m, n, k) by (m, n, k), filled on first use; not part of the value.
    _coeffs: dict = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        if self.a.is_zero:
            raise BadParameter("module parameter a must be nonzero")

    def coeff(self, m: int, n: int, k: int) -> RationalFunction:
        """action_coeff(self.family, self.a, m, n, k), computed once per module."""
        key = (m, n, k)
        value = self._coeffs.get(key)
        if value is None:
            value = self._coeffs[key] = action_coeff(self.family, self.a, m, n, k)
        return value


class GradedVector(Combination):
    """Finite linear combination of degree vectors v_k, keyed by k."""

    __slots__ = ()

    @staticmethod
    def basis(k: int, coeff: RationalFunction = RF_ONE) -> "GradedVector":
        return GradedVector({k: coeff})

    def __repr__(self) -> str:
        return f"GradedVector({self.terms!r})"


def action_coeff(
    family: Family, a: RationalFunction, m: int, n: int, k: int,
    ctx: FieldContext = FieldContext.symbolic(),
) -> RationalFunction:
    """The coefficient f(m, n, k) of the family action, with q^e read as ctx.q_pow(e)."""
    if (m, n) == (0, 0):
        raise IndexZero("action index (0, 0) is excluded")
    if a.is_zero:
        raise BadParameter("module parameter a must be nonzero")
    if family is Family.I:
        return (a * ctx.q_pow(k)) ** n
    if family is Family.II:
        return sign_pow(m) * (a * ctx.q_pow(k)) ** n
    if family is Family.III:
        return sign_pow(m + n + 1) * (a * ctx.q_pow(-k - m)) ** n
    return sign_pow(n + 1) * (a * ctx.q_pow(-k - m)) ** n


def act(module: FamilyModule, x: AlgebraElement, v: GradedVector) -> GradedVector:
    """Bilinear extension of the family action; degree m shifts k to k+m."""
    acc: dict[int, RationalFunction] = {}
    for (m, n), cx in x.terms.items():
        for k, cv in v.terms.items():
            _accumulate(acc, k + m, module.coeff(m, n, k) * cx * cv)
    return GradedVector._of(acc)


@dataclass(frozen=True)
class AxiomWitness:
    x: AlgebraElement
    y: AlgebraElement
    v: GradedVector
    lhs: GradedVector
    rhs: GradedVector


def verify_axiom(
    module: FamilyModule, x: AlgebraElement, y: AlgebraElement, v: GradedVector
) -> Optional[AxiomWitness]:
    """Check [x, y].v = x.(y.v) - y.(x.v) exactly; None means pass."""
    lhs = act(module, bracket(x, y), v)
    rhs = act(module, x, act(module, y, v)) - act(module, y, act(module, x, v))
    if lhs == rhs:
        return None
    return AxiomWitness(x, y, v, lhs, rhs)


def gen_table(
    family: Family,
    a: RationalFunction,
    h_bound: int,
    j_bound: int,
    k_bound: int,
    mode: FieldContext = FieldContext.symbolic(),
) -> TableDocument:
    """Windowed table of the family action, all degree dimensions 1."""
    if min(h_bound, j_bound, k_bound) < 1:
        raise ValueError("window bounds must be at least 1")
    k_range, h_range, j_range = (-k_bound, k_bound), (-h_bound, h_bound), (-j_bound, j_bound)
    check_window(k_range, h_range, j_range)
    a = specialize(a, mode)
    if a.is_zero:
        raise BadParameter("module parameter a must be nonzero")
    # Every entry is +-a^n q^e with |n| <= j_bound, and f(0, n, 0) = +-a^n
    # is one of them; sizing those first bounds the work of the loop, and
    # each written entry is then held to the caps parse_table applies.
    for n in range(2, j_bound + 1):
        power(a, n)
    doc = TableDocument(
        context=mode,
        k_range=k_range,
        dims=tuple([1] * (2 * k_bound + 1)),
        h_range=h_range,
        j_range=j_range,
    )
    for h, j, k in doc.cells():
        value = check_value(action_coeff(family, a, h, j, k, mode))
        if not value.is_zero:
            doc.entries[(h, j, k)] = value
    return doc


def closed_form_f(
    b: RationalFunction,
    lam: RationalFunction,
    m: int,
    j: int,
    k: int,
    a: RationalFunction,
) -> RationalFunction:
    """Generic closed-form coefficient with ratio b and unit sign lam.

    For m != 0:

        f(m, j, k) = (a b^k (1 - b^m) / (1 - q^m))^j * f(m, 0, 0)

    where f(m, 0, 0) is (lam (1-b)/(1-q))^m (1-q^m)/(1-b^m) for m >= 1
    and carries the extra factor q/b and exponent m+2 for m <= -1.  For
    m = 0, j != 0:

        f(0, j, k) = lam^2 (1 - b^j) / (q^{-j} - 1) * (a b^{k-1} (1-b)/(1-q))^j.

    Restricted to b in {q, 1/q} and lam in {1, -1}.
    """
    if b not in (RF_Q, RF_Q.inverse()):
        raise BadParameter("ratio b must be q or 1/q")
    if lam not in (RF_ONE, rf_int(-1)):
        raise BadParameter("unit sign must be 1 or -1")
    if a.is_zero:
        raise BadParameter("module parameter a must be nonzero")
    if (m, j) == (0, 0):
        raise BadParameter("index (0, 0) is excluded")
    one = RF_ONE
    if m == 0:
        lead = lam * lam * (one - b**j) / (q_pow(-j) - one)
        return lead * (a * b ** (k - 1) * (one - b) / (one - RF_Q)) ** j
    base = lam * (one - b) / (one - RF_Q)
    ratio = (one - q_pow(m)) / (one - b**m)
    if m >= 1:
        f_m00 = base**m * ratio
    else:
        f_m00 = (RF_Q / b) * base ** (m + 2) * ratio
    return (a * b**k * (one - b**m) / (one - q_pow(m))) ** j * f_m00


@dataclass(frozen=True)
class Irreducible:
    pass


@dataclass(frozen=True)
class Reducible:
    split_degree: int


def check_graded_irreducible(doc: TableDocument) -> Union[Irreducible, Reducible]:
    """Decide whether the windowed action admits a graded degree split.

    Irreducible iff the degeneracy test passes: all dimensions are 1 and no
    f(1,0,k) f(-1,0,k+1) vanishes, so any nonzero homogeneous vector generates
    the window.  Otherwise the split is the first degree of dimension 0, or,
    at the first break k, k when f(1,0,k) is 0 and k+1 when f(-1,0,k+1) is.
    """
    verdict = degeneracy_test(doc)
    if isinstance(verdict, Nondegenerate):
        return Irreducible()
    if isinstance(verdict, Degenerate) and not doc.entry(1, 0, verdict.k).is_zero:
        return Reducible(verdict.k + 1)
    return Reducible(verdict.k)
