"""Exact arithmetic over the coefficient field Q(q, a).

Values are reduced fractions of sparse bivariate polynomials in the
indeterminates q and a, with arbitrary-precision integer coefficients.
Canonical form of a RationalFunction:

  * gcd(num, den) is a unit,
  * all coefficients are integers with overall content 1,
  * the leading coefficient of den is positive.

Leading terms are taken under the fixed monomial order: total degree
descending, then q-degree descending.  This makes equality structural
and printing deterministic.

Negative powers of q and a live in denominators; monomial exponents are
always nonnegative.

Products, quotients and sums of two canonical values are reduced by
Henrici's cross-cancellation (P. Henrici, 1956; Knuth, TAOCP vol. 2,
4.5.1): gcds of the operands' numerators and denominators, which are
smaller than the expanded pair and often monomials, replace one gcd of the
expanded pair.  The direct path, (n n')/(d d') reduced by one gcd, is kept
where that gcd stays on poly_gcd's monomial path, as it does for Laurent
monomials: for * when both denominators or both numerators are monomials,
for / when the swapped pair meets the same test, and for + and - when both
denominators are monomials or equal.  Every gcd and exact division runs
through the module globals poly_gcd and poly_exact_div.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

# A monomial q^e_q * a^e_a is the exponent pair (e_q, e_a).
Monomial2 = tuple[int, int]


class FieldError(Exception):
    """Base class for arithmetic errors in the coefficient field."""


class ZeroDenominator(FieldError):
    pass


class DivisionByZero(FieldError):
    pass


class PoleAtPoint(FieldError):
    """Numeric substitution hit a zero of the denominator."""


class NotQuadratic(FieldError):
    """solve_quadratic was called with a vanishing leading coefficient."""


def _mono_key(m: Monomial2) -> tuple[int, int]:
    # Sort key realizing the fixed order: total degree, then q-degree.
    return (m[0] + m[1], m[0])


class Poly2:
    """Sparse bivariate polynomial in q and a over Z.

    Invariant: every stored coefficient is a nonzero int; the zero
    polynomial has an empty term map.  A coefficient that is not an integer
    raises TypeError.  Instances are immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict[Monomial2, int]] = None):
        clean: dict[Monomial2, int] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = operator.index(coeff)
                if coeff:
                    clean[mono] = coeff
        self.terms = clean

    @staticmethod
    def _of(terms: dict[Monomial2, int]) -> "Poly2":
        """Wrap terms, which hold only nonzero ints, without copying them."""
        out = Poly2.__new__(Poly2)
        out.terms = terms
        return out

    @staticmethod
    def zero() -> "Poly2":
        return _P_ZERO

    @staticmethod
    def const(c: int) -> "Poly2":
        return Poly2({(0, 0): c})

    @staticmethod
    def monomial(e_q: int, e_a: int, coeff: int = 1) -> "Poly2":
        if e_q < 0 or e_a < 0:
            raise ValueError("monomial exponents must be nonnegative")
        return Poly2({(e_q, e_a): coeff})

    # -- predicates -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def leading_monomial(self) -> Monomial2:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=_mono_key)

    def leading_coeff(self) -> int:
        return self.terms[self.leading_monomial()]

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Poly2") -> "Poly2":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = terms.get(mono, 0) + coeff
            if s:
                terms[mono] = s
            else:
                terms.pop(mono, None)
        return Poly2._of(terms)

    def __neg__(self) -> "Poly2":
        return Poly2._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + (-other)

    def __mul__(self, other: "Poly2") -> "Poly2":
        if self.is_zero or other.is_zero:
            return _P_ZERO
        if len(self.terms) == 1:
            ((eq, ea), c) = next(iter(self.terms.items()))
            return Poly2._of({(eq + mq, ea + ma): c * d for (mq, ma), d in other.terms.items()})
        if len(other.terms) == 1:
            return other * self
        terms: dict[Monomial2, int] = {}
        for (eq1, ea1), c1 in self.terms.items():
            for (eq2, ea2), c2 in other.terms.items():
                mono = (eq1 + eq2, ea1 + ea2)
                s = terms.get(mono, 0) + c1 * c2
                if s:
                    terms[mono] = s
                else:
                    terms.pop(mono, None)
        return Poly2._of(terms)

    def __pow__(self, n: int) -> "Poly2":
        return poly_power(self, n)

    # -- structure --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly2(0)"
        parts = [f"{c}*q^{m[0]}*a^{m[1]}" for m, c in self.sorted_terms()]
        return "Poly2(" + " + ".join(parts) + ")"

    def sorted_terms(self) -> Iterator[tuple[Monomial2, int]]:
        """Terms in the fixed monomial order, leading term first."""
        for mono in sorted(self.terms, key=_mono_key, reverse=True):
            yield mono, self.terms[mono]

    def min_exponents(self) -> Monomial2:
        if self.is_zero:
            raise ValueError("zero polynomial")
        return (
            min(m[0] for m in self.terms),
            min(m[1] for m in self.terms),
        )

    def evaluate(self, q0: Fraction, a0: Fraction) -> Fraction:
        total = Fraction(0)
        for (eq, ea), c in self.terms.items():
            total += c * q0**eq * a0**ea
        return total


_P_ZERO = Poly2()
_P_ONE = Poly2({(0, 0): 1})
_P_Q = Poly2({(1, 0): 1})
_P_A = Poly2({(0, 1): 1})


def poly_power(p: Poly2, n: int, check: Callable[[Poly2], Poly2] = lambda x: x) -> Poly2:
    """p**n for n >= 0 by square-and-multiply, with no square formed past the
    last bit of n; check sees every product formed and may refuse it."""
    if n < 0:
        raise ValueError("Poly2 power must be nonnegative")
    if n == 0:
        return _P_ONE
    if len(p.terms) == 1:
        ((eq, ea), c), = p.terms.items()
        return check(Poly2._of({(eq * n, ea * n): c**n}))
    result = None
    while n:
        if n & 1:
            result = p if result is None else check(result * p)
        n >>= 1
        if n:
            p = check(p * p)
    return result


def _primitive(*polys: Poly2) -> tuple[Poly2, ...]:
    """polys divided by their joint integer content, with the sign that makes
    the leading coefficient of the last one positive.  Zero stays zero."""
    content = math.gcd(*(c for p in polys for c in p.terms.values()))
    if polys[-1].terms and polys[-1].leading_coeff() < 0:
        content = -content
    if content in (0, 1):
        return polys
    return tuple(Poly2({m: c // content for m, c in p.terms.items()}) for p in polys)


# sympy's polynomial rings back the non-monomial gcd / exact-division /
# factorization paths; everything hot in practice is a monomial and never
# reaches them.
_SYMPY_RING = None


def _ring():
    global _SYMPY_RING
    if _SYMPY_RING is None:
        from sympy.polys.domains import ZZ
        from sympy.polys.rings import ring

        _SYMPY_RING, _, _ = ring("q,a", ZZ)
    return _SYMPY_RING


def _to_sympy(p: Poly2):
    return _ring().from_dict(p.terms)


def _from_sympy(sp) -> Poly2:
    return Poly2(dict(sp.terms()))


def poly_gcd(p: Poly2, r: Poly2) -> Poly2:
    """Gcd of two polynomials, unit-normalized (content 1, positive lead).

    gcd(p, 0) is p itself, normalized.
    """
    if p.is_zero:
        return _primitive(r)[0]
    if r.is_zero:
        return _primitive(p)[0]
    pq, pa = p.min_exponents()
    rq, ra = r.min_exponents()
    content = Poly2.monomial(min(pq, rq), min(pa, ra))
    if p.is_monomial or r.is_monomial:
        return content
    # sympy's gcd sees p and r with their monomial content divided out, so its
    # cost follows their degree spans, however large their exponents.
    g = _to_sympy(_shift(p, pq, pa)).gcd(_to_sympy(_shift(r, rq, ra)))
    return _primitive(_from_sympy(g))[0] * content


def _shift(p: Poly2, dq: int, da: int) -> Poly2:
    """p divided by q^dq a^da, which divides every term."""
    return Poly2({(eq - dq, ea - da): c for (eq, ea), c in p.terms.items()}) if dq or da else p


def poly_exact_div(p: Poly2, d: Poly2) -> Poly2:
    """Divide p by an exact divisor d."""
    if d.is_zero:
        raise DivisionByZero("polynomial division by zero")
    if p.is_zero:
        return _P_ZERO
    if d.is_monomial:
        ((dq, da), dc) = next(iter(d.terms.items()))
        terms = {}
        for (eq, ea), c in p.terms.items():
            if eq < dq or ea < da or c % dc:
                raise ValueError("inexact monomial division")
            terms[(eq - dq, ea - da)] = c // dc
        return Poly2(terms)
    quo, rem = _to_sympy(p).div(_to_sympy(d))
    if rem:
        raise ValueError("inexact polynomial division")
    return _from_sympy(quo)


def _sqrt_int(c: int) -> Optional[int]:
    if c < 0:
        return None
    s = math.isqrt(c)
    return s if s * s == c else None


def poly_sqrt(p: Poly2) -> Optional[Poly2]:
    """Polynomial square root of p, or None if p is not a perfect square.

    Sign convention: the returned root has a positive leading coefficient.
    """
    if p.is_zero:
        return _P_ZERO
    if p.is_monomial:
        ((eq, ea), c) = next(iter(p.terms.items()))
        if eq % 2 or ea % 2:
            return None
        sc = _sqrt_int(c)
        if sc is None:
            return None
        return Poly2.monomial(eq // 2, ea // 2, sc)
    if p.leading_coeff() < 0:
        return None
    sp = _to_sympy(p)
    content, factors = sp.primitive()
    sc = _sqrt_int(int(content))
    if sc is None:
        return None
    root = _to_sympy(Poly2.const(sc))
    for fac, mult in factors.factor_list()[1]:
        if mult % 2:
            return None
        root = root * fac ** (mult // 2)
    result = _from_sympy(root)
    if result.leading_coeff() < 0:
        result = -result
    return result


class RationalFunction:
    """Element of Q(q, a) in canonical reduced form.

    Equality is structural; the canonical form is unique, so two equal
    field values always compare equal as Python objects.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly2, den: Poly2, _canonical: bool = False):
        if not _canonical:
            num, den = _canonicalize(num, den)
        self.num = num
        self.den = den

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "RationalFunction":
        return RationalFunction(Poly2.const(n), _P_ONE, _canonical=True)

    @staticmethod
    def from_fraction(c: Fraction) -> "RationalFunction":
        num = Poly2.const(c.numerator)
        den = Poly2.const(c.denominator)
        return RationalFunction(num, den, _canonical=True)

    # -- predicates -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_one(self) -> bool:
        return self.num == _P_ONE and self.den == _P_ONE

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        """a/b + c/d by _cross_sum, or directly by one gcd when b and d are
        equal, where that gcd is Henrici's second, or both monomials, where
        it stays on poly_gcd's monomial path."""
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        b, d = self.den, other.den
        if len(b.terms) == 1 == len(d.terms) or b == d:
            return RationalFunction(*sum_parts(self, other))
        return _cross_sum(self.num, b, other.num, d)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den, _canonical=True)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        """The sum with -other, on the paths of __add__."""
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        """a/b * c/d, by _product."""
        if self.is_zero or other.is_zero:
            return RF_ZERO
        if self.is_one:
            return other
        if other.is_one:
            return self
        return _product(self.num, self.den, other.num, other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        """a/b / (c/d) as a/b * d/c, by _product."""
        if other.is_zero:
            raise DivisionByZero("division by the zero field element")
        if self.is_zero:
            return RF_ZERO
        return _product(self.num, self.den, other.den, other.num)

    def inverse(self) -> "RationalFunction":
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        # The swapped pair stays coprime with joint content 1; only the sign
        # of the new denominator may need fixing.
        if self.num.leading_coeff() < 0:
            return RationalFunction(-self.den, -self.num, _canonical=True)
        return RationalFunction(self.den, self.num, _canonical=True)

    def __pow__(self, n: int) -> "RationalFunction":
        if n == 0:
            return RF_ONE
        if n < 0:
            return self.inverse() ** (-n)
        if self.is_zero:
            return RF_ZERO
        # Powers of a canonical pair are canonical: they stay coprime, their
        # joint content is the n-th power of 1 (Gauss's lemma), and the
        # leading coefficient of den**n is lc(den)**n > 0.
        return RationalFunction(self.num**n, self.den**n, _canonical=True)

    # -- structure --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def order_key(self):
        """Deterministic total-order key (polynomials sort before fractions)."""
        return (
            0 if self.den == _P_ONE else 1,
            tuple(sorted(self.den.terms.items())),
            tuple(sorted(self.num.terms.items())),
        )


def sum_parts(x: RationalFunction, y: RationalFunction) -> tuple[Poly2, Poly2]:
    """The numerator and denominator of x + y before reduction."""
    if x.den == y.den:
        return x.num + y.num, x.den
    return x.num * y.den + y.num * x.den, x.den * y.den


def _product(a: Poly2, b: Poly2, c: Poly2, d: Poly2) -> RationalFunction:
    """a/b * c/d for nonzero reduced pairs a/b and c/d, d of either sign.

    With g1 = gcd(a, d) and g2 = gcd(c, b), (a/g1)(c/g2) / ((b/g2)(d/g1)) is
    reduced up to its integer content and sign.  When b and d, or a and c,
    are both monomials, the one gcd of (ac, bd) stays on poly_gcd's monomial
    path, so that pair is reduced directly.
    """
    if len(b.terms) == 1 == len(d.terms) or len(a.terms) == 1 == len(c.terms):
        return RationalFunction(a * c, b * d)
    g1, g2 = poly_gcd(a, d), poly_gcd(c, b)
    if g1 != _P_ONE:
        a, d = poly_exact_div(a, g1), poly_exact_div(d, g1)
    if g2 != _P_ONE:
        c, b = poly_exact_div(c, g2), poly_exact_div(b, g2)
    return RationalFunction(*_primitive(a * c, b * d), _canonical=True)


def _cross_sum(a: Poly2, b: Poly2, c: Poly2, d: Poly2) -> RationalFunction:
    """a/b + c/d for nonzero reduced pairs with distinct denominators.

    With g = gcd(b, d), t = a(d/g) + c(b/g) is prime to b/g and to d/g, so
    with g2 = gcd(t, g), (t/g2) / ((b/g)(d/g2)) is reduced up to its integer
    content.  Coprime denominators (g = 1) need no second gcd.
    """
    g = poly_gcd(b, d)
    if g == _P_ONE:
        return RationalFunction(*_primitive(a * d + c * b, b * d), _canonical=True)
    b = poly_exact_div(b, g)
    t = a * poly_exact_div(d, g) + c * b
    if t.is_zero:
        return RF_ZERO
    g2 = poly_gcd(t, g)
    if g2 != _P_ONE:
        t, d = poly_exact_div(t, g2), poly_exact_div(d, g2)
    return RationalFunction(*_primitive(t, b * d), _canonical=True)


def _canonicalize(num: Poly2, den: Poly2) -> tuple[Poly2, Poly2]:
    if den.is_zero:
        raise ZeroDenominator("denominator is the zero polynomial")
    if num.is_zero:
        return _P_ZERO, _P_ONE
    if len(num.terms) == 1 and len(den.terms) == 1:
        # Laurent monomial: cancel the shared powers of q and a, and put the
        # coefficient ratio in lowest terms, sign on the numerator.
        ((nq, na), cn), = num.terms.items()
        ((dq, da), cd), = den.terms.items()
        eq, ea = min(nq, dq), min(na, da)
        g = math.gcd(cn, cd) if cd > 0 else -math.gcd(cn, cd)
        return Poly2._of({(nq - eq, na - ea): cn // g}), Poly2._of({(dq - eq, da - ea): cd // g})
    g = poly_gcd(num, den)
    if g != _P_ONE:
        num = poly_exact_div(num, g)
        den = poly_exact_div(den, g)
    # Joint content 1 and a positive leading denominator coefficient.
    return _primitive(num, den)


RF_ZERO = RationalFunction(_P_ZERO, _P_ONE, _canonical=True)
RF_ONE = RationalFunction(_P_ONE, _P_ONE, _canonical=True)
RF_Q = RationalFunction(_P_Q, _P_ONE, _canonical=True)
RF_A = RationalFunction(_P_A, _P_ONE, _canonical=True)


@functools.lru_cache(maxsize=None)
def rf_int(n: int) -> RationalFunction:
    return RationalFunction.from_int(n)


@functools.lru_cache(maxsize=None)
def q_pow(n: int) -> RationalFunction:
    """q^n as a field element, for any integer n."""
    if n >= 0:
        return RationalFunction(Poly2.monomial(n, 0), _P_ONE, _canonical=True)
    return RationalFunction(_P_ONE, Poly2.monomial(-n, 0), _canonical=True)


def sign_pow(m: int) -> RationalFunction:
    """(-1)^m as a field element."""
    return RF_ONE if m % 2 == 0 else rf_int(-1)


@dataclass(frozen=True)
class FieldContext:
    """Evaluation mode: symbolic over Q(q, a), or numeric at rational (q0, a0).

    A rational q0 outside {0, 1, -1} is never a root of unity, so numeric
    mode always satisfies the genericity hypothesis on q.
    """

    q0: Optional[Fraction] = None
    a0: Optional[Fraction] = None

    def __post_init__(self):
        if (self.q0 is None) != (self.a0 is None):
            raise ValueError("numeric mode needs both q0 and a0")
        if self.q0 is not None:
            if self.q0 in (0, 1, -1):
                raise ValueError("numeric q must lie outside {0, 1, -1}")
            if self.a0 == 0:
                raise ValueError("numeric a must be nonzero")

    @staticmethod
    def symbolic() -> "FieldContext":
        return FieldContext()

    @staticmethod
    def numeric(q0, a0) -> "FieldContext":
        return FieldContext(Fraction(q0), Fraction(a0))

    @property
    def is_numeric(self) -> bool:
        return self.q0 is not None

    def reduce(self, x: RationalFunction) -> RationalFunction:
        """Identity in symbolic mode, substitution in numeric mode."""
        return substitute(x, self) if self.is_numeric else x


def substitute(x: RationalFunction, ctx: FieldContext) -> RationalFunction:
    """Evaluate x at (q0, a0); the result is a constant field element."""
    if not ctx.is_numeric:
        raise ValueError("substitute requires a numeric context")
    dval = x.den.evaluate(ctx.q0, ctx.a0)
    if dval == 0:
        raise PoleAtPoint(f"denominator vanishes at q={ctx.q0}, a={ctx.a0}")
    nval = x.num.evaluate(ctx.q0, ctx.a0)
    return RationalFunction.from_fraction(nval / dval)


@dataclass(frozen=True)
class TwoRoots:
    r1: RationalFunction
    r2: RationalFunction


@dataclass(frozen=True)
class RepeatedRoot:
    root: RationalFunction


@dataclass(frozen=True)
class RootsNotInField:
    pass


def rf_sqrt(x: RationalFunction) -> Optional[RationalFunction]:
    """Square root of x in Q(q, a), or None when no such element exists.

    With gcd(num, den) a unit, x is a square iff num*den is a square
    polynomial: sqrt(x) = sqrt(num*den)/den.
    """
    if x.is_zero:
        return RF_ZERO
    s = poly_sqrt(x.num * x.den)
    if s is None:
        return None
    return RationalFunction(s, x.den)


def solve_quadratic(
    alpha: RationalFunction, beta: RationalFunction, gamma: RationalFunction
):
    """Exact roots of alpha*x^2 + beta*x + gamma over Q(q, a).

    Returns TwoRoots (distinct roots, deterministic order), RepeatedRoot,
    or RootsNotInField when the discriminant is not a square in the field.
    """
    if alpha.is_zero:
        raise NotQuadratic("leading coefficient is zero")
    disc = beta * beta - rf_int(4) * alpha * gamma
    if disc.is_zero:
        return RepeatedRoot(-beta / (rf_int(2) * alpha))
    s = rf_sqrt(disc)
    if s is None:
        return RootsNotInField()
    twoa = rf_int(2) * alpha
    r1 = (-beta + s) / twoa
    r2 = (-beta - s) / twoa
    r1, r2 = sorted((r1, r2), key=RationalFunction.order_key)
    return TwoRoots(r1, r2)
