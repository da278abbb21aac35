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

Gcd and exact division in Z[q, a] are computed here, over the
term maps, with no computer-algebra library.  A gcd with a monomial
argument is a monomial; any other gcd runs GCDHEU (Char, Geddes and Gonnet,
1989), which evaluates a and then q at integers, takes an integer gcd and
reads the candidate back through its digits, and accepts it only once it
divides both inputs; when six evaluation points fail, the primitive
polynomial remainder sequence over Z[a][q] (Brown, 1971) decides.  An exact
division by a non-monomial is dense long division, leading term first, and
refuses a remainder.
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
    def monomial(e_q: int, e_a: int) -> "Poly2":
        if e_q < 0 or e_a < 0:
            raise ValueError("monomial exponents must be nonnegative")
        return Poly2({(e_q, e_a): 1})

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
    # The gcd of p and r with their monomial content divided out costs what
    # their degree spans say, however large their exponents.
    f, g = _shift(p, pq, pa), _shift(r, rq, ra)
    h = _heu_gcd(f, g)
    h = _prs_gcd(f, g) if h is None else _primitive(h)[0]
    return h * content


def _shift(p: Poly2, dq: int, da: int) -> Poly2:
    """p divided by q^dq a^da, which divides every term."""
    return Poly2({(eq - dq, ea - da): c for (eq, ea), c in p.terms.items()}) if dq or da else p


# GCDHEU (B. W. Char, K. O. Geddes, G. H. Gonnet, "GCDHEU: heuristic
# polynomial GCD algorithm based on integer GCD computation", J. Symbolic
# Comput. 7 (1989) 31-48).  The images of f and g at a = xi have their gcd in
# Z[q] by the same method one variable down, q at xi', where it is an integer
# gcd; each level reads the gcd of its images back through symmetric xi-adic
# digits and takes the primitive part.  With xi > 2 min(|f|, |g|) + 1, |.| the
# largest coefficient of the primitive inputs, that candidate is the gcd as
# soon as it divides both inputs: the trial division is the whole proof.  An xi
# may still be a root of the input with the larger coefficients; an xi at which
# either image vanishes, or whose candidate fails the division, only means
# another xi, grown by the factor 73794/27011 xi^(1/4) of H.-C. Liao and
# R. J. Fateman ("Evaluation of the heuristic polynomial GCD", ISSAC 1995).
_HEU_TRIES = 6


def _heu_gcd(f: Poly2, g: Poly2) -> Optional[Poly2]:
    """gcd(f, g) of nonzero f and g, integer content included, or None when
    every xi tried gives a candidate that fails the trial division."""
    if len(f.terms) == 1 == len(g.terms) and (0, 0) in f.terms and (0, 0) in g.terms:
        return Poly2._of({(0, 0): math.gcd(f.terms[(0, 0)], g.terms[(0, 0)])})
    # Evaluate a while f or g has it, then q.
    var = 1 if any(ea for _, ea in f.terms) or any(ea for _, ea in g.terms) else 0
    content = math.gcd(*f.terms.values(), *g.terms.values())
    (f,), (g,) = _primitive(f), _primitive(g)
    xi = 2 * min(max(map(abs, f.terms.values())), max(map(abs, g.terms.values()))) + 29
    for _ in range(_HEU_TRIES):
        fx, gx = _evaluate_at(f, var, xi), _evaluate_at(g, var, xi)
        # An image that vanishes says nothing of the gcd: try the next xi.
        gamma = _heu_gcd(fx, gx) if fx.terms and gx.terms else None
        if gamma is not None:
            h = _lift(gamma, var, xi)
            if len(h.terms) == 1 and (0, 0) in h.terms:  # primitive part 1
                return Poly2._of({(0, 0): content})
            h = _primitive(h)[0]
            if _divide(f, h) is not None and _divide(g, h) is not None:
                return Poly2._of({m: c * content for m, c in h.terms.items()})
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _evaluate_at(p: Poly2, var: int, xi: int) -> Poly2:
    """p with a (var 1), or q (var 0, p free of a), set to xi, its zero
    coefficients dropped.  xi may be a root of a coefficient of p, or of p
    itself, when it is below 1 + |p|; the image then loses terms or is zero."""
    out: dict[Monomial2, int] = {}
    for m, c in p.terms.items():
        key = (m[0], 0) if var else (0, 0)
        out[key] = out.get(key, 0) + c * xi ** m[var]
    if 0 in out.values():
        out = {m: c for m, c in out.items() if c}
    return Poly2._of(out)


def _lift(p: Poly2, var: int, xi: int) -> Poly2:
    """p with each coefficient read as its symmetric xi-adic digits, the
    coefficients of the powers of a (var 1) or q (var 0)."""
    terms = {}
    for (eq, _), n in p.terms.items():
        for e, d in enumerate(_symmetric_digits(n, xi)):
            if d:
                terms[(eq, e) if var else (e, 0)] = d
    return Poly2._of(terms)


def _symmetric_digits(n: int, base: int) -> list[int]:
    """The digits of n in base, lowest first, each in (-base/2, base/2]."""
    half = base // 2
    digits = []
    while n:
        d = n % base
        if d > half:
            d -= base
        digits.append(d)
        n = (n - d) // base
    return digits


# The fallback, when every xi fails: the primitive polynomial remainder
# sequence over Z[a][q] (W. S. Brown, "On Euclid's algorithm and the
# computation of polynomial greatest common divisors", J. ACM 18 (1971)
# 478-504).  Each step takes the pseudo-remainder and divides out its content
# in Z[a], the gcd of its q-coefficients, which is the same algorithm run with
# q and a swapped, whose own contents are integers.  The q-degree falls at
# every step, so it always terminates.

def _prs_gcd(f: Poly2, g: Poly2) -> Poly2:
    """gcd(f, g) of nonzero f and g, unit-normalized, by the primitive PRS."""
    cf, cg = _content_q(f), _content_q(g)
    f, g = _divide(f, cf), _divide(g, cg)
    content = _gcd_a(cf, cg)
    if _deg_q(f) < _deg_q(g):
        f, g = g, f
    while _deg_q(g):
        r = _prem_q(f, g)
        if r.is_zero:
            return _primitive(content * g)[0]
        f, g = g, _divide(r, _content_q(r))
    # A primitive g of q-degree 0 is a unit.
    return _primitive(content)[0]


def _deg_q(p: Poly2) -> int:
    return max(eq for eq, _ in p.terms)


def _prem_q(f: Poly2, g: Poly2) -> Poly2:
    """The remainder of lc(g)^k f on division by g in q, up to a factor of
    lc(g)'s powers, for deg_q f >= deg_q g."""
    dg = _deg_q(g)
    lg = _coeff_q(g, dg)
    while not f.is_zero and (df := _deg_q(f)) >= dg:
        f = lg * f - _coeff_q(f, df) * Poly2._of({(df - dg, 0): 1}) * g
    return f


def _coeff_q(p: Poly2, eq: int) -> Poly2:
    """The coefficient of q^eq in p, a polynomial in a."""
    return Poly2._of({(0, ea): c for (e, ea), c in p.terms.items() if e == eq})


def _content_q(p: Poly2) -> Poly2:
    """The gcd in Z[a] of p's q-coefficients, up to sign."""
    content = None
    for eq in {eq for eq, _ in p.terms}:
        c = _coeff_q(p, eq)
        content = c if content is None else _gcd_a(content, c)
        if content == _P_ONE:
            break
    return content


def _gcd_a(x: Poly2, y: Poly2) -> Poly2:
    """gcd of two nonzero polynomials in a alone, content included."""
    if all(ea == 0 for _, ea in x.terms) and all(ea == 0 for _, ea in y.terms):
        return Poly2.const(math.gcd(x.terms[(0, 0)], y.terms[(0, 0)]))
    n = math.gcd(*x.terms.values(), *y.terms.values())
    return _swap(_prs_gcd(_swap(x), _swap(y))) * Poly2.const(n)


def _swap(p: Poly2) -> Poly2:
    return Poly2._of({(ea, eq): c for (eq, ea), c in p.terms.items()})


def _divide(p: Poly2, d: Poly2) -> Optional[Poly2]:
    """p / d for a nonzero d that divides p, else None.

    With their monomial contents divided out, p and d are packed into
    univariate polynomials by a -> x, q -> x^s, s one more than p's a-span,
    and divided densely, leading term first; a quotient that divides exactly
    and whose a-span plus d's stays below s is the quotient of p and d.
    """
    if p.is_zero:
        return _P_ZERO
    p_qs, p_as = zip(*p.terms)
    d_qs, d_as = zip(*d.terms)
    pq, pa, dq, da = min(p_qs), min(p_as), min(d_qs), min(d_as)
    if pq < dq or pa < da:
        return None
    # p = q^pq a^pa p1 and d = q^dq a^da d1; d divides p iff d1 divides p1.
    span_a = max(p_as) - pa
    room = span_a - (max(d_as) - da)
    if room < 0:
        return None
    s = span_a + 1
    top = (max(p_qs) - pq) * s + span_a
    dense = [0] * (top + 1)
    for (eq, ea), c in p.terms.items():
        dense[(eq - pq) * s + ea - pa] = c
    divisor = sorted(((eq - dq) * s + ea - da, c) for (eq, ea), c in d.terms.items())
    n, lead = divisor.pop()
    quotient = {}
    for i in range(top, n - 1, -1):
        c = dense[i]
        if c:
            k = i - n
            qc, rem = divmod(c, lead)
            if rem:
                return None
            quotient[k] = qc
            for j, dc in divisor:
                dense[k + j] -= qc * dc
    if any(dense[:n]):
        return None
    terms = {}
    for k, c in quotient.items():
        eq, ea = divmod(k, s)
        if ea > room:
            return None
        terms[(eq + pq - dq, ea + pa - da)] = c
    return Poly2._of(terms)


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
    if p == d:
        return _P_ONE
    quotient = _divide(p, d)
    if quotient is None:
        raise ValueError("inexact polynomial division")
    return quotient


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
        if other.is_one:
            return self
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


# Bounded: expr.parse_value sends every integer literal it reads through here.
@functools.lru_cache(maxsize=1024)
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
    mode always satisfies the genericity hypothesis on q.  Checks read q
    through q_pow; only table.specialize turns a value of Q(q, a) into one of Q.
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

    def q_pow(self, n: int) -> RationalFunction:
        """q^n in this mode: the field element q^n, or the constant q0^n."""
        return RationalFunction.from_fraction(self.q0**n) if self.is_numeric else q_pow(n)


def substitute(x: RationalFunction, ctx: FieldContext) -> RationalFunction:
    """Evaluate x at (q0, a0); the result is a constant field element."""
    if not ctx.is_numeric:
        raise ValueError("substitute requires a numeric context")
    dval = x.den.evaluate(ctx.q0, ctx.a0)
    if dval == 0:
        raise PoleAtPoint(f"denominator vanishes at q={ctx.q0}, a={ctx.a0}")
    nval = x.num.evaluate(ctx.q0, ctx.a0)
    return RationalFunction.from_fraction(nval / dval)
