import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qvira.field import (
    DivisionByZero,
    FieldContext,
    PoleAtPoint,
    Poly2,
    RF_A,
    RF_ONE,
    RF_Q,
    RF_ZERO,
    RationalFunction,
    ZeroDenominator,
    _prs_gcd,
    poly_exact_div,
    poly_gcd,
    q_pow,
    rf_int,
    substitute,
)
from qvira.expr import ValueTooLarge, parse_value, print_canonical


def P(text: str) -> Poly2:
    value = parse_value(text)
    assert value.den == Poly2.const(1)
    return value.num


# -- strategies -----------------------------------------------------------

# Every element of Q(q, a) is a ratio of integer polynomials; +-12 covers the
# old +-4 with denominators up to 3 once those are cleared.
coeffs = st.integers(-12, 12).filter(lambda c: c != 0)

monomials = st.tuples(st.integers(0, 2), st.integers(0, 2))

polys = st.dictionaries(monomials, coeffs, max_size=3).map(Poly2)

nonzero_polys = polys.filter(lambda p: not p.is_zero)

rationals = st.builds(RationalFunction, polys, nonzero_polys)

nonzero_rationals = rationals.filter(lambda x: not x.is_zero)


# -- normalize ------------------------------------------------------------

class TestNormalize:
    def test_difference_of_squares(self):
        assert RationalFunction(P("q^2 - 1"), P("q - 1")) == parse_value("q + 1")

    def test_zero_numerator(self):
        assert RationalFunction(Poly2.zero(), P("q + a")) == RF_ZERO

    def test_common_factor_and_content(self):
        assert RationalFunction(P("2*q*a"), P("4*q")) == parse_value("a/2")

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            RationalFunction(P("q"), Poly2.zero())

    @given(polys, nonzero_polys, nonzero_polys)
    @settings(max_examples=60, deadline=None)
    def test_common_factor_cancels(self, p, q, x):
        assert RationalFunction(p * x, q * x) == RationalFunction(p, q)

    @given(rationals)
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, x):
        assert RationalFunction(x.num, x.den) == x
        assert x.den.leading_coeff() > 0


# -- arithmetic -----------------------------------------------------------

class TestArithmetic:
    def test_add_common_denominator(self):
        assert parse_value("1/q") + parse_value("1/a") == parse_value("(a+q)/(q*a)")

    def test_mul_expansion(self):
        assert parse_value("q-1") * parse_value("q+1") == parse_value("q^2-1")

    def test_sub_self(self):
        x = parse_value("(q^2+a)/(q-3)")
        assert x - x == RF_ZERO

    def test_div_by_zero(self):
        with pytest.raises(DivisionByZero):
            RF_ONE / RF_ZERO

    @given(rationals, rationals, rationals)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(nonzero_rationals)
    @settings(max_examples=60, deadline=None)
    def test_inverses(self, x):
        assert x + (-x) == RF_ZERO
        assert x * x.inverse() == RF_ONE


class TestPow:
    def test_inverse_square(self):
        assert RF_Q ** -2 == parse_value("1/q^2")

    def test_monomial_power(self):
        assert (RF_A * RF_Q) ** 3 == parse_value("a^3*q^3")

    def test_zeroth_power(self):
        assert parse_value("(q+a)/(q-1)") ** 0 == RF_ONE

    def test_zero_to_negative(self):
        with pytest.raises(DivisionByZero):
            RF_ZERO ** -1

    @given(nonzero_rationals, st.integers(-4, 4))
    @settings(max_examples=60, deadline=None)
    def test_pow_inverse(self, x, n):
        assert x**n * x**-n == RF_ONE

    @given(nonzero_rationals, st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_power_matches_general_constructor(self, x, n):
        assert x**n == RationalFunction(x.num**n, x.den**n)
        assert x**-n == RationalFunction(x.den**n, x.num**n)

    @given(nonzero_rationals)
    @settings(max_examples=100, deadline=None)
    def test_inverse_matches_general_constructor(self, x):
        assert x.inverse() == RationalFunction(x.den, x.num)

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 13])
    def test_power_forms_no_product_past_the_last_bit(self, monkeypatch, n):
        # Square-and-multiply: one square per bit after the first and one
        # product per set bit after the first, so p**8 never forms p**16.
        p = P("q + a + 1")
        expected = p
        for _ in range(n - 1):
            expected = expected * p
        products = []
        mul = Poly2.__mul__
        monkeypatch.setattr(Poly2, "__mul__", lambda x, y: products.append(1) or mul(x, y))
        result = p**n
        assert len(products) == n.bit_length() - 1 + bin(n).count("1") - 1
        assert result == expected


# -- substitution ---------------------------------------------------------

wide_coeffs = st.integers(-600, 600).filter(lambda c: c != 0)

single_terms = st.builds(
    lambda mono, c: Poly2({mono: c}),
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    wide_coeffs,
)


# -- reference canonical form over QQ ----------------------------------------
#
# The rational-coefficient canonicalization the integer field layer replaced:
# sympy's gcd and exact quotient over QQ[q, a], then one joint scaling through
# Fraction that clears denominators, divides out the content and makes the
# leading denominator coefficient positive.  It shares no conversion code
# with qvira.field.


def _qq_ring():
    from sympy.polys.domains import QQ
    from sympy.polys.rings import ring

    return ring("q,a", QQ)[0]


QQ_RING = _qq_ring()


def _qq(p: Poly2):
    return QQ_RING.from_dict({m: QQ_RING.domain(c) for m, c in p.terms.items()})


def _qq_leading_coeff(sp) -> Fraction:
    mono = max(sp.monoms(), key=lambda m: (m[0] + m[1], m[0]))
    c = sp[mono]
    return Fraction(int(c.numerator), int(c.denominator))


def _qq_canonical(sn, sd):
    if not sd:
        raise ZeroDivisionError("zero denominator")
    if not sn:
        return QQ_RING.zero, QQ_RING.one
    g = sn.gcd(sd)
    sn, sd = sn.exquo(g), sd.exquo(g)
    coeffs = [Fraction(int(c.numerator), int(c.denominator)) for c in sn.coeffs() + sd.coeffs()]
    lcm = math.lcm(*(c.denominator for c in coeffs))
    scale = Fraction(lcm, math.gcd(*(int(c * lcm) for c in coeffs)))
    if _qq_leading_coeff(sd) < 0:
        scale = -scale
    s = QQ_RING.domain(scale.numerator, scale.denominator)
    return sn.mul_ground(s), sd.mul_ground(s)


def _qq_to_rf(sn, sd) -> RationalFunction:
    def poly(sp):
        assert all(c.denominator == 1 for c in sp.coeffs())
        return Poly2({(int(m[0]), int(m[1])): int(c.numerator) for m, c in sp.terms()})

    return RationalFunction(poly(sn), poly(sd), _canonical=True)


def _general_canonical(num: Poly2, den: Poly2) -> tuple[Poly2, Poly2]:
    """Canonical form through the QQ reference."""
    x = _qq_to_rf(*_qq_canonical(_qq(num), _qq(den)))
    return x.num, x.den


# An expression tree is an int (a literal), "q" or "a", ("-", child) for
# negation, ("^", base, exponent), or (op, left, right) for op in + - * /.


def _text(tree) -> str:
    """The tree written out, every operand of an operator parenthesized."""
    if not isinstance(tree, tuple):
        return str(tree)
    if len(tree) == 2:
        return f"-({_text(tree[1])})"
    op, left, right = tree
    if op == "^":
        return f"({_text(left)})^{right}"
    return f"({_text(left)}){op}({_text(right)})"


def _qq_evaluate(tree):
    """An expression tree evaluated in the QQ reference, canonical at each step."""
    if isinstance(tree, int):
        return _qq_canonical(QQ_RING(tree), QQ_RING.one)
    if isinstance(tree, str):
        return QQ_RING.gens[0 if tree == "q" else 1], QQ_RING.one
    if len(tree) == 2:
        n, d = _qq_evaluate(tree[1])
        return -n, d
    op, left, right = tree
    if op == "^":
        n, d = _qq_evaluate(left)
        if right == 0:
            return QQ_RING.one, QQ_RING.one
        if right < 0:
            n, d, right = d, n, -right
        return _qq_canonical(n**right, d**right)
    n1, d1 = _qq_evaluate(left)
    n2, d2 = _qq_evaluate(right)
    if op == "+":
        return _qq_canonical(n1 * d2 + n2 * d1, d1 * d2)
    if op == "-":
        return _qq_canonical(n1 * d2 - n2 * d1, d1 * d2)
    if op == "*":
        return _qq_canonical(n1 * n2, d1 * d2)
    return _qq_canonical(n1 * d2, d1 * n2)


@st.composite
def trees(draw, depth=4):
    """Expression trees drawn as selftest's serialization fuzzer draws its
    texts: a leaf (integer 0..9, q or a) at depth 0 or with chance 0.3,
    otherwise negation, a power -3..3 or one of the four binary operators."""
    if depth == 0 or draw(st.integers(0, 9)) < 3:
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return draw(st.integers(0, 9))
        return "q" if choice == 1 else "a"
    choice = draw(st.integers(0, 5))
    if choice == 0:
        return ("-", draw(trees(depth - 1)))
    if choice == 1:
        return ("^", draw(trees(depth - 1)), draw(st.integers(-3, 3)))
    return ("+-*/"[choice - 2], draw(trees(depth - 1)), draw(trees(depth - 1)))


class TestIntegerCoefficients:
    def test_fraction_coefficient_rejected(self):
        with pytest.raises(TypeError):
            Poly2({(0, 0): Fraction(1, 2)})

    # Explicit cases for each branch of the normalization, which small random
    # trees seldom reach: a joint content left after a monomial gcd, an
    # integer content inside a non-monomial gcd, a negative leading
    # denominator coefficient, a non-monomial gcd, and the monomial/monomial
    # shortcut with both signs negative.
    @given(trees())
    @example(("/", ("+", ("*", 2, "q"), 2), ("*", 4, "a")))  # (2*q+2)/(4*a)
    @example(("/", ("+", ("*", 2, "q"), 2), ("+", ("*", 2, "a"), 2)))  # (2*q+2)/(2*a+2)
    @example(("/", 1, ("-", 1, "q")))  # 1/(1-q)
    @example(("/", ("-", ("^", "q", 2), 1), ("-", 2, ("*", 2, "q"))))  # (q^2-1)/(2-2*q)
    @example(("/", ("*", ("-", 2), "q"), ("*", ("-", 4), "a")))  # (-2*q)/(-4*a)
    @settings(max_examples=500, deadline=None)
    def test_evaluate_matches_qq_reference(self, tree):
        try:
            value = parse_value(_text(tree))
        except DivisionByZero:
            with pytest.raises(ZeroDivisionError):
                _qq_evaluate(tree)
            return
        except ValueTooLarge:
            return  # a step above the size caps; tests/test_expr.py covers those
        assert print_canonical(value) == print_canonical(_qq_to_rf(*_qq_evaluate(tree)))


class TestMonomialShortcuts:
    @given(single_terms, single_terms)
    @settings(max_examples=200, deadline=None)
    def test_canonicalize_matches_general_gcd(self, num, den):
        x = RationalFunction(num, den)
        assert (x.num, x.den) == _general_canonical(num, den)

    @given(single_terms, st.integers(0, 7))
    @settings(max_examples=200, deadline=None)
    def test_power_matches_repeated_squaring(self, p, n):
        expected, base, e = Poly2.const(1), p, n
        while e:
            if e & 1:
                expected = expected * base
            base = base * base
            e >>= 1
        assert p**n == expected


non_monomial_polys = st.dictionaries(monomials, coeffs, min_size=2, max_size=3).map(Poly2)
contents = st.builds(
    lambda k, mono: Poly2({mono: k}),
    st.sampled_from([1, 1, 2, 3, 6, -1, -2, -4]),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
)


@st.composite
def operand_pairs(draw):
    """x = a/b and y = c/d, canonical, built from factors shared between a
    and d, c and b, and b and d, with integer and monomial contents and
    either sign; sometimes y = z - x, so that x + y reduces to z."""
    f_ad, f_cb, f_bd = (draw(non_monomial_polys) for _ in range(3))
    a, b, c, d = (draw(contents) * draw(nonzero_polys) for _ in range(4))
    x = RationalFunction(a * f_ad, b * f_cb * f_bd)
    y = RationalFunction(c * f_cb, d * f_ad * f_bd)
    if draw(st.booleans()):
        z = RationalFunction(draw(contents) * draw(nonzero_polys), d * f_bd)
        y = RationalFunction(z.num * x.den - x.num * z.den, z.den * x.den)
    return x, y


class TestCrossCancellation:
    """x * y, x / y, x + y and x - y reduce operands the constructor had
    already reduced; each must equal the canonical form of the unreduced
    pair, by the constructor and by the QQ reference."""

    @staticmethod
    def unreduced(x, y, op):
        if op == "*":
            return x.num * y.num, x.den * y.den
        if op == "/":
            return x.num * y.den, x.den * y.num
        cross = y.num * x.den
        return x.num * y.den + (cross if op == "+" else -cross), x.den * y.den

    @given(operand_pairs())
    # Denominators meeting in (q+1): 1/(q(q+1)) + 1/(q+1) = 1/q.
    @example((parse_value("1/(q^2+q)"), parse_value("1/(q+1)")))
    # Integer content left after both cross gcds: (2q+2)/(3a) * 3/(4q+4).
    @example((parse_value("(2*q+2)/(3*a)"), parse_value("3/(4*q+4)")))
    # A negative swapped denominator: 1/(q+a) / ((1-q)/(q+a)).
    @example((parse_value("1/(q+a)"), parse_value("(1-q)/(q+a)")))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_unreduced_pair(self, pair):
        x, y = pair
        results = {"*": x * y, "+": x + y, "-": x - y}
        if not y.is_zero:
            results["/"] = x / y
        for op, result in results.items():
            num, den = self.unreduced(x, y, op)
            general = RationalFunction(num, den)
            assert (result.num, result.den) == (general.num, general.den), op
            assert (result.num, result.den) == _general_canonical(num, den), op


class TestSubstitute:
    CTX = FieldContext.numeric(2, 3)

    def test_product_value(self):
        x = parse_value("(q-1)*(a+1)/q")
        assert substitute(x, self.CTX) == rf_int(2)

    def test_q_plus_inverse(self):
        assert substitute(parse_value("q + q^-1"), self.CTX) == parse_value("5/2")

    def test_pole(self):
        ctx = FieldContext.numeric(Fraction(1, 2), 1)
        with pytest.raises(PoleAtPoint):
            substitute(parse_value("1/(2*q-1)"), ctx)

    def test_forbidden_contexts(self):
        for q0 in (0, 1, -1):
            with pytest.raises(ValueError):
                FieldContext.numeric(q0, 1)
        with pytest.raises(ValueError):
            FieldContext.numeric(2, 0)

    @given(rationals, rationals)
    @settings(max_examples=60, deadline=None)
    def test_homomorphism(self, x, y):
        try:
            sx = substitute(x, self.CTX)
            sy = substitute(y, self.CTX)
            sxy = substitute(x * y, self.CTX)
            sxpy = substitute(x + y, self.CTX)
        except PoleAtPoint:
            return
        assert sxy == sx * sy
        assert sxpy == sx + sy

    @given(st.integers(-20, 20).filter(lambda n: n != 0))
    def test_genericity(self, n):
        assert substitute(q_pow(n), self.CTX) != RF_ONE


# -- gcd ------------------------------------------------------------------

class TestPolyGcd:
    def test_shared_factor(self):
        assert poly_gcd(P("q^2-1"), P("q^2-2*q+1")) == P("q-1")

    def test_monomials(self):
        assert poly_gcd(P("q*a"), P("q^2")) == P("q")

    def test_gcd_with_zero(self):
        assert poly_gcd(P("q+a"), Poly2.zero()) == P("q+a")

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=40, deadline=None)
    def test_divides_both(self, p, r):
        g = poly_gcd(p, r)
        poly_exact_div(p, g)
        poly_exact_div(r, g)


# -- native gcd and exact division against sympy --------------------------
#
# sympy's ZZ[q, a] is the oracle: its gcd and its division with remainder.


def _zz_ring():
    from sympy.polys.domains import ZZ
    from sympy.polys.rings import ring

    return ring("q,a", ZZ)[0]


ZZ_RING = _zz_ring()


def _zz(p: Poly2):
    return ZZ_RING.from_dict(p.terms)


def _from_zz(sp) -> Poly2:
    return Poly2({(int(m[0]), int(m[1])): int(c) for m, c in sp.terms()})


def _zz_gcd(p: Poly2, r: Poly2) -> Poly2:
    """sympy's gcd with content 1 and a positive lead in the fixed order."""
    g = _from_zz(_zz(p).gcd(_zz(r)).primitive()[1])
    return g if g.leading_coeff() > 0 else -g


# Coefficients of a few bits, and of 2,000 to 2,048 bits.
mixed_coeffs = st.one_of(
    coeffs,
    st.builds(lambda s, c: s * c, st.sampled_from([1, -1]), st.integers(2**2000, 2**2048)),
)
factors = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), mixed_coeffs, min_size=1, max_size=3
).map(Poly2)
units_and_contents = st.builds(
    lambda k, mono: Poly2({mono: k}),
    st.sampled_from([1, -1, 2, -3, 6, 2**2001 + 1]),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
)


@st.composite
def gcd_pairs(draw):
    """f = m u x and g = m' u y: a shared factor u, cofactors x and y, and
    m, m' monomials with integer content, which may be -1 or 1."""
    u, x, y = draw(factors), draw(factors), draw(factors)
    return draw(units_and_contents) * u * x, draw(units_and_contents) * u * y


class TestNativeAgainstSympy:
    """poly_gcd (GCDHEU, then the PRS), the PRS alone and poly_exact_div
    give sympy's answers on the same inputs."""

    # In the first two examples f vanishes at the first xi, a = 87 or a = 83,
    # and a later xi decides.  In the third the heuristic's first candidate,
    # q + 9 (times a^2), divides neither input; only the trial division turns
    # it down.
    @given(gcd_pairs())
    @example((P("a - 87"), P("q - 29")))
    @example((P("(a - 83)*(q^2 - 26*q - 27)"), P("q^2 - 26*q - 27")))
    @example((P("8*q^2*a^2 - 8*a^2"), P("-9*q^2*a^3 - a^4")))
    @example((P("(q^2 - 1)*(q + a)"), P("(q - 1)*(q + a)^2")))
    @settings(max_examples=200, deadline=None)
    def test_gcd(self, pair):
        f, g = pair
        expected = _zz_gcd(f, g)
        assert poly_gcd(f, g) == expected
        assert _prs_gcd(f, g) == expected

    @given(gcd_pairs(), factors)
    @example((P("q^2 + 1"), P("q + 1")), P("1"))
    @settings(max_examples=200, deadline=None)
    def test_exact_division(self, pair, e):
        # f is a multiple of g; f + e mostly is not.
        f, g = pair[0] * pair[1], pair[1]
        assert poly_exact_div(f, g) == _from_zz(_zz(f).exquo(_zz(g)))
        quotient, remainder = _zz(f + e).div(_zz(g))
        if remainder:
            with pytest.raises(ValueError):
                poly_exact_div(f + e, g)
        else:
            assert poly_exact_div(f + e, g) == _from_zz(quotient)
