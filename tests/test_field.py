import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qvira.field import (
    DivisionByZero,
    FieldContext,
    NotQuadratic,
    PoleAtPoint,
    Poly2,
    RF_A,
    RF_ONE,
    RF_Q,
    RF_ZERO,
    RationalFunction,
    RepeatedRoot,
    RootsNotInField,
    TwoRoots,
    ZeroDenominator,
    normalize,
    poly_gcd,
    poly_sqrt,
    q_pow,
    rf_int,
    solve_quadratic,
    substitute,
)
from qvira.field import _from_sympy, _to_sympy
from qvira.expr import parse_value


def P(text: str) -> Poly2:
    value = parse_value(text)
    assert value.den == Poly2.const(1)
    return value.num


# -- strategies -----------------------------------------------------------

coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
).filter(lambda f: f != 0)

monomials = st.tuples(st.integers(0, 2), st.integers(0, 2))

polys = st.dictionaries(monomials, coeffs, max_size=3).map(Poly2)

nonzero_polys = polys.filter(lambda p: not p.is_zero)

rationals = st.builds(normalize, polys, nonzero_polys)

nonzero_rationals = rationals.filter(lambda x: not x.is_zero)


# -- normalize ------------------------------------------------------------

class TestNormalize:
    def test_difference_of_squares(self):
        assert normalize(P("q^2 - 1"), P("q - 1")) == parse_value("q + 1")

    def test_zero_numerator(self):
        assert normalize(Poly2.zero(), P("q + a")) == RF_ZERO

    def test_common_factor_and_content(self):
        assert normalize(P("2*q*a"), P("4*q")) == parse_value("a/2")

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            normalize(P("q"), Poly2.zero())

    @given(polys, nonzero_polys, nonzero_polys)
    @settings(max_examples=60, deadline=None)
    def test_common_factor_cancels(self, p, q, x):
        assert normalize(p * x, q * x) == normalize(p, q)

    @given(rationals)
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, x):
        assert normalize(x.num, x.den) == x
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


# -- substitution ---------------------------------------------------------

wide_coeffs = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
).filter(lambda f: f != 0)

single_terms = st.builds(
    lambda mono, c: Poly2({mono: c}),
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    wide_coeffs,
)


def _general_canonical(num: Poly2, den: Poly2) -> tuple[Poly2, Poly2]:
    """Canonical form through sympy's polynomial gcd and exact quotient."""
    sn, sd = _to_sympy(num), _to_sympy(den)
    g = sn.gcd(sd)
    num, den = _from_sympy(sn.exquo(g)), _from_sympy(sd.exquo(g))
    coeffs = list(num.terms.values()) + list(den.terms.values())
    lcm = math.lcm(*(c.denominator for c in coeffs))
    scale = Fraction(lcm, math.gcd(*(int(c * lcm) for c in coeffs)))
    if den.leading_coeff() < 0:
        scale = -scale
    return num.scale(scale), den.scale(scale)


class TestMonomialShortcuts:
    @given(single_terms, single_terms)
    @settings(max_examples=200, deadline=None)
    def test_canonicalize_matches_general_gcd(self, num, den):
        x = normalize(num, den)
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


# -- gcd and square root --------------------------------------------------

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
        from qvira.field import poly_exact_div

        g = poly_gcd(p, r)
        poly_exact_div(p, g)
        poly_exact_div(r, g)


class TestPolySqrt:
    def test_perfect_square(self):
        assert poly_sqrt(P("q^2 + 2*q*a + a^2")) == P("q + a")

    def test_odd_degree(self):
        assert poly_sqrt(P("q")) is None

    def test_scalar_square(self):
        assert poly_sqrt(P("4*q^2")) == P("2*q")

    @given(nonzero_polys)
    @settings(max_examples=40, deadline=None)
    def test_square_then_root(self, p):
        root = poly_sqrt(p * p)
        assert root is not None
        assert root * root == p * p


# -- quadratics -----------------------------------------------------------

class TestSolveQuadratic:
    def test_roots_q_and_inverse(self):
        # expand (x - q)(x - 1/q): coefficients 1, -(q + 1/q), 1
        beta = -(RF_Q + RF_Q.inverse())
        result = solve_quadratic(RF_ONE, beta, RF_ONE)
        assert isinstance(result, TwoRoots)
        assert result.r1 == RF_Q
        assert result.r2 == RF_Q.inverse()

    def test_repeated_root(self):
        result = solve_quadratic(RF_ONE, rf_int(2), RF_ONE)
        assert result == RepeatedRoot(rf_int(-1))

    def test_roots_not_in_field(self):
        assert isinstance(solve_quadratic(RF_ONE, RF_ZERO, -RF_Q), RootsNotInField)

    def test_not_quadratic(self):
        with pytest.raises(NotQuadratic):
            solve_quadratic(RF_ZERO, RF_ONE, RF_ONE)

    @given(nonzero_rationals, rationals, rationals)
    @settings(max_examples=40, deadline=None)
    def test_roots_satisfy_equation(self, alpha, beta, gamma):
        result = solve_quadratic(alpha, beta, gamma)
        if isinstance(result, TwoRoots):
            roots = [result.r1, result.r2]
            assert result.r1 != result.r2
        elif isinstance(result, RepeatedRoot):
            roots = [result.root]
        else:
            return
        for r in roots:
            assert alpha * r * r + beta * r + gamma == RF_ZERO

    @given(nonzero_rationals, rationals, rationals)
    @settings(max_examples=40, deadline=None)
    def test_reconstruction(self, alpha, beta, gamma):
        result = solve_quadratic(alpha, beta, gamma)
        if isinstance(result, TwoRoots):
            # alpha (x - r1)(x - r2) recovers the coefficients
            assert alpha * (result.r1 + result.r2) == -beta
            assert alpha * result.r1 * result.r2 == gamma
