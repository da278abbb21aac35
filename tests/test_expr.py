import pytest
from hypothesis import given, settings, strategies as st

from qvira.expr import (
    BinOp,
    ExprSyntaxError,
    IntLiteral,
    Neg,
    Pow,
    PowerTooLarge,
    Var,
    evaluate,
    parse_expr,
    parse_value,
    power_bounds,
    print_canonical,
)
from qvira.field import RF_A, RF_ONE, RF_Q, RF_ZERO, Poly2, RationalFunction, q_pow, rf_int


class TestParsing:
    def test_precedence_pow_over_mul(self):
        # q^2*a parses as (q^2)*a, not q^(2*a)
        assert parse_value("q^2*a") == RF_Q**2 * RF_A

    def test_precedence_mul_over_add(self):
        assert parse_value("1 + 2*q") == RF_ONE + rf_int(2) * RF_Q

    def test_unary_minus_binds_below_pow(self):
        # -q^2 is -(q^2)
        assert parse_value("-q^2") == -(RF_Q**2)

    def test_negative_exponent_literal(self):
        assert parse_value("q^-3") == q_pow(-3)

    def test_parentheses(self):
        assert parse_value("(1+q)^2") == (RF_ONE + RF_Q) ** 2

    def test_division_chain_left_assoc(self):
        assert parse_value("8/2/2") == rf_int(2)

    def test_whitespace_insensitive(self):
        assert parse_value("  q +   a ") == parse_value("q+a")

    def test_ast_shape(self):
        ast = parse_expr("q + 2")
        assert ast == BinOp("+", Var("q"), IntLiteral(2))
        assert parse_expr("-a") == Neg(Var("a"))
        assert parse_expr("q^-1") == Pow(Var("q"), -1)


class TestErrors:
    @pytest.mark.parametrize(
        "text", ["", "q +", "(q", "q^a", "q^(2)", "1 2", "x", "q**2", "3..5"]
    )
    def test_rejected(self, text):
        with pytest.raises(ExprSyntaxError):
            parse_value(text)

    def test_error_position_is_one_based(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_value("q + $")
        assert info.value.position == 5

    def test_division_by_zero_value(self):
        from qvira.field import DivisionByZero

        with pytest.raises(DivisionByZero):
            parse_value("1/(q - q)")


class TestPowerCaps:
    @pytest.mark.parametrize(
        "text",
        ["q^999*q^999", "2^1000", "(2*q)^-1000", "(q+1)^999", "(q+a+1)^43", "((q+a+1)^3)^14",
         "((1+q+a+q^12)^3)^3"],
    )
    def test_at_the_caps(self, text):
        parse_value(text)

    @pytest.mark.parametrize(
        "text, value",
        [("q^100000", q_pow(100000)),
         ("(-q/a)^-5001", -(RF_A / RF_Q) ** 5001),
         ("(q^3*a^-2)^2000", q_pow(6000) / RF_A**4000),
         ("(-1)^1000001", rf_int(-1))],
    )
    def test_unit_monomial_powers_are_uncapped(self, text, value):
        # A power of +-1 times a monomial over a monomial costs O(1).
        assert parse_value(text) == value

    @pytest.mark.parametrize(
        "text, message",
        [("(q+1)^-3000", "exponent -3000 is above the cap of 1000"),
         ("(2*q)^1001", "exponent 1001 is above the cap of 1000"),
         ("(q/2)^-1001", "exponent -1001 is above the cap of 1000"),
         ("(q+a+1)^44", "a power of up to 1035 terms is above the cap of 1000"),
         ("((q+a+1)^3)^15", "a power of up to 1081 terms is above the cap of 1000"),
         ("(1/(q+a+1))^44", "a power of up to 1035 terms is above the cap of 1000"),
         ("5^1000", "coefficients of up to 2322 bits is above the cap of 2048"),
         ("(3*q+2*a)^900", "coefficients of up to 2090 bits is above the cap of 2048")],
    )
    def test_over_the_caps(self, text, message):
        with pytest.raises(PowerTooLarge) as info:
            parse_value(text)
        assert message in str(info.value)

    def test_cap_is_checked_before_the_power_is_expanded(self, monkeypatch):
        expanded = []
        pow_ = RationalFunction.__pow__
        monkeypatch.setattr(
            RationalFunction, "__pow__", lambda x, n: expanded.append(n) or pow_(x, n)
        )
        q_plus_1 = BinOp("+", Var("q"), IntLiteral(1))
        with pytest.raises(PowerTooLarge, match="exponent 5000"):
            evaluate(Pow(Pow(q_plus_1, 2), 5000))
        with pytest.raises(PowerTooLarge, match="1035 terms"):
            evaluate(Pow(BinOp("+", q_plus_1, Var("a")), 44))
        assert expanded == [2]

    @pytest.mark.parametrize(
        "value",
        [q_pow(1218), q_pow(-2400) * RF_A**1500, -(RF_A**3000) / q_pow(1001),
         q_pow(5000) + RF_A**-1200],
    )
    def test_printed_values_parse_back_above_the_exponent_cap(self, value):
        assert parse_value(print_canonical(value)) == value

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.integers(-9, 9).filter(bool),
            max_size=4,
        ),
        st.integers(0, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds_hold(self, terms, n):
        p = Poly2(terms)
        term_bound, bit_bound = power_bounds(p, n)
        power = p**n
        assert len(power.terms) <= term_bound
        assert max((abs(c).bit_length() for c in power.terms.values()), default=0) <= bit_bound

    def test_term_bound_is_exact_for_dense_powers(self):
        assert power_bounds(parse_value("q + 1").num, 999) == (1000, 1000)
        assert power_bounds(parse_value("q + a + 1").num, 43)[0] == 990
        assert power_bounds(parse_value("q^5 + 1").num, 10)[0] == 11
        for text, n in [("(1 + q + a)^2", 12), ("(q + 1)*(a + 1)", 30), ("q^2*a + a^-1 + q^-3", 5)]:
            p = parse_value(text).num
            assert power_bounds(p, n)[0] == len((p**n).terms)


class TestPrinting:
    def test_polynomial_term_order(self):
        # total degree descending, then q-degree descending
        assert print_canonical(parse_value("1 + a + q^2*a + q")) == "q^2*a + q + a + 1"

    def test_fraction_layout(self):
        assert print_canonical(parse_value("(q+1)/(q-1)")) == "(q + 1)/(q - 1)"

    def test_integer_and_zero(self):
        assert print_canonical(rf_int(-7)) == "-7"
        assert print_canonical(RF_ZERO) == "0"

    def test_unit_coefficients_suppressed(self):
        assert print_canonical(RF_Q * RF_A) == "q*a"
        assert print_canonical(-RF_A) == "-a"

    def test_fractional_scalar(self):
        assert print_canonical(parse_value("q/2")) == "(q)/(2)"


class TestRoundTrip:
    CASES = [
        "q", "a", "0", "1", "-1", "q^5*a^3", "(q^2 - 1)/(q*a)",
        "q + q^-1", "(1+q)^2/q", "-3*a/(2*q - 5)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_print_parse(self, text):
        value = parse_value(text)
        printed = print_canonical(value)
        assert parse_value(printed) == value
        # printing is a fixed point after one round
        assert print_canonical(parse_value(printed)) == printed


asts = st.deferred(
    lambda: st.one_of(
        st.integers(-9, 9).map(IntLiteral),
        st.sampled_from(["q", "a"]).map(Var),
        st.builds(Neg, asts),
        st.builds(BinOp, st.sampled_from(["+", "-", "*"]), asts, asts),
        st.builds(Pow, asts, st.integers(0, 3)),
    )
)


class TestFuzz:
    @given(asts)
    @settings(max_examples=150, deadline=None)
    def test_evaluate_round_trips_through_text(self, ast):
        # Nested powers can exceed the power caps, which TestPowerCaps covers;
        # every value evaluate does return must read back.
        try:
            value = evaluate(ast)
        except PowerTooLarge:
            return
        assert parse_value(print_canonical(value)) == value
