import pytest
from hypothesis import given, settings, strategies as st

from qvira.algebra import (
    AlgebraElement,
    ElementSyntaxError,
    basis_indices,
    bracket,
    component_of_degree,
    degrees,
    parse_element,
    print_element,
    random_element,
)
from qvira.expr import ValueTooLarge, parse_value
from qvira.families import GradedVector
from qvira.field import RF_A, RF_ONE, RF_Q, RF_ZERO, q_pow, rf_int


def B(h, j, coeff=RF_ONE):
    return AlgebraElement.basis(h, j, coeff)


class TestBracket:
    def test_basis_bracket_scalar(self):
        # [t1 t2, t1^2] = (q^{1*2} - q^{1*0}) t1^3 t2
        result = bracket(B(1, 1), B(2, 0))
        assert result == B(3, 1, q_pow(2) - RF_ONE)

    def test_commuting_pair_vanishes(self):
        # jm = hn makes the scalar zero
        assert bracket(B(1, 1), B(2, 2)).is_zero

    def test_target_at_excluded_index_vanishes(self):
        # indices summing to (0, 0) always carry scalar q^{jm} - q^{hn} = 0
        assert bracket(B(2, -1), B(-2, 1)).is_zero

    def test_self_bracket_zero(self):
        x = B(1, 2) + B(-1, 0, RF_A)
        assert bracket(x, x).is_zero

    def test_bilinearity(self):
        x, y, z = B(1, 0), B(0, 1), B(-1, 2)
        c = parse_value("q^2 - a")
        lhs = bracket(x.scale(c) + y, z)
        rhs = bracket(x, z).scale(c) + bracket(y, z)
        assert lhs == rhs

    COEFFS = [RF_ONE, rf_int(-2), RF_Q, RF_A, parse_value("q + 1")]

    @given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_antisymmetry_and_jacobi(self, s1, s2, s3):
        x = random_element(s1, 3, self.COEFFS)
        y = random_element(s2, 3, self.COEFFS)
        z = random_element(s3, 3, self.COEFFS)
        assert bracket(x, y) == -bracket(y, x)
        jacobi = (
            bracket(x, bracket(y, z))
            + bracket(y, bracket(z, x))
            + bracket(z, bracket(x, y))
        )
        assert jacobi.is_zero


class TestGrading:
    def test_bracket_adds_degrees(self):
        result = bracket(B(2, 1), B(3, 0))
        assert degrees(result) == [5]

    def test_component_projection(self):
        x = B(1, 0) + B(1, 2) + B(-2, 1)
        assert component_of_degree(x, 1) == B(1, 0) + B(1, 2)
        assert component_of_degree(x, 0).is_zero
        assert sum(
            (component_of_degree(x, u) for u in degrees(x)), AlgebraElement.zero()
        ) == x


class TestElementStructure:
    def test_excluded_basis_index(self):
        with pytest.raises(ValueError):
            AlgebraElement({(0, 0): RF_ONE})

    def test_cancellation_drops_term(self):
        assert (B(1, 1) - B(1, 1)).is_zero

    def test_random_element_deterministic(self):
        pool = [RF_ONE, RF_Q]
        assert random_element(42, 3, pool) == random_element(42, 3, pool)
        assert random_element(42, 3, pool) != random_element(43, 3, pool)

    def test_basis_indices_order_on_asymmetric_box(self):
        assert basis_indices((-1, 0), (0, 2)) == [
            (-1, 0), (-1, 1), (-1, 2), (0, 1), (0, 2),
        ]
        assert basis_indices((0, 0), (0, 0)) == []

    def test_random_element_respects_bounds(self):
        x = random_element(7, 2, [RF_ONE], max_terms=3)
        assert 1 <= len(x.terms) <= 3
        for h, j in x.terms:
            assert -2 <= h <= 2 and -2 <= j <= 2


class TestCombination:
    """AlgebraElement and GradedVector share one linear-combination type."""

    def test_element_never_equals_vector(self):
        assert AlgebraElement.basis(1, 0) != GradedVector.basis(1)
        assert GradedVector.basis(1) != AlgebraElement.basis(1, 0)

    @pytest.mark.parametrize("item", [B(1, 2, RF_Q), GradedVector.basis(3, RF_Q)])
    def test_scale_by_zero_keeps_the_type(self, item):
        zero = item.scale(RF_ZERO)
        assert type(zero) is type(item)
        assert zero.is_zero

    def test_vectors_hash_by_value(self):
        assert len({GradedVector.basis(1), GradedVector.basis(1, RF_ONE)}) == 1

    def test_excluded_basis_index_with_zero_coefficient(self):
        with pytest.raises(ValueError):
            AlgebraElement({(0, 0): RF_ZERO})


class TestTextSyntax:
    def test_parse_simple_sum(self):
        x = parse_element("3*t[1,2] + (q^2-1)*t[-1,0]")
        assert x == B(1, 2, rf_int(3)) + B(-1, 0, parse_value("q^2-1"))

    def test_bare_and_negated_monomials(self):
        assert parse_element("t[1,0] - t[0,1]") == B(1, 0) + B(0, 1, rf_int(-1))

    def test_zero_literal(self):
        assert parse_element("0").is_zero

    def test_repeated_monomial_merges(self):
        assert parse_element("t[1,0] + t[1,0]") == B(1, 0, rf_int(2))

    def test_print_sorted_and_parenthesized(self):
        x = B(1, 0, parse_value("q+1")) + B(-1, 2, rf_int(3)) + B(0, 1)
        assert print_element(x) == "3*t[-1,2] + t[0,1] + (q + 1)*t[1,0]"

    def test_print_zero(self):
        assert print_element(AlgebraElement.zero()) == "0"

    def test_term_count_cap(self):
        assert len(parse_element("t[1,1] + t[2,1] - t[3,1]").terms) == 3
        with pytest.raises(ValueTooLarge, match="an element has 4 terms, above the cap of 3"):
            parse_element("t[1,1] + t[2,1] - t[3,1] + (q+")

    @pytest.mark.parametrize(
        "text", ["t[0,0]", "t[1]", "q^2", "t[1,2] +", "t[1,x]", "2*"]
    )
    def test_rejected(self, text):
        with pytest.raises(ElementSyntaxError):
            parse_element(text)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, seed):
        pool = [RF_ONE, rf_int(-2), RF_Q, RF_A, parse_value("q + 1"), parse_value("a/q")]
        x = random_element(seed, 4, pool)
        assert parse_element(print_element(x)) == x
