from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qvira.algebra import AlgebraElement, bracket, random_element
from qvira.expr import parse_value
from qvira.families import (
    AxiomWitness,
    BadParameter,
    Family,
    FamilyModule,
    GradedVector,
    IndexZero,
    Irreducible,
    Reducible,
    action_coeff,
    act,
    check_graded_irreducible,
    closed_form_f,
    gen_table,
    verify_axiom,
)
from qvira.field import (
    FieldContext,
    RF_A,
    RF_ONE,
    RF_Q,
    RF_ZERO,
    q_pow,
    rf_int,
    sign_pow,
)
from qvira.table import TableDocument, specialize

NUMERIC = FieldContext.numeric(2, 3)


class TestActionCoeff:
    def test_family_I(self):
        assert action_coeff(Family.I, RF_A, 0, 2, 3) == parse_value("a^2*q^6")

    def test_family_II(self):
        assert action_coeff(Family.II, RF_A, 3, 1, 0) == parse_value("-a")

    def test_family_III(self):
        assert action_coeff(Family.III, RF_A, 0, 1, 2) == parse_value("a*q^-2")

    def test_family_IV(self):
        assert action_coeff(Family.IV, RF_A, 1, 1, 0) == parse_value("a*q^-1")

    def test_zero_column_is_sign_only(self):
        # j = 0 kills the a-dependence entirely
        assert action_coeff(Family.I, RF_A, 5, 0, -2) == RF_ONE
        assert action_coeff(Family.II, RF_A, 5, 0, -2) == rf_int(-1)

    def test_families_agree_on_even_slices(self):
        # I and II differ only by (-1)^m
        for m in (-2, -1, 1, 2):
            for n in (-1, 0, 1):
                assert action_coeff(Family.II, RF_A, m, n, 1) == sign_pow(
                    m
                ) * action_coeff(Family.I, RF_A, m, n, 1)

    def test_excluded_index(self):
        with pytest.raises(IndexZero):
            action_coeff(Family.I, RF_A, 0, 0, 1)

    def test_zero_parameter(self):
        with pytest.raises(BadParameter):
            action_coeff(Family.I, RF_ZERO, 1, 0, 0)
        with pytest.raises(BadParameter):
            FamilyModule(Family.I, RF_ZERO)


class TestActionCoeffInContext:
    """action_coeff in a numeric context builds its value from constants; it
    must equal the symbolic coefficient evaluated at the point."""

    @pytest.mark.parametrize("ctx", [NUMERIC, FieldContext.numeric(-2, 5),
                                     FieldContext.numeric(Fraction(1, 3), Fraction(-7, 2)),
                                     FieldContext.numeric(Fraction(-1, 3), 5)], ids=str)
    @pytest.mark.parametrize("a", ["a", "3", "q^2*a"])
    @pytest.mark.parametrize("family", list(Family))
    def test_equals_the_specialized_coefficient(self, family, a, ctx):
        a = parse_value(a)
        a0 = specialize(a, ctx)
        doc = TableDocument(ctx, (-6, 6), (1,) * 13, (-3, 3), (-3, 3))
        for m, n, k in doc.cells():
            expected = specialize(action_coeff(family, a, m, n, k), ctx)
            assert action_coeff(family, a0, m, n, k, ctx) == expected, (m, n, k)


class TestAct:
    def test_degree_shift(self):
        module = FamilyModule(Family.I, RF_A)
        out = act(module, AlgebraElement.basis(2, 1), GradedVector.basis(3))
        assert out == GradedVector.basis(5, RF_A * q_pow(3))

    def test_linearity(self):
        module = FamilyModule(Family.III, RF_A)
        x = AlgebraElement.basis(1, 0) + AlgebraElement.basis(0, 1, RF_Q)
        v = GradedVector.basis(0) + GradedVector.basis(2, rf_int(5))
        expected = (
            act(module, AlgebraElement.basis(1, 0), v)
            + act(module, AlgebraElement.basis(0, 1), v).scale(RF_Q)
        )
        assert act(module, x, v) == expected


class TestAxiom:
    @pytest.mark.parametrize("family", list(Family))
    def test_basis_triples_pass(self, family):
        module = FamilyModule(family, RF_A)
        for (hx, jx), (hy, jy), k in [
            ((1, 0), (0, 1), 0),
            ((2, -1), (-1, 2), 3),
            ((-1, -1), (1, 2), -2),
        ]:
            witness = verify_axiom(
                module,
                AlgebraElement.basis(hx, jx),
                AlgebraElement.basis(hy, jy),
                GradedVector.basis(k),
            )
            assert witness is None

    def test_corrupted_action_detected(self):
        # the axiom is strong enough to reject a wrong parameter pairing:
        # mix coefficients of two different modules inside one action
        module = FamilyModule(Family.I, RF_A)
        x = AlgebraElement.basis(1, 1)
        y = AlgebraElement.basis(0, 1)
        v = GradedVector.basis(0)
        good = verify_axiom(module, x, y, v)
        assert good is None
        lhs = act(module, bracket(x, y), v)
        tampered = lhs.scale(RF_Q)
        assert tampered != lhs

    @given(
        st.sampled_from(list(Family)),
        st.integers(-2, 2),
        st.integers(-2, 2),
        st.integers(-2, 2),
        st.integers(-2, 2),
        st.integers(-3, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_axiom_property(self, family, hx, jx, hy, jy, k):
        if (hx, jx) == (0, 0) or (hy, jy) == (0, 0):
            return
        module = FamilyModule(family, RF_A)
        witness = verify_axiom(
            module,
            AlgebraElement.basis(hx, jx),
            AlgebraElement.basis(hy, jy),
            GradedVector.basis(k),
        )
        assert witness is None


# Reference action and axiom check, written from action_coeff and the
# defining bracket alone: no memo, one GradedVector addition per term, and
# subtraction as addition of the (-1)-scaled vector.
def reference_act(module, x, v):
    out = GradedVector()
    for (m, n), cx in x.terms.items():
        for k, cv in v.terms.items():
            coeff = action_coeff(module.family, module.a, m, n, k) * cx * cv
            out = out + GradedVector({k + m: coeff})
    return out


def reference_bracket(x, y):
    out = AlgebraElement()
    for (h, j), cx in x.terms.items():
        for (m, n), cy in y.terms.items():
            scalar = q_pow(j * m) - q_pow(h * n)
            if (h + m, j + n) != (0, 0):
                out = out + AlgebraElement.basis(h + m, j + n, cx * cy * scalar)
    return out


def reference_sides(module, x, y, v):
    lhs = reference_act(module, reference_bracket(x, y), v)
    rhs = reference_act(module, x, reference_act(module, y, v)) + reference_act(
        module, y, reference_act(module, x, v)
    ).scale(rf_int(-1))
    return lhs, rhs


PARAMETERS = ("a", "q^-3", "-1", "(q+1)/a")
COEFF_POOL = tuple(parse_value(text) for text in ("2", "-3", "q", "a + 1", "(q - 1)/a", "-q^-2*a"))


def multi_degree_vector(seed):
    # Three degrees in [-3, 3] with non-unit coefficients from the pool.
    degrees = sorted({(seed * 5 + i * 3) % 7 - 3 for i in range(3)})
    return GradedVector(
        {k: COEFF_POOL[(seed + i) % len(COEFF_POOL)] for i, k in enumerate(degrees)}
    )


class TestMemoizedAction:
    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("param", PARAMETERS)
    def test_act_matches_reference(self, family, param):
        module = FamilyModule(family, parse_value(param))
        for seed in range(6):
            x = random_element(seed, 2, COEFF_POOL, max_terms=4)
            v = multi_degree_vector(seed)
            # Twice on the same module: once filling the memo, once reading it.
            for _ in range(2):
                assert act(module, x, v) == reference_act(module, x, v)

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("param", PARAMETERS)
    def test_verify_axiom_matches_reference(self, family, param):
        module = FamilyModule(family, parse_value(param))
        for seed in range(4):
            x = random_element(2 * seed, 2, COEFF_POOL, max_terms=3)
            y = random_element(2 * seed + 1, 2, COEFF_POOL, max_terms=3)
            v = multi_degree_vector(seed)
            assert bracket(x, y) == reference_bracket(x, y)
            lhs, rhs = reference_sides(module, x, y, v)
            assert lhs == rhs  # every family is a module
            assert verify_axiom(module, x, y, v) is None

    def test_perturbed_coefficient_is_caught(self):
        class Perturbed(FamilyModule):
            def coeff(self, m, n, k):
                value = super().coeff(m, n, k)
                return value + RF_ONE if (m, n, k) == (1, 0, 0) else value

        # [t[1,0], t[0,1]] = (1 - q) t[1,1]; on v_0 both sides read f(1,0,0).
        x, y, v = AlgebraElement.basis(1, 0), AlgebraElement.basis(0, 1), GradedVector.basis(0)
        assert verify_axiom(FamilyModule(Family.I, RF_A), x, y, v) is None
        module = Perturbed(Family.I, RF_A)
        for _ in range(2):  # the second call reads the perturbed value from the memo
            witness = verify_axiom(module, x, y, v)
            assert isinstance(witness, AxiomWitness)
            assert witness.lhs == GradedVector.basis(1, RF_A * (RF_ONE - RF_Q))
            assert witness.rhs == witness.lhs.scale(rf_int(2))

    def test_memo_is_not_part_of_the_value(self):
        used, fresh = FamilyModule(Family.I, RF_A), FamilyModule(Family.I, RF_A)
        act(used, AlgebraElement.basis(1, 1) + AlgebraElement.basis(0, -1), GradedVector.basis(2))
        assert used.coeff(1, 1, 2) == action_coeff(Family.I, RF_A, 1, 1, 2)
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert used != FamilyModule(Family.II, RF_A)

    def test_negation_and_subtraction(self):
        v = multi_degree_vector(1)
        assert -v == v.scale(rf_int(-1))
        assert v - v == GradedVector()
        assert (v - GradedVector.basis(5)).terms[5] == rf_int(-1)


class TestGenTable:
    def test_window_shape(self):
        doc = gen_table(Family.I, RF_A, 2, 2, 3)
        assert doc.k_range == (-3, 3)
        assert doc.h_range == (-2, 2)
        assert doc.j_range == (-2, 2)
        assert doc.dims == (1,) * 7

    @pytest.mark.parametrize("family", list(Family))
    def test_entries_fill_every_cell(self, family):
        doc = gen_table(family, RF_A, 2, 1, 3)
        assert set(doc.entries) == set(doc.cells())

    def test_entries_match_action(self):
        doc = gen_table(Family.IV, RF_A, 2, 2, 3)
        for (h, j, k), value in doc.entries.items():
            assert value == action_coeff(Family.IV, RF_A, h, j, k)

    def test_boundary_entries_absent(self):
        doc = gen_table(Family.I, RF_A, 2, 2, 3)
        # h = 2 from k = 2 would leave the window
        assert (2, 0, 2) not in doc.entries
        assert (2, 0, 1) in doc.entries

    def test_numeric_mode(self):
        doc = gen_table(Family.I, RF_A, 1, 1, 2, NUMERIC)
        assert doc.entry(0, 1, 1) == parse_value("6")  # a q^k = 3*2

    def test_zero_parameter_rejected(self):
        with pytest.raises(BadParameter):
            gen_table(Family.I, RF_ZERO, 1, 1, 2)
        with pytest.raises(BadParameter):
            gen_table(Family.I, parse_value("q - 2"), 1, 1, 2, NUMERIC)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            gen_table(Family.I, RF_A, 0, 1, 2)


class TestClosedForm:
    PAIRS = {
        Family.I: (RF_Q, RF_ONE),
        Family.II: (RF_Q, rf_int(-1)),
        Family.III: (RF_Q.inverse(), RF_ONE),
        Family.IV: (RF_Q.inverse(), rf_int(-1)),
    }

    @pytest.mark.parametrize("family", list(Family))
    def test_reproduces_family(self, family):
        b, lam = self.PAIRS[family]
        for m in range(-3, 4):
            for j in range(-3, 4):
                if (m, j) == (0, 0):
                    continue
                for k in range(-3, 4):
                    assert closed_form_f(b, lam, m, j, k, RF_A) == action_coeff(
                        family, RF_A, m, j, k
                    )

    def test_zero_column_is_unit_power(self):
        # at b = q the j = 0 slice collapses to lam^m
        lam = rf_int(-1)
        for m in range(-5, 6):
            if m == 0:
                continue
            assert closed_form_f(RF_Q, lam, m, 0, 0, RF_A) == sign_pow(m)

    def test_bad_ratio(self):
        with pytest.raises(BadParameter):
            closed_form_f(RF_Q**2, RF_ONE, 1, 0, 0, RF_A)

    def test_bad_sign(self):
        with pytest.raises(BadParameter):
            closed_form_f(RF_Q, rf_int(2), 1, 0, 0, RF_A)


def reference_irreducible(doc):
    """The chain scan check_graded_irreducible ran before it shared the
    degeneracy test: the first degree of dimension 0, else the first k with
    f(1,0,k) = 0 (k < k_max) or f(-1,0,k) = 0 (k > k_min)."""
    k_min, k_max = doc.k_range
    for k in doc.degrees():
        if doc.dim_at(k) == 0:
            return Reducible(k)
    for k in doc.degrees():
        if k < k_max and doc.entry(1, 0, k).is_zero:
            return Reducible(k)
        if k > k_min and doc.entry(-1, 0, k).is_zero:
            return Reducible(k)
    return Irreducible()


@st.composite
def chain_tables(draw):
    """Windows whose up and down chains and dimensions may vanish anywhere."""
    k_min = draw(st.integers(-4, 0))
    k_max = k_min + draw(st.integers(0, 7))
    degrees = range(k_min, k_max + 1)
    dims = tuple(draw(st.sampled_from((1, 1, 1, 1, 0))) for _ in degrees)
    doc = TableDocument(FieldContext.symbolic(), (k_min, k_max), dims, (-1, 1), (-1, 1))
    values = st.sampled_from((RF_ZERO, RF_ONE, RF_A, RF_ONE, RF_A))
    for h in (1, -1):
        for k in degrees:
            if k_min <= k + h <= k_max and dims[k - k_min] == dims[k + h - k_min] == 1:
                value = draw(values)
                if not value.is_zero:
                    doc.entries[(h, 0, k)] = value
    return doc


class TestIrreducibility:
    @given(chain_tables())
    @settings(max_examples=500, deadline=None)
    def test_matches_the_chain_scan(self, doc):
        assert check_graded_irreducible(doc) == reference_irreducible(doc)

    def test_family_table_irreducible(self):
        doc = gen_table(Family.II, RF_A, 2, 2, 3)
        assert check_graded_irreducible(doc) == Irreducible()

    def test_broken_up_chain(self):
        doc = gen_table(Family.I, RF_A, 2, 2, 3)
        del doc.entries[(1, 0, 0)]
        assert check_graded_irreducible(doc) == Reducible(0)

    def test_broken_down_chain(self):
        doc = gen_table(Family.I, RF_A, 2, 2, 3)
        del doc.entries[(-1, 0, 2)]
        assert check_graded_irreducible(doc) == Reducible(2)

    def test_dead_degree(self):
        doc = gen_table(Family.I, RF_A, 2, 2, 3)
        verdict = check_graded_irreducible(
            type(doc)(
                context=doc.context,
                k_range=doc.k_range,
                dims=(1, 1, 1, 0, 1, 1, 1),
                h_range=doc.h_range,
                j_range=doc.j_range,
            )
        )
        assert verdict == Reducible(0)
