import pytest
from hypothesis import given, settings, strategies as st

from qvira.algebra import _bracket_scalar, basis_indices
from qvira.expr import parse_value
from qvira.families import Family, action_coeff, gen_table
from qvira.field import FieldContext, RF_A, RF_ONE, RF_Q, RF_ZERO, RationalFunction, rf_int
from qvira.presentation import (
    Degenerate,
    DegenerateTable,
    HasZeroDims,
    MissingData,
    NotConstant,
    Violation,
    ZeroEntry,
    degeneracy_test,
    extract_invariants,
    omega_normalize,
    validate_table,
    verify_relation_suite,
)
from qvira.table import TableDocument, specialize

NUMERIC = FieldContext.numeric(2, 3)

EXPECTED_INVARIANTS = {
    Family.I: ("q", "a"),
    Family.II: ("q", "a"),
    Family.III: ("1/q", "a"),
    Family.IV: ("1/q", "a"),
}


def omega_entries(nt):
    """Every nonzero omega-basis entry, keyed like the raw table."""
    return {key: nt.f_omega(*key) for key in nt.base.entries}


def family_table(family, **kw):
    return gen_table(family, RF_A, kw.get("h", 2), kw.get("j", 2), kw.get("k", 3),
                     kw.get("mode", FieldContext.symbolic()))


class TestValidate:
    @pytest.mark.parametrize("family", list(Family))
    def test_family_tables_valid(self, family):
        assert validate_table(family_table(family)) == []

    def test_numeric_family_table_valid(self):
        assert validate_table(family_table(Family.III, mode=NUMERIC)) == []

    def test_all_zero_table_valid(self):
        doc = TableDocument(
            context=FieldContext.symbolic(),
            k_range=(-3, 3),
            dims=(1,) * 7,
            h_range=(-2, 2),
            j_range=(-2, 2),
        )
        assert validate_table(doc) == []

    def test_perturbation_detected_with_witness(self):
        doc = family_table(Family.I)
        index = (1, 1, 0)
        doc.entries[index] = doc.entries[index] * rf_int(2)
        violations = validate_table(doc)
        assert violations
        v = violations[0]
        assert v.lhs != v.rhs
        # the witness instance really involves the perturbed entry
        touched = {
            (v.m, v.n, v.k), (v.h, v.j, v.k + v.m),
            (v.h, v.j, v.k), (v.m, v.n, v.h + v.k),
            (v.h + v.m, v.j + v.n, v.k),
        }
        assert index in touched

    def test_stop_after_caps_collection(self):
        doc = family_table(Family.I)
        doc.entries[(1, 1, 0)] = doc.entries[(1, 1, 0)] * rf_int(2)
        assert len(validate_table(doc, stop_after=1)) == 1

    def test_deleted_entry_detected(self):
        doc = family_table(Family.II)
        del doc.entries[(0, 1, 0)]
        assert validate_table(doc, stop_after=1)


def reference_validate_table(doc, stop_after=None):
    """validate_table as one hand-written loop: the reference of the scan."""
    h_min, h_max = doc.h_range
    j_min, j_max = doc.j_range
    k_min, k_max = doc.k_range
    ctx = doc.context
    entry = doc.entry
    violations = []
    indices = basis_indices(doc.h_range, doc.j_range)
    for h, j in indices:
        for m, n in indices:
            target = (h + m, j + n)
            if target != (0, 0) and not (
                h_min <= target[0] <= h_max and j_min <= target[1] <= j_max
            ):
                continue
            scalar = specialize(_bracket_scalar(j * m, n * h), ctx)
            for k in range(k_min, k_max + 1):
                degs = (k, k + m, k + h, k + h + m)
                if not all(k_min <= d <= k_max for d in degs):
                    continue
                if not all(doc.dim_at(d) == 1 for d in degs):
                    continue
                lhs = entry(m, n, k) * entry(h, j, k + m) - entry(h, j, k) * entry(
                    m, n, h + k
                )
                rhs = RF_ZERO if target == (0, 0) else scalar * entry(h + m, j + n, k)
                if lhs != rhs:
                    violations.append(Violation(h, j, m, n, k, lhs, rhs))
                    if stop_after is not None and len(violations) >= stop_after:
                        return violations
    return violations


@st.composite
def scan_cases(draw):
    """A family table on a random window with random dimension bits, its
    cells on dimension-0 degrees left out, and up to three cells perturbed
    or deleted; plus a stop_after."""
    family = draw(st.sampled_from(list(Family)))
    h_range = (draw(st.integers(-2, 0)), draw(st.integers(1, 2)))
    j_range = (draw(st.integers(-2, 0)), draw(st.integers(0, 2)))
    k_min = draw(st.integers(-3, 0))
    k_range = (k_min, k_min + draw(st.integers(0, 4)))
    dims = tuple(draw(st.lists(st.sampled_from((0, 1, 1)), min_size=k_range[1] - k_min + 1,
                               max_size=k_range[1] - k_min + 1)))
    doc = TableDocument(FieldContext.symbolic(), k_range, dims, h_range, j_range)
    cells = [(h, j, k) for h, j, k in doc.cells() if doc.dim_at(k) and doc.dim_at(k + h)]
    doc.entries.update((cell, action_coeff(family, RF_A, *cell)) for cell in cells)
    if cells:
        for cell in draw(st.lists(st.sampled_from(cells), max_size=3, unique=True)):
            factor = draw(st.sampled_from((None, rf_int(2), RF_Q, -RF_ONE)))
            if factor is None:
                del doc.entries[cell]
            else:
                doc.entries[cell] = doc.entries[cell] * factor
    return doc, draw(st.sampled_from((None, 1, 2, 5)))


class TestScanAgainstTheLoop:
    """validate_table, run through mismatches, finds the violations the
    hand-written loop finds, in the same order."""

    @pytest.mark.parametrize("dims", ["1111111", "1101111", "0111110"])
    @pytest.mark.parametrize("stop_after", [None, 1, 2, 5])
    def test_flipped_family_table(self, dims, stop_after):
        doc = family_table(Family.II)
        doc.dims = tuple(map(int, dims))
        doc.entries = {
            (h, j, k): value for (h, j, k), value in doc.entries.items()
            if doc.dim_at(k) and doc.dim_at(k + h)
        }
        doc.entries[(1, 1, 0)] = doc.entries[(1, 1, 0)] * rf_int(2)
        expected = reference_validate_table(doc, stop_after)
        assert expected
        assert validate_table(doc, stop_after) == expected

    @given(scan_cases())
    @settings(max_examples=200, deadline=None)
    def test_same_violations(self, case):
        doc, stop_after = case
        assert validate_table(doc, stop_after) == reference_validate_table(doc, stop_after)


class TestDegeneracy:
    def test_family_table_nondegenerate(self):
        assert degeneracy_test(family_table(Family.IV)) is None

    def test_missing_up_coefficient(self):
        doc = family_table(Family.I)
        del doc.entries[(1, 0, -1)]
        assert degeneracy_test(doc) == Degenerate(-1)

    def test_dead_degree_reported_first(self):
        doc = family_table(Family.I)
        doc.dims = (1, 1, 0, 1, 1, 1, 1)
        assert degeneracy_test(doc) == HasZeroDims(-1)


class TestOmegaNormalize:
    def test_family_I_fixed(self):
        # family I already has f(1, 0, k) = 1, so the base change is trivial
        doc = family_table(Family.I)
        nt = omega_normalize(doc)
        assert all(s == RF_ONE for s in nt.scalings.values())
        assert omega_entries(nt) == doc.entries

    def test_family_II_normalizes_to_family_I(self):
        # family II is family I twisted by the sign character (-1)^m
        nt = omega_normalize(family_table(Family.II))
        reference = family_table(Family.I)
        assert omega_entries(nt) == reference.entries

    def test_raising_coefficient_becomes_one(self):
        for family in Family:
            nt = omega_normalize(family_table(family))
            for k in range(-3, 3):
                assert nt.f_omega(1, 0, k) == RF_ONE

    def test_anchor_scaling_is_one(self):
        nt = omega_normalize(family_table(Family.III))
        assert nt.anchor == 0
        assert nt.scalings[0] == RF_ONE

    def test_degenerate_raises(self):
        doc = family_table(Family.I)
        del doc.entries[(1, 0, 1)]
        with pytest.raises(DegenerateTable) as info:
            omega_normalize(doc)
        assert info.value.k == 1

    def test_gauge_invariance(self):
        # rescaling v_k by any nonzero s_k leaves the omega basis unchanged
        doc = family_table(Family.III)
        scale = {k: parse_value("q") ** abs(k) * parse_value("a+1") for k in doc.degrees()}
        rescaled = TableDocument(
            context=doc.context,
            k_range=doc.k_range,
            dims=doc.dims,
            h_range=doc.h_range,
            j_range=doc.j_range,
            entries={
                (h, j, k): value * scale[k + h] / scale[k]
                for (h, j, k), value in doc.entries.items()
            },
        )
        assert omega_entries(omega_normalize(rescaled)) == omega_entries(omega_normalize(doc))


class TestInvariants:
    @pytest.mark.parametrize("family", list(Family))
    def test_family_invariants(self, family):
        nt = omega_normalize(family_table(family))
        inv = extract_invariants(nt)
        b_text, a_text = EXPECTED_INVARIANTS[family]
        assert inv.p == RF_ONE
        assert inv.b == parse_value(b_text)
        assert inv.a == parse_value(a_text)

    def test_numeric_invariants(self):
        nt = omega_normalize(family_table(Family.I, mode=NUMERIC))
        inv = extract_invariants(nt)
        assert inv.p == RF_ONE
        assert inv.b == rf_int(2)
        assert inv.a == rf_int(3)

    def test_nonconstant_ratio_detected(self):
        doc = family_table(Family.I)
        doc.entries[(0, 1, 2)] = doc.entries[(0, 1, 2)] * rf_int(5)
        with pytest.raises(NotConstant) as info:
            extract_invariants(omega_normalize(doc))
        assert info.value.invariant == "b"

    def test_zero_sample_detected(self):
        doc = family_table(Family.I)
        del doc.entries[(0, 1, -2)]
        with pytest.raises(ZeroEntry):
            extract_invariants(omega_normalize(doc))

    def test_tiny_window_rejected(self):
        doc = TableDocument(
            context=FieldContext.symbolic(),
            k_range=(0, 0),
            dims=(1,),
            h_range=(-1, 1),
            j_range=(-1, 1),
        )
        nt = omega_normalize(doc)
        with pytest.raises(MissingData):
            extract_invariants(nt)


class TestRelationSuite:
    NAMES = [
        "raising-power-constancy",
        "adjacent-difference-product",
        "raising-power-ladder",
        "first-level-lift",
        "column-power-law",
        "descent-identity",
        "diagonal-closed-form",
    ]

    @pytest.mark.parametrize("family", list(Family))
    def test_all_relations_pass(self, family):
        nt = omega_normalize(family_table(family))
        reports = verify_relation_suite(nt, extract_invariants(nt))
        assert [r.name for r in reports] == self.NAMES
        for report in reports:
            assert report.status == "pass", report.name
            assert report.checked > 0
            assert report.first is None

    def test_numeric_relations_pass(self):
        nt = omega_normalize(family_table(Family.II, mode=NUMERIC))
        reports = verify_relation_suite(nt, extract_invariants(nt))
        assert all(r.status == "pass" for r in reports)

    def test_narrow_window_reports_skipped(self):
        # h-bound 1 leaves no consecutive raising powers: the ladder is
        # skipped, never silently passed
        nt = omega_normalize(family_table(Family.I, h=1, j=1))
        reports = {r.name: r for r in verify_relation_suite(nt, extract_invariants(nt))}
        assert reports["raising-power-ladder"].status == "skipped"
        assert reports["raising-power-ladder"].checked == 0
        assert reports["column-power-law"].status == "pass"

    def test_nothing_is_formed_after_the_first_failure(self, monkeypatch):
        # f(-3, -3, -3) is the first instance of column-power-law at
        # (3, 3, 6).  The relation's other 461 instances are counted, and
        # none of their cells is read nor their powers formed.
        doc = family_table(Family.I, h=3, j=3, k=6)
        doc.entries[(-3, -3, -3)] = doc.entries[(-3, -3, -3)] * rf_int(2)
        nt = omega_normalize(doc)
        invariants = extract_invariants(nt)
        read, powers = set(), []
        f_omega, power = nt.f_omega, RationalFunction.__pow__
        monkeypatch.setattr(nt, "f_omega", lambda *key: read.add(key) or f_omega(*key))
        monkeypatch.setattr(
            RationalFunction, "__pow__", lambda x, n: powers.append(n) or power(x, n)
        )
        reports = {r.name: r for r in verify_relation_suite(nt, invariants)}
        column = reports["column-power-law"]
        assert (column.status, column.checked) == ("fail", 462)
        assert column.first[0] == (-3, -3, -3)
        assert [r.status for r in reports.values()].count("fail") == 1
        # Only column-power-law reads cells with h and j both outside {0, 1}.
        assert {(h, j, k) for h, j, k in read if h not in (0, 1) and j not in (0, 1)} == {
            (-3, -3, -3)
        }
        # The six passing relations and the failing instance form 567
        # powers; a suite that formed every instance would form 2,586.
        assert len(powers) < 600

    def test_empty_column_forms_no_power(self, monkeypatch):
        # The family I table with its m = +-2 columns left empty: F(+-2) = 0,
        # so each of their 50 column-power-law instances has the rhs 0, and
        # the power (a b^k (1-b^m)/(1-q^m))^j is not formed for it.
        doc = family_table(Family.I)
        doc.entries = {key: v for key, v in doc.entries.items() if abs(key[0]) != 2}
        nt = omega_normalize(doc)
        invariants = extract_invariants(nt)
        powers, power = [], RationalFunction.__pow__
        monkeypatch.setattr(
            RationalFunction, "__pow__", lambda x, n: powers.append(n) or power(x, n)
        )
        reports = {r.name: r for r in verify_relation_suite(nt, invariants)}
        assert (reports["column-power-law"].status, reports["column-power-law"].checked) == (
            "pass", 110
        )
        assert reports["raising-power-ladder"].status == "fail"
        # The suite forms 600 powers; forming the empty columns' 50 powers,
        # 20 of them at a negative j through the inverse, made it 670.
        assert len(powers) <= 600

    def test_perturbation_fails_with_witness(self):
        doc = family_table(Family.I)
        doc.entries[(2, 2, 1)] = doc.entries[(2, 2, 1)] * parse_value("q")
        nt = omega_normalize(doc)
        reports = verify_relation_suite(nt, extract_invariants(nt))
        failing = [r for r in reports if r.status == "fail"]
        assert failing
        index, lhs, rhs = failing[0].first
        assert lhs != rhs
