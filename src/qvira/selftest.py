"""Executable acceptance suite.

Each criterion is a zero-argument callable returning a CriterionResult.
The CLI `selftest` command runs all of them and prints one line per
criterion; the pytest acceptance module drives the same checks.

Everything here is exact: there are no tolerances anywhere, only equality
in Q(q, a) or in Q.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .field import (
    FieldContext,
    RF_A,
    RF_ONE,
    RF_Q,
    DivisionByZero,
    RationalFunction,
    rf_int,
)
from .expr import parse_value, print_canonical
from .table import TableDocument, parse_table, specialize, write_table
from .algebra import (
    AlgebraElement,
    bracket,
    component_of_degree,
    random_element,
)
from .families import (
    Family,
    FamilyModule,
    Irreducible,
    Reducible,
    action_coeff,
    check_graded_irreducible,
    closed_form_f,
    gen_table,
)
from .presentation import validate_table, omega_normalize, extract_invariants, verify_relation_suite
from .classifier import (
    Inconsistent,
    IsoClass,
    Orientation,
    Reason,
    TrivialSum,
    characteristic_equation,
    classify,
    orientation_from_b,
)
from .cli import axiom_sweep

NUMERIC = FieldContext.numeric(2, 3)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str = ""


def criterion_01_module_axiom() -> CriterionResult:
    """Action axiom for all four families on the full homogeneous window."""
    failures = sum(len(axiom_sweep(FamilyModule(f, RF_A), 2, 4)[1]) for f in Family)
    return CriterionResult(
        "module-axiom-sweep", failures == 0, f"failures={failures}"
    )


def criterion_02_lie_axioms() -> CriterionResult:
    """Antisymmetry, Jacobi, and grading on 100 seeded random triples."""
    pool = (RF_ONE, rf_int(-1), RF_Q, RF_A)
    zero = AlgebraElement.zero()
    bad = []
    for seed in range(100):
        x = random_element(3 * seed, 3, pool)
        y = random_element(3 * seed + 1, 3, pool)
        z = random_element(3 * seed + 2, 3, pool)
        if bracket(x, y) + bracket(y, x) != zero:
            bad.append(("antisymmetry", seed))
        jac = (
            bracket(x, bracket(y, z))
            + bracket(y, bracket(z, x))
            + bracket(z, bracket(x, y))
        )
        if jac != zero:
            bad.append(("jacobi", seed))
        for u in range(-3, 4):
            for v in range(-3, 4):
                piece = bracket(component_of_degree(x, u), component_of_degree(y, v))
                if any(index[0] != u + v for index in piece.terms):
                    bad.append(("grading", seed))
    return CriterionResult("lie-axioms", not bad, f"failures={bad[:3]}")


_EXPECTED_ORIENTATION = {
    Family.I: Orientation.FORWARD,
    Family.II: Orientation.FORWARD,
    Family.III: Orientation.REVERSE,
    Family.IV: Orientation.REVERSE,
}


def criterion_03_round_trip() -> CriterionResult:
    """classify(gen_table(...)) recovers orientation, a, and the family."""
    bad = []
    for mode, a in ((FieldContext.symbolic(), RF_A), (NUMERIC, rf_int(3))):
        for family in Family:
            doc = gen_table(family, a, 3, 3, 6, mode)
            result = classify(doc)
            ok = (
                isinstance(result, IsoClass)
                and result.orientation is _EXPECTED_ORIENTATION[family]
                and result.a == specialize(a, mode)
                and result.exact_family is family
            )
            if not ok:
                bad.append((family.value, "numeric" if mode.is_numeric else "symbolic", result))
    return CriterionResult("round-trip-classification", not bad, f"failures={bad}")


def _rescaled(doc: TableDocument, seed: int) -> TableDocument:
    rng = random.Random(seed)
    scalings = {}
    for k in doc.degrees():
        value = 0
        while value == 0:
            value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        scalings[k] = RationalFunction.from_fraction(value)
    out = TableDocument(
        doc.context, doc.k_range, doc.dims, doc.h_range, doc.j_range
    )
    for (h, j, k), value in doc.entries.items():
        out.entries[(h, j, k)] = value * scalings[k] / scalings[k + h]
    return out


def criterion_04_gauge_invariance() -> CriterionResult:
    """Diagonal rescaling changes nothing but the verbatim-family tag."""
    bad = []
    for seed, family in enumerate(Family):
        doc = gen_table(family, RF_A, 3, 3, 6)
        result = classify(_rescaled(doc, 1000 + seed))
        ok = (
            isinstance(result, IsoClass)
            and result.orientation is _EXPECTED_ORIENTATION[family]
            and result.a == RF_A
        )
        if not ok:
            bad.append((family.value, result))
    return CriterionResult("gauge-invariance", not bad, f"failures={bad}")


def _blank_table(k_bound: int = 6) -> TableDocument:
    return TableDocument(
        FieldContext.symbolic(),
        (-k_bound, k_bound),
        tuple([1] * (2 * k_bound + 1)),
        (-3, 3),
        (-3, 3),
    )


def criterion_05_trivial_branch() -> CriterionResult:
    """All-zero tables are trivial sums; degenerate nonzero tables are not."""
    checks = []
    checks.append(isinstance(classify(_blank_table()), TrivialSum))
    # Family table with the degree-raising coefficient f(1, 0, 0) removed:
    # everything else stays nonzero.
    doc = gen_table(Family.I, RF_A, 3, 3, 6)
    del doc.entries[(1, 0, 0)]
    result = classify(doc)
    checks.append(
        isinstance(result, Inconsistent) and result.reason is Reason.DEGENERATE_NONZERO
    )
    return CriterionResult("trivial-branch", all(checks), f"checks={checks}")


def criterion_06_perturbation() -> CriterionResult:
    """Any single-entry +1 flip of a family table breaks validation."""
    doc = gen_table(Family.I, RF_A, 3, 3, 6)
    keys = sorted(doc.entries)
    positions = keys[:: max(1, len(keys) // 12)][:12]
    bad = []
    for key in positions:
        perturbed = TableDocument(
            doc.context, doc.k_range, doc.dims, doc.h_range, doc.j_range,
            dict(doc.entries),
        )
        perturbed.entries[key] = perturbed.entries[key] + RF_ONE
        if not validate_table(perturbed, stop_after=1):
            bad.append(key)
    return CriterionResult(
        "perturbation-soundness",
        len(positions) >= 10 and not bad,
        f"positions={len(positions)} undetected={bad}",
    )


def criterion_07_characteristic() -> CriterionResult:
    """Characteristic roots at unit p, and ratio rejection.

    The roots are q and 1/q exactly when the leading coefficient is nonzero,
    q != 1/q, and the quadratic vanishes at both: over a field a quadratic
    has at most two roots.
    """
    alpha, beta, gamma = characteristic_equation(RF_ONE)
    roots = (RF_Q, RF_Q.inverse())
    checks = [
        not alpha.is_zero and roots[0] != roots[1]
        and all(((alpha * r + beta) * r + gamma).is_zero for r in roots)
    ]
    for b in (RF_Q * RF_Q, rf_int(2), RF_A):
        checks.append(orientation_from_b(b) is None)
    return CriterionResult("characteristic-machinery", all(checks), f"checks={checks}")


_CLOSED_FORM_CASES = {
    Family.I: (RF_Q, 1),
    Family.II: (RF_Q, -1),
    Family.III: (None, 1),  # b = 1/q filled in below
    Family.IV: (None, -1),
}


def criterion_08_closed_forms() -> CriterionResult:
    """Closed form reproduces all four family actions; unit powers at b=q."""
    q_inv = RF_Q.inverse()
    bad = []
    for family, (b, lam_int) in _CLOSED_FORM_CASES.items():
        b = b if b is not None else q_inv
        lam = rf_int(lam_int)
        for m in range(-3, 4):
            for j in range(-3, 4):
                if (m, j) == (0, 0):
                    continue
                for k in range(-3, 4):
                    expected = action_coeff(family, RF_A, m, j, k)
                    if closed_form_f(b, lam, m, j, k, RF_A) != expected:
                        bad.append((family.value, m, j, k))
    for lam_int in (1, -1):
        lam = rf_int(lam_int)
        for m in [m for m in range(-5, 6) if m != 0]:
            if closed_form_f(RF_Q, lam, m, 0, 0, RF_A) != lam**m:
                bad.append(("unit-power", lam_int, m))
    return CriterionResult("closed-form-consistency", not bad, f"failures={bad[:5]}")


def criterion_09_relation_suite() -> CriterionResult:
    """Internal-relation suite passes on every generated family table."""
    bad = []
    for family in Family:
        nt = omega_normalize(gen_table(family, RF_A, 3, 3, 6))
        invariants = extract_invariants(nt)
        for report in verify_relation_suite(nt, invariants):
            if report.status == "fail":
                bad.append((family.value, report.name, report.first))
    return CriterionResult("relation-suite", not bad, f"failures={bad}")


def criterion_10_irreducibility() -> CriterionResult:
    checks = []
    for family in Family:
        verdict = check_graded_irreducible(gen_table(family, RF_A, 2, 2, 4))
        checks.append(isinstance(verdict, Irreducible))
    two_zero = TableDocument(
        FieldContext.symbolic(), (0, 1), (1, 1), (-2, 2), (-2, 2)
    )
    checks.append(isinstance(check_graded_irreducible(two_zero), Reducible))
    return CriterionResult("graded-irreducibility", all(checks), f"checks={checks}")


def _random_text(rng: random.Random, depth: int) -> str:
    """An expression text with every operand of an operator parenthesized."""
    if depth == 0 or rng.random() < 0.3:
        choice = rng.randrange(3)
        if choice == 0:
            return str(rng.randint(0, 9))
        return "q" if choice == 1 else "a"
    choice = rng.randrange(6)
    if choice == 0:
        return f"-({_random_text(rng, depth - 1)})"
    if choice == 1:
        return f"({_random_text(rng, depth - 1)})^{rng.randint(-3, 3)}"
    op = "+-*/"[choice - 2]
    return f"({_random_text(rng, depth - 1)}){op}({_random_text(rng, depth - 1)})"


def criterion_11_serialization() -> CriterionResult:
    """Byte-exact table round trips and value-exact expression fuzzing."""
    bad = []
    for mode, a in ((FieldContext.symbolic(), RF_A), (NUMERIC, rf_int(3))):
        for family in Family:
            doc = gen_table(family, a, 2, 2, 4, mode)
            text = write_table(doc)
            again = write_table(parse_table(text))
            if text != again:
                bad.append(("table", family.value, mode.is_numeric))
    rng = random.Random(20240)
    cases = 0
    attempts = 0
    while cases < 1000 and attempts < 20000:
        attempts += 1
        try:
            value = parse_value(_random_text(rng, 4))
        except DivisionByZero:
            continue
        cases += 1
        if parse_value(print_canonical(value)) != value:
            bad.append(("expr", cases, print_canonical(value)))
    if cases < 1000:
        bad.append(("too-few-cases", cases))
    return CriterionResult("serialization-round-trip", not bad, f"failures={bad[:5]}")


ALL_CRITERIA: list[Callable[[], CriterionResult]] = [
    criterion_01_module_axiom,
    criterion_02_lie_axioms,
    criterion_03_round_trip,
    criterion_04_gauge_invariance,
    criterion_05_trivial_branch,
    criterion_06_perturbation,
    criterion_07_characteristic,
    criterion_08_closed_forms,
    criterion_09_relation_suite,
    criterion_10_irreducibility,
    criterion_11_serialization,
]


def run_all(write=print) -> bool:
    """Run every criterion, print one line each, return overall success."""
    ok = True
    for criterion in ALL_CRITERIA:
        result = criterion()
        status = "PASS" if result.passed else "FAIL"
        line = f"{status} {result.name}"
        if not result.passed and result.detail:
            line += f" ({result.detail})"
        write(line)
        ok = ok and result.passed
    return ok
