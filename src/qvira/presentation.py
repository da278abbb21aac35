"""Structural analysis of windowed candidate-module tables.

A table presents coefficients f(h, j, k) for a candidate graded action.
This module checks the bracket-compatibility relation on the window,
performs the diagonal base change that makes the degree-raising operator
act with coefficient 1 (the "omega basis"), extracts the isomorphism
invariants (p, b, a), and runs the internal-relation suite that a genuine
intermediate-series presentation must satisfy.

All checks are exact; violations are data carried in reports, not
exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .field import RF_ONE, RF_Q, RF_ZERO, RationalFunction, q_pow
from .table import TableDocument
from .algebra import _bracket_scalar, basis_indices


@dataclass(frozen=True)
class Violation:
    """One failed instance of the bracket-compatibility relation."""

    h: int
    j: int
    m: int
    n: int
    k: int
    lhs: RationalFunction
    rhs: RationalFunction


def validate_table(
    doc: TableDocument, stop_after: Optional[int] = None
) -> list[Violation]:
    """Check, for all index pairs on the window,

        f(m,n,k) f(h,j,k+m) - f(h,j,k) f(m,n,h+k) = (q^{jm} - q^{nh}) f(h+m,j+n,k)

    reading f as 0 at omitted entries and at the excluded index (0, 0).
    Instances whose target index (h+m, j+n) falls outside the window, or
    whose degrees leave the k-range or touch a dimension-0 degree, are
    not checkable and are skipped.  Returns the list of violations (empty
    means valid); stop_after caps the number collected.
    """
    h_min, h_max = doc.h_range
    j_min, j_max = doc.j_range
    k_min, k_max = doc.k_range
    ctx = doc.context
    entry = doc.entry
    violations: list[Violation] = []
    indices = basis_indices(doc.h_range, doc.j_range)
    for h, j in indices:
        for m, n in indices:
            target = (h + m, j + n)
            if target != (0, 0) and not (
                h_min <= target[0] <= h_max and j_min <= target[1] <= j_max
            ):
                continue
            scalar = ctx.reduce(_bracket_scalar(j * m, n * h))
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


@dataclass(frozen=True)
class Nondegenerate:
    pass


@dataclass(frozen=True)
class Degenerate:
    k: int


@dataclass(frozen=True)
class HasZeroDims:
    k: int


def degeneracy_test(doc: TableDocument) -> Union[Nondegenerate, Degenerate, HasZeroDims]:
    """Locate a degree where the up-down composite f(1,0,k) f(-1,0,k+1) dies."""
    for k in doc.degrees():
        if doc.dim_at(k) == 0:
            return HasZeroDims(k)
    k_min, k_max = doc.k_range
    for k in range(k_min, k_max):
        if (doc.entry(1, 0, k) * doc.entry(-1, 0, k + 1)).is_zero:
            return Degenerate(k)
    return Nondegenerate()


class DegenerateTable(Exception):
    """Normalization hit a zero degree-raising coefficient."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(f"degree-raising coefficient vanishes at k={k}")


class MissingData(Exception):
    pass


class ZeroEntry(Exception):
    def __init__(self, h: int, j: int, k: int):
        self.index = (h, j, k)
        super().__init__(f"entry ({h},{j},{k}) is zero")


class NotConstant(Exception):
    """An invariant that must be k-independent changed value."""

    def __init__(self, invariant: str, k: int, value, reference):
        self.invariant = invariant
        self.k = k
        self.value = value
        self.reference = reference
        super().__init__(f"{invariant} changes at k={k}")


@dataclass
class NormalizedTable:
    """Table in the omega basis: f(1, 0, k) rescaled to 1 everywhere.

    scalings maps each degree k to the nonzero factor s_k with
    f_omega(h,j,k) = f(h,j,k) s_k / s_{k+h}; s_anchor = 1.  Entries with
    h = 0 coincide with the raw table.  A cell is normalized on its first
    access and kept, so a caller that stops early pays only for the cells
    it read.
    """

    base: TableDocument
    anchor: int
    scalings: dict[int, RationalFunction]
    _cells: dict[tuple[int, int, int], RationalFunction] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def f_omega(self, h: int, j: int, k: int) -> RationalFunction:
        key = (h, j, k)
        cell = self._cells.get(key)
        if cell is None:
            cell = self.base.entries.get(key, RF_ZERO)
            if h != 0 and not cell.is_zero:
                cell = cell * self.scalings[k] / self.scalings[k + h]
            self._cells[key] = cell
        return cell

    @property
    def entries(self) -> dict[tuple[int, int, int], RationalFunction]:
        """Every nonzero omega-basis entry, keyed like the raw table."""
        return {key: self.f_omega(*key) for key in self.base.entries}


def omega_normalize(doc: TableDocument) -> NormalizedTable:
    """Diagonal base change normalizing the degree-raising coefficients.

    Computes the scalings only; cells are normalized on demand by
    NormalizedTable.f_omega.  The anchor degree is 0 when the window
    contains it, else k_min.  Raises DegenerateTable when some required
    f(1, 0, k) vanishes.
    """
    k_min, k_max = doc.k_range
    if any(dim != 1 for dim in doc.dims):
        raise ValueError("omega normalization needs all degree dimensions 1")
    anchor = 0 if k_min <= 0 <= k_max else k_min
    scalings: dict[int, RationalFunction] = {anchor: RF_ONE}
    for k in range(anchor, k_max):
        up = doc.entry(1, 0, k)
        if up.is_zero:
            raise DegenerateTable(k)
        scalings[k + 1] = scalings[k] * up
    for k in range(anchor, k_min, -1):
        up = doc.entry(1, 0, k - 1)
        if up.is_zero:
            raise DegenerateTable(k - 1)
        scalings[k - 1] = scalings[k] / up
    return NormalizedTable(doc, anchor, scalings)


@dataclass(frozen=True)
class InvariantTriple:
    """Isomorphism invariants read off the omega basis.

    p is the constant up-down eigenvalue f(1,0,k) f(-1,0,k+1); b is the
    constant ratio f(0,1,k+1)/f(0,1,k); a is the value of f(0,1,k) b^{-k}
    in the k = 0 convention.
    """

    p: RationalFunction
    b: RationalFunction
    a: RationalFunction


def extract_invariants(nt: NormalizedTable) -> InvariantTriple:
    """Compute (p, b, a), insisting on exact k-independence.

    Raises MissingData when the window carries too few entries, ZeroEntry
    when some f(0, 1, k) vanishes, and NotConstant when p or the ratio b
    varies with k.
    """
    doc = nt.base
    k_min, k_max = doc.k_range
    if k_max - k_min < 1:
        raise MissingData("window has fewer than two degrees")

    p = nt.f_omega(1, 0, k_min) * nt.f_omega(-1, 0, k_min + 1)
    for k in range(k_min + 1, k_max):
        p_k = nt.f_omega(1, 0, k) * nt.f_omega(-1, 0, k + 1)
        if p_k != p:
            raise NotConstant("p", k, p_k, p)
    if p.is_zero:
        raise MissingData("no up-down composite available on the window")

    samples = []
    for k in doc.degrees():
        value = nt.f_omega(0, 1, k)
        if value.is_zero:
            raise ZeroEntry(0, 1, k)
        samples.append((k, value))
    b = samples[1][1] / samples[0][1]
    for (k, value), (_, nxt) in zip(samples, samples[1:]):
        ratio = nxt / value
        if ratio != b:
            raise NotConstant("b", k, ratio, b)
    a = samples[0][1] * b ** (-samples[0][0])
    return InvariantTriple(p=p, b=b, a=a)


@dataclass(frozen=True)
class RelationFailure:
    index: tuple
    lhs: RationalFunction
    rhs: RationalFunction


@dataclass
class RelationReport:
    name: str
    checked: int = 0
    failures: list[RelationFailure] = field(default_factory=list)

    @property
    def status(self) -> str:
        """"skipped" when nothing was checked, else "fail" or "pass"."""
        if not self.checked:
            return "skipped"
        return "fail" if self.failures else "pass"


def verify_relation_suite(
    nt: NormalizedTable, invariants: InvariantTriple
) -> list[RelationReport]:
    """Run the internal-relation suite of an intermediate-series presentation.

    All relations are stated in the omega basis, where the underlying
    scaling unit enters only through its square, the invariant p.
    Relations whose index
    requirements exceed the window are reported as skipped, never as
    silently passed.
    """
    doc = nt.base
    red = doc.context.reduce
    h_min, h_max = doc.h_range
    j_min, j_max = doc.j_range
    k_min, k_max = doc.k_range
    p, b, a = invariants.p, invariants.b, invariants.a
    one = RF_ONE

    def h_window():
        return [m for m in range(h_min, h_max + 1) if m != 0]

    def ks_for(m):
        return [k for k in range(k_min, k_max + 1) if k_min <= k + m <= k_max]

    def base_value(m):
        # f_omega(m, 0, k) at the smallest applicable k; k-independence is
        # the subject of the constancy relation.
        ks = ks_for(m)
        return nt.f_omega(m, 0, ks[0]) if ks else None

    # Each relation yields its instances as (index, lhs, rhs).

    def raising_power_constancy():
        # f_omega(m, 0, k) independent of k.
        for m in h_window():
            ks = ks_for(m)
            if len(ks) < 2:
                continue
            reference = nt.f_omega(m, 0, ks[0])
            for k in ks[1:]:
                yield (m, 0, k), nt.f_omega(m, 0, k), reference

    def adjacent_difference_product():
        # (f(0,1,k) - f(0,1,k+1)) (f(0,-1,k) - f(0,-1,k+1)) = (1-q)(1-1/q).
        if not (j_min <= -1 and j_max >= 1):
            return
        target = red((one - RF_Q) * (one - q_pow(-1)))
        for k in range(k_min, k_max):
            lhs = (nt.f_omega(0, 1, k) - nt.f_omega(0, 1, k + 1)) * (
                nt.f_omega(0, -1, k) - nt.f_omega(0, -1, k + 1)
            )
            yield (k,), lhs, target

    def raising_power_ladder():
        # Ladder between consecutive raising powers:
        # (1-b^{m+1})/(1-q^{m+1}) F(m+1) = p (1-b)(1-b^m)/((1-q)(1-q^m)) F(m).
        for m in h_window():
            if m + 1 == 0 or not h_min <= m + 1 <= h_max:
                continue
            f_m = base_value(m)
            f_m1 = base_value(m + 1)
            if f_m is None or f_m1 is None:
                continue
            lhs = red((one - b ** (m + 1)) / (one - q_pow(m + 1))) * f_m1
            rhs = (
                p
                * red((one - b) * (one - b**m) / ((one - RF_Q) * (one - q_pow(m))))
                * f_m
            )
            yield (m,), lhs, rhs

    def first_level_lift():
        # f_omega(m, 1, k) = a b^k (1-b^m)/(1-q^m) f_omega(m, 0, k).
        if j_max < 1:
            return
        for m in h_window():
            for k in ks_for(m):
                lhs = nt.f_omega(m, 1, k)
                rhs = a * red(b**k * (one - b**m) / (one - q_pow(m))) * nt.f_omega(
                    m, 0, k
                )
                yield (m, 1, k), lhs, rhs

    def column_power_law():
        # f_omega(m, j, k) = (a b^k (1-b^m)/(1-q^m))^j F(m).
        for m in h_window():
            f_m = base_value(m)
            if f_m is None:
                continue
            for j in range(j_min, j_max + 1):
                for k in ks_for(m):
                    lhs = nt.f_omega(m, j, k)
                    rhs = (a * red(b**k * (one - b**m) / (one - q_pow(m)))) ** j * f_m
                    yield (m, j, k), lhs, rhs

    def descent_identity():
        # f_omega(1, j, k-1) - f_omega(1, j, k) = (q^{-j} - 1) f_omega(0, j, k).
        if h_max < 1:
            return
        for j in range(j_min, j_max + 1):
            if j == 0:
                continue
            for k in range(k_min + 1, k_max):
                lhs = nt.f_omega(1, j, k - 1) - nt.f_omega(1, j, k)
                rhs = red(q_pow(-j) - one) * nt.f_omega(0, j, k)
                yield (1, j, k), lhs, rhs

    def diagonal_closed_form():
        # f_omega(0, j, k) = p (1-b^j)/(q^{-j}-1) (a b^{k-1} (1-b)/(1-q))^j.
        for j in range(j_min, j_max + 1):
            if j == 0:
                continue
            lead = p * red((one - b**j) / (q_pow(-j) - one))
            for k in doc.degrees():
                lhs = nt.f_omega(0, j, k)
                rhs = lead * (a * red(b ** (k - 1) * (one - b) / (one - RF_Q))) ** j
                yield (0, j, k), lhs, rhs

    reports = []
    for name, instances in (
        ("raising-power-constancy", raising_power_constancy()),
        ("adjacent-difference-product", adjacent_difference_product()),
        ("raising-power-ladder", raising_power_ladder()),
        ("first-level-lift", first_level_lift()),
        ("column-power-law", column_power_law()),
        ("descent-identity", descent_identity()),
        ("diagonal-closed-form", diagonal_closed_form()),
    ):
        report = RelationReport(name)
        for index, lhs, rhs in instances:
            report.checked += 1
            if lhs != rhs:
                report.failures.append(RelationFailure(index, lhs, rhs))
        reports.append(report)
    return reports
