"""Structural analysis of windowed candidate-module tables.

A table presents coefficients f(h, j, k) for a candidate graded action.
This module checks the bracket-compatibility relation on the window,
performs the diagonal base change that makes the degree-raising operator
act with coefficient 1 (the "omega basis"), extracts the isomorphism
invariants (p, b, a), and runs the internal-relation suite that a genuine
intermediate-series presentation must satisfy.

All checks are exact; violations are data carried in reports, not
exceptions.  The scan and the relation suite compare through mismatches,
which forms no instance after the last failure its caller asks for.  A
numeric table is checked in Q: its entries are constants, and every q^n a
check forms is q0^n, read through FieldContext.q_pow.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

from .field import RF_ONE, RF_ZERO, RationalFunction
from .table import TableDocument
from .algebra import basis_indices


def mismatches(indices, sides):
    """Yield (index, lhs, rhs) for each index whose sides(*index) differ,
    lazily and in order: an index after the last one asked for is never formed."""
    for index in indices:
        lhs, rhs = sides(*index)
        if lhs != rhs:
            yield index, lhs, rhs


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
    not checkable and are skipped.  Instances run with (h, j) outermost,
    then (m, n), then k.  Returns the list of violations (empty means
    valid); stop_after caps the number collected, and no instance after
    the last one collected is formed.
    """
    h_min, h_max = doc.h_range
    j_min, j_max = doc.j_range
    k_min, k_max = doc.k_range
    entry = doc.entry
    dead = {k for k in doc.degrees() if doc.dim_at(k) != 1}
    pairs = basis_indices(doc.h_range, doc.j_range)
    instances = (
        (h, j, m, n, k)
        for h, j in pairs
        for m, n in pairs
        if (h + m, j + n) == (0, 0) or (h_min <= h + m <= h_max and j_min <= j + n <= j_max)
        # k, k+m, k+h and k+h+m all in the k-range
        for k in range(k_min - min(0, h, m, h + m), k_max - max(0, h, m, h + m) + 1)
        if dead.isdisjoint((k, k + m, k + h, k + h + m))
    )

    @functools.lru_cache(maxsize=None)
    def scalar(jm, nh):
        return doc.context.q_pow(jm) - doc.context.q_pow(nh)

    def sides(h, j, m, n, k):
        lhs = entry(m, n, k) * entry(h, j, k + m) - entry(h, j, k) * entry(m, n, h + k)
        if (h + m, j + n) == (0, 0):
            return lhs, RF_ZERO
        return lhs, scalar(j * m, n * h) * entry(h + m, j + n, k)

    return [
        Violation(*index, lhs, rhs)
        for index, lhs, rhs in itertools.islice(mismatches(instances, sides), stop_after)
    ]


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


def _constant(name, ks, value):
    """value(ks[0]), or NotConstant at the first k of ks where value(k) differs from it."""
    reference = value(ks[0])
    for (k,), found, _ in mismatches([(k,) for k in ks[1:]], lambda k: (value(k), reference)):
        raise NotConstant(name, k, found, reference)
    return reference


def extract_invariants(nt: NormalizedTable) -> InvariantTriple:
    """Compute (p, b, a), insisting on exact k-independence.

    Raises MissingData when the window carries too few entries, ZeroEntry
    when some f(0, 1, k) vanishes, and NotConstant when p or the ratio b
    varies with k.
    """
    f = nt.f_omega
    k_min, k_max = nt.base.k_range
    if k_max - k_min < 1:
        raise MissingData("window has fewer than two degrees")

    p = _constant("p", range(k_min, k_max), lambda k: f(1, 0, k) * f(-1, 0, k + 1))
    if p.is_zero:
        raise MissingData("no up-down composite available on the window")
    for k in nt.base.degrees():
        if f(0, 1, k).is_zero:
            raise ZeroEntry(0, 1, k)
    b = _constant("b", range(k_min, k_max), lambda k: f(0, 1, k + 1) / f(0, 1, k))
    return InvariantTriple(p=p, b=b, a=f(0, 1, k_min) * b ** (-k_min))


@dataclass(frozen=True)
class RelationReport:
    """One relation of the suite: its instance count and its first failure.

    first is the (index, lhs, rhs) of the first failing instance, None when
    every instance holds.  The instances after it are counted, not formed.
    """

    name: str
    checked: int
    first: Optional[tuple]

    @property
    def status(self) -> str:
        """"skipped" when nothing was checked, else "fail" or "pass"."""
        if not self.checked:
            return "skipped"
        return "fail" if self.first is not None else "pass"


def verify_relation_suite(
    nt: NormalizedTable, invariants: InvariantTriple
) -> list[RelationReport]:
    """Run the internal-relation suite of an intermediate-series presentation.

    All relations are stated in the omega basis, where the underlying
    scaling unit enters only through its square, the invariant p.
    Relations whose index requirements exceed the window are reported as
    skipped, never as silently passed.  Each relation is a list of instance
    indices and a function forming the two sides of one instance; a
    relation stops forming instances at its first failure.
    """
    doc = nt.base
    f = nt.f_omega
    q_pow = doc.context.q_pow
    h_min, h_max = doc.h_range
    j_min, j_max = doc.j_range
    k_min, k_max = doc.k_range
    p, b, a = invariants.p, invariants.b, invariants.a
    one, q = RF_ONE, q_pow(1)
    h_window = [m for m in range(h_min, h_max + 1) if m != 0]
    j_window = [j for j in range(j_min, j_max + 1) if j != 0]

    def ks_for(m):
        return [k for k in range(k_min, k_max + 1) if k_min <= k + m <= k_max]

    def base_value(m):
        # f_omega(m, 0, k) at the smallest applicable k; k-independence is
        # the subject of the constancy relation.
        return f(m, 0, ks_for(m)[0])

    def lift(m, k):
        # a b^k (1-b^m)/(1-q^m), the ratio f_omega(m, j+1, k) / f_omega(m, j, k).
        return a * (b**k * (one - b**m) / (one - q_pow(m)))

    def ladder(m):
        # Ladder between consecutive raising powers:
        # (1-b^{m+1})/(1-q^{m+1}) F(m+1) = p (1-b)(1-b^m)/((1-q)(1-q^m)) F(m).
        lhs = (one - b ** (m + 1)) / (one - q_pow(m + 1)) * base_value(m + 1)
        rhs = p * ((one - b) * (one - b**m) / ((one - q) * (one - q_pow(m)))) * base_value(m)
        return lhs, rhs

    def column(m, j, k):
        # f_omega(m, j, k) = (a b^k (1-b^m)/(1-q^m))^j F(m).  On an empty
        # column the power is not formed, but 0^j with j < 0 still raises.
        ratio, base = lift(m, k), base_value(m)
        return f(m, j, k), RF_ZERO if base.is_zero and not ratio.is_zero else ratio**j * base

    def diagonal(_, j, k):
        # f_omega(0, j, k) = p (1-b^j)/(q^{-j}-1) (a b^{k-1} (1-b)/(1-q))^j.
        lead = p * ((one - b**j) / (q_pow(-j) - one))
        return f(0, j, k), lead * (a * (b ** (k - 1) * (one - b) / (one - q))) ** j

    relations = (
        # f_omega(m, 0, k) independent of k.
        ("raising-power-constancy",
         [(m, 0, k) for m in h_window for k in ks_for(m)[1:]],
         lambda m, _, k: (f(m, 0, k), base_value(m))),
        # (f(0,1,k) - f(0,1,k+1)) (f(0,-1,k) - f(0,-1,k+1)) = (1-q)(1-1/q).
        ("adjacent-difference-product",
         [(k,) for k in range(k_min, k_max)] if j_min <= -1 and j_max >= 1 else [],
         lambda k: ((f(0, 1, k) - f(0, 1, k + 1)) * (f(0, -1, k) - f(0, -1, k + 1)),
                    (one - q) * (one - q_pow(-1)))),
        ("raising-power-ladder",
         [(m,) for m in h_window if m + 1 in h_window and ks_for(m) and ks_for(m + 1)],
         ladder),
        # f_omega(m, 1, k) = a b^k (1-b^m)/(1-q^m) f_omega(m, 0, k).
        ("first-level-lift",
         [(m, 1, k) for m in h_window for k in ks_for(m)] if j_max >= 1 else [],
         lambda m, _, k: (f(m, 1, k), lift(m, k) * f(m, 0, k))),
        ("column-power-law",
         [(m, j, k) for m in h_window for j in range(j_min, j_max + 1) for k in ks_for(m)],
         column),
        # f_omega(1, j, k-1) - f_omega(1, j, k) = (q^{-j} - 1) f_omega(0, j, k).
        ("descent-identity",
         [(1, j, k) for j in j_window for k in range(k_min + 1, k_max)] if h_max >= 1 else [],
         lambda _, j, k: (f(1, j, k - 1) - f(1, j, k), (q_pow(-j) - one) * f(0, j, k))),
        ("diagonal-closed-form",
         [(0, j, k) for j in j_window for k in doc.degrees()],
         diagonal),
    )
    return [
        RelationReport(name, len(indices), next(mismatches(indices, sides), None))
        for name, indices, sides in relations
    ]
