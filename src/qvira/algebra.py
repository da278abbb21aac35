"""The centerless q-deformed Virasoro-like Lie algebra.

Basis monomials t1^h t2^j are indexed by integer pairs (h, j) != (0, 0),
with bracket

    [t1^h t2^j, t1^m t2^n] = (q^{jm} - q^{hn}) t1^{h+m} t2^{j+n}.

The algebra is Z-graded by the first exponent.  A term landing on the
excluded index (0, 0) always carries the scalar q^{jm} - q^{hn} = 0 and
is dropped rather than materialized.
"""

from __future__ import annotations

import functools
import random
from typing import Iterable, Optional, Sequence

from .field import RF_ONE, RationalFunction, q_pow
from .expr import ExprSyntaxError, parse_value, print_canonical

BasisIndex = tuple[int, int]


class AlgebraElement:
    """Finite linear combination of basis monomials; immutable.

    Invariant: no stored coefficient is zero.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict[BasisIndex, RationalFunction]] = None):
        clean: dict[BasisIndex, RationalFunction] = {}
        if terms:
            for index, coeff in terms.items():
                if index == (0, 0):
                    raise ValueError("basis index (0, 0) is excluded")
                if not coeff.is_zero:
                    clean[index] = coeff
        self.terms = clean

    @staticmethod
    def zero() -> "AlgebraElement":
        return AlgebraElement()

    @staticmethod
    def basis(h: int, j: int, coeff: RationalFunction = RF_ONE) -> "AlgebraElement":
        return AlgebraElement({(h, j): coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        terms = dict(self.terms)
        for index, coeff in other.terms.items():
            _accumulate(terms, index, coeff)
        out = AlgebraElement.__new__(AlgebraElement)
        out.terms = terms
        return out

    def __neg__(self) -> "AlgebraElement":
        out = AlgebraElement.__new__(AlgebraElement)
        out.terms = {i: -c for i, c in self.terms.items()}
        return out

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, scalar: RationalFunction) -> "AlgebraElement":
        if scalar.is_zero:
            return AlgebraElement()
        out = AlgebraElement.__new__(AlgebraElement)
        out.terms = {i: c * scalar for i, c in self.terms.items()}
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraElement) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"AlgebraElement({print_element(self)!r})"


def _accumulate(coords: dict, key, c: RationalFunction) -> None:
    """coords[key] += c, dropping key when the sum is zero."""
    s = coords.get(key)
    s = c if s is None else s + c
    if s.is_zero:
        coords.pop(key, None)
    else:
        coords[key] = s


@functools.lru_cache(maxsize=None)
def _bracket_scalar(jm: int, hn: int) -> RationalFunction:
    """q^{jm} - q^{hn}, the structure constant of a basis bracket."""
    return q_pow(jm) - q_pow(hn)


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the defining bracket."""
    acc: dict[BasisIndex, RationalFunction] = {}
    for (h, j), cx in x.terms.items():
        for (m, n), cy in y.terms.items():
            if j * m == h * n:
                continue
            scalar = _bracket_scalar(j * m, h * n)
            index = (h + m, j + n)
            # (0, 0) cannot occur here: h+m = j+n = 0 forces jm = hn.
            _accumulate(acc, index, cx * cy * scalar)
    out = AlgebraElement.__new__(AlgebraElement)
    out.terms = acc
    return out


def component_of_degree(x: AlgebraElement, u: int) -> AlgebraElement:
    """Sub-sum of terms with first exponent u."""
    out = AlgebraElement.__new__(AlgebraElement)
    out.terms = {i: c for i, c in x.terms.items() if i[0] == u}
    return out


def degrees(x: AlgebraElement) -> list[int]:
    return sorted({i[0] for i in x.terms})


def basis_indices(
    h_range: tuple[int, int], j_range: tuple[int, int]
) -> list[BasisIndex]:
    """The basis indices (h, j) != (0, 0) of an inclusive box, h outermost."""
    return [
        (h, j)
        for h in range(h_range[0], h_range[1] + 1)
        for j in range(j_range[0], j_range[1] + 1)
        if (h, j) != (0, 0)
    ]


def random_element(
    seed: int,
    index_bound: int,
    coeff_pool: Sequence[RationalFunction],
    max_terms: int = 3,
) -> AlgebraElement:
    """Seed-deterministic random element with indices in the given box."""
    if index_bound < 1:
        raise ValueError("index_bound must be at least 1")
    rng = random.Random(seed)
    box = (-index_bound, index_bound)
    indices = basis_indices(box, box)
    terms: dict[BasisIndex, RationalFunction] = {}
    for index in rng.sample(indices, rng.randint(1, max_terms)):
        terms[index] = coeff_pool[rng.randrange(len(coeff_pool))]
    return AlgebraElement(terms)


# -- element text syntax --------------------------------------------------
#
# A sum of terms "c*t[h,j]" with c a field expression, e.g.
# "3*t[1,2] + (q^2-1)*t[-1,0]".  "0" denotes the zero element.


def _split_top_level_terms(text: str) -> Iterable[tuple[int, str]]:
    """Yield (offset, chunk) split at depth-0 '+'/'-' between terms."""
    depth = 0
    start = 0
    previous = ""
    for position, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch in "+-" and depth == 0 and previous not in ("", "+", "-", "*", "/", "^", "("):
            yield start, text[start:position]
            start = position
        if not ch.isspace():
            previous = ch
    yield start, text[start:]


class ElementSyntaxError(Exception):
    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"at position {position}: {message}")


def _parse_term(offset: int, chunk: str) -> tuple[BasisIndex, RationalFunction]:
    cut = chunk.find("t[")
    if cut < 0:
        raise ElementSyntaxError(offset + 1, "term has no basis monomial 't[h,j]'")
    closing = chunk.find("]", cut)
    if closing < 0 or chunk[closing + 1 :].strip():
        raise ElementSyntaxError(offset + cut + 2, "malformed basis monomial")
    inner = chunk[cut + 2 : closing].split(",")
    if len(inner) != 2:
        raise ElementSyntaxError(offset + cut + 2, "basis monomial needs two indices")
    try:
        h, j = int(inner[0]), int(inner[1])
    except ValueError:
        raise ElementSyntaxError(offset + cut + 2, "basis indices must be integers") from None
    if (h, j) == (0, 0):
        raise ElementSyntaxError(offset + cut + 2, "basis index (0, 0) is excluded")

    head = chunk[:cut].strip()
    sign = RF_ONE
    while head.startswith(("+", "-")):
        if head[0] == "-":
            sign = -sign
        head = head[1:].strip()
    if head.endswith("*"):
        head = head[:-1].strip()
    if not head:
        coeff = sign
    else:
        try:
            coeff = sign * parse_value(head)
        except ExprSyntaxError as exc:
            raise ElementSyntaxError(offset + exc.position, exc.expected) from None
    return (h, j), coeff


def parse_element(text: str) -> AlgebraElement:
    if text.strip() == "0":
        return AlgebraElement()
    terms: dict[BasisIndex, RationalFunction] = {}
    for offset, chunk in _split_top_level_terms(text):
        if not chunk.strip():
            raise ElementSyntaxError(offset + 1, "empty term")
        _accumulate(terms, *_parse_term(offset, chunk))
    return AlgebraElement(terms)


def print_element(x: AlgebraElement) -> str:
    """Deterministic element syntax; terms sorted by (h, j)."""
    if x.is_zero:
        return "0"
    pieces = []
    for (h, j) in sorted(x.terms):
        coeff = x.terms[(h, j)]
        text = print_canonical(coeff)
        if text == "1":
            pieces.append(f"t[{h},{j}]")
        elif _is_bare_factor(text):
            pieces.append(f"{text}*t[{h},{j}]")
        else:
            pieces.append(f"({text})*t[{h},{j}]")
    return " + ".join(pieces)


def _is_bare_factor(text: str) -> bool:
    # A single positive monomial like "3*q^2*a" multiplies cleanly without
    # extra parentheses; anything with a sign, sum, or fraction does not.
    return not any(ch in text for ch in "+- /(")
