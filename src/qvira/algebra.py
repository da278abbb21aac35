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
from .expr import ExprSyntaxError, ValueTooLarge, parse_value, print_canonical

BasisIndex = tuple[int, int]


class Combination:
    """Finite linear combination over Q(q, a), keyed by basis index; immutable.

    Invariant: no stored coefficient is zero.  Instances of different
    subclasses never compare equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms = {key: c for key, c in (terms or {}).items() if not c.is_zero}

    @classmethod
    def _of(cls, terms: dict):
        """Wrap terms, which hold no zero, without copying them."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        terms = dict(self.terms)
        for key, c in other.terms.items():
            _accumulate(terms, key, c)
        return self._of(terms)

    def __neg__(self):
        return self._of({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar: RationalFunction):
        if scalar.is_zero:
            return self._of({})
        return self._of({key: c * scalar for key, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))


class AlgebraElement(Combination):
    """Finite linear combination of basis monomials t1^h t2^j, keyed by (h, j)."""

    __slots__ = ()

    def __init__(self, terms: Optional[dict[BasisIndex, RationalFunction]] = None):
        if terms and (0, 0) in terms:
            raise ValueError("basis index (0, 0) is excluded")
        super().__init__(terms)

    @staticmethod
    def zero() -> "AlgebraElement":
        return AlgebraElement()

    @staticmethod
    def basis(h: int, j: int, coeff: RationalFunction = RF_ONE) -> "AlgebraElement":
        return AlgebraElement({(h, j): coeff})

    def __repr__(self) -> str:
        return f"AlgebraElement({print_element(self)!r})"


def _accumulate(terms: dict, key, c: RationalFunction) -> None:
    """terms[key] += c, dropping key when the sum is zero."""
    s = terms.get(key)
    s = c if s is None else s + c
    if s.is_zero:
        terms.pop(key, None)
    else:
        terms[key] = s


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
    return AlgebraElement._of(acc)


def component_of_degree(x: AlgebraElement, u: int) -> AlgebraElement:
    """Sub-sum of terms with first exponent u."""
    return AlgebraElement._of({i: c for i, c in x.terms.items() if i[0] == u})


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

# The most terms an element's text may have, counted before any coefficient
# is read.  A bracket forms the product of its operands' term counts, and the
# products that meet on one basis index are summed with a gcd each, on values
# that grow with every sum.  On a 2-core Xeon, two elements of 16 terms with
# coefficients at the value caps did not finish in 60 s, and two of 3 terms
# took 70 s; 3 is the most terms random_element builds by default.
MAX_ELEMENT_TERMS = 3


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
    chunks = list(_split_top_level_terms(text))
    if len(chunks) > MAX_ELEMENT_TERMS:
        raise ValueTooLarge("an element has {} terms", len(chunks), MAX_ELEMENT_TERMS)
    terms: dict[BasisIndex, RationalFunction] = {}
    for offset, chunk in chunks:
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
