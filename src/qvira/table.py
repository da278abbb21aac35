"""Line-oriented action-table file format ("vlq-table").

A table document presents a candidate graded module on a finite index
window: per-degree dimensions plus the action coefficients f(h, j, k)
defined by (t1^h t2^j).v_k = f(h, j, k) v_{k+h}.

Format (UTF-8, "#" starts a comment, omitted entries denote zero):

    vlq-table 1
    mode symbolic            | mode numeric q=<rat> a=<rat>
    k-range <k_min> <k_max>
    dims <bitstring>         # one bit per degree, k_min first
    h-range <h_min> <h_max>
    j-range <j_min> <j_max>
    f <h> <j> <k> <expr>     # zero or more entry lines

Entry expressions are evaluated on parse, and in numeric mode then at (q0, a0)
by specialize, the one place a value of Q(q, a) becomes a value of Q, so a
numeric table is checked in Q.  Serialization prints entries canonically, so
write -> parse -> write is byte-identical.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Iterator, Optional

from . import field
from .field import FieldContext, FieldError, RationalFunction, RF_ZERO
from .expr import (
    _MAX_DIGITS,
    MAX_BITS,
    ExprSyntaxError,
    ValueTooLarge,
    check_value,
    echo,
    parse_value,
    print_canonical,
)
from .algebra import basis_indices

FORMAT_VERSION = 1
# The largest window parse_table accepts.  Validation checks every pair of
# basis indices (h, j) at every degree, so its cost grows with the square of
# the index count times the degree count; at these caps a full scan of a
# dense Laurent-monomial table takes a few seconds.
MAX_BASIS_INDICES = 80
MAX_DEGREES = 25


class TableSyntaxError(Exception):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class TableSemanticError(Exception):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclasses.dataclass
class TableDocument:
    """Validated in-memory form of a table file.

    Entries are canonical field elements; zero entries are never stored.
    Invariants: (h, j) != (0, 0), h and j inside their declared ranges,
    k and k+h inside k_range, and no entry touches a dimension-0 degree.
    """

    context: FieldContext
    k_range: tuple[int, int]
    dims: tuple[int, ...]
    h_range: tuple[int, int]
    j_range: tuple[int, int]
    entries: dict[tuple[int, int, int], RationalFunction] = dataclasses.field(default_factory=dict)

    def dim_at(self, k: int) -> int:
        k_min, k_max = self.k_range
        if not k_min <= k <= k_max:
            raise IndexError(f"degree {k} outside k-range")
        return self.dims[k - k_min]

    def degrees(self) -> range:
        return range(self.k_range[0], self.k_range[1] + 1)

    def cells(self) -> Iterator[tuple[int, int, int]]:
        """Every window cell (h, j, k) with k and k+h in the k-range, in
        (h, j, k) order; dimensions are not consulted."""
        k_min, k_max = self.k_range
        for h, j in basis_indices(self.h_range, self.j_range):
            for k in range(max(k_min, k_min - h), min(k_max, k_max - h) + 1):
                yield h, j, k

    def entry(self, h: int, j: int, k: int) -> RationalFunction:
        """f(h, j, k), reading omitted entries as zero."""
        return self.entries.get((h, j, k), RF_ZERO)


def _check_entry_indices(doc: TableDocument, h: int, j: int, k: int, line: int) -> None:
    if (h, j) == (0, 0):
        raise TableSemanticError(line, "index (h, j) = (0, 0) is excluded")
    if not doc.h_range[0] <= h <= doc.h_range[1]:
        raise TableSemanticError(line, f"h={h} outside h-range")
    if not doc.j_range[0] <= j <= doc.j_range[1]:
        raise TableSemanticError(line, f"j={j} outside j-range")
    k_min, k_max = doc.k_range
    if not (k_min <= k <= k_max and k_min <= k + h <= k_max):
        raise TableSemanticError(line, f"degrees k={k}, k+h={k + h} outside k-range")
    if doc.dim_at(k) == 0 or doc.dim_at(k + h) == 0:
        raise TableSemanticError(line, f"entry ({h},{j},{k}) touches a dimension-0 degree")


def specialize(x: RationalFunction, ctx: FieldContext) -> RationalFunction:
    """x itself in symbolic mode, else x evaluated at (q0, a0).  ValueTooLarge
    is raised first unless every term c q^e_q a^e_a of x is within MAX_BITS
    bits there, sized in O(1) as e_q bitlen(q0) + e_a bitlen(a0) + bitlen(c),
    the bit length of a fraction being that of its larger part."""
    if not ctx.is_numeric:
        return x
    bq = max(ctx.q0.numerator.bit_length(), ctx.q0.denominator.bit_length())
    ba = max(ctx.a0.numerator.bit_length(), ctx.a0.denominator.bit_length())
    for p in (x.num, x.den):
        for (eq, ea), c in p.terms.items():
            bits = eq * bq + ea * ba + c.bit_length()
            if bits > MAX_BITS:
                raise ValueTooLarge("a term has {} bits at the numeric point", bits, MAX_BITS)
    return field.substitute(x, ctx)


def parse_rational(text: str) -> Fraction:
    """A rational literal as Fraction reads it ("-3/4", "0.5", "1e3"), held
    to MAX_BITS bits in numerator and denominator.

    The text is sized before Fraction runs: a literal of more than twice
    _MAX_DIGITS characters, or one whose exponent has more than four digits,
    is refused, since Fraction would expand "1e999999999" in full.  Raises
    ValueError for text Fraction does not read.
    """
    if len(text) > 2 * _MAX_DIGITS + 2:
        raise ValueTooLarge("a rational literal has {} characters", len(text), 2 * _MAX_DIGITS + 2)
    exponent = text.lower().partition("e")[2].strip().lstrip("+-")
    if len(exponent) > 4:
        raise ValueTooLarge("a rational literal has an exponent of {} digits", len(exponent), 4)
    try:
        value = Fraction(text)
    except ValueError:
        raise ValueError(f"Invalid literal for Fraction: {echo(text)}") from None
    except ZeroDivisionError as exc:
        raise ValueError(str(exc)) from None
    check_value(RationalFunction.from_fraction(value))
    return value


def _parse_rational(text: str, line: int) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError:
        raise TableSyntaxError(line, f"bad rational literal {echo(text)}") from None
    except FieldError as exc:
        raise TableSemanticError(line, str(exc)) from None


def _format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _range_fields(lines, index, keyword) -> tuple[int, int]:
    lineno, fields = _header_fields(lines, index, keyword, 2)
    try:
        low, high = int(fields[0]), int(fields[1])
    except ValueError:
        raise TableSyntaxError(lineno, f"{keyword!r} bounds must be integers") from None
    if low > high:
        raise TableSemanticError(lineno, f"empty {keyword}")
    return low, high


def _split_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body))
    return out


def _header_fields(lines, index, keyword, count):
    if index >= len(lines):
        raise TableSyntaxError(len(lines) + 1, f"missing {keyword!r} line")
    lineno, body = lines[index]
    parts = body.split()
    if parts[0] != keyword:
        raise TableSyntaxError(lineno, f"expected {keyword!r} line, found {parts[0]!r}")
    if count is not None and len(parts) - 1 != count:
        raise TableSyntaxError(lineno, f"{keyword!r} takes {count} field(s)")
    return lineno, parts[1:]


def _degree_cap_error(k_range: tuple[int, int]) -> Optional[str]:
    degrees = k_range[1] - k_range[0] + 1
    if degrees > MAX_DEGREES:
        return f"k-range has {degrees} degrees, above the cap of {MAX_DEGREES}"
    return None


def _index_cap_error(h_range: tuple[int, int], j_range: tuple[int, int]) -> Optional[str]:
    # Counted, not enumerated: the declared box may be huge.
    box = (h_range[1] - h_range[0] + 1) * (j_range[1] - j_range[0] + 1)
    indices = box - (h_range[0] <= 0 <= h_range[1] and j_range[0] <= 0 <= j_range[1])
    if indices > MAX_BASIS_INDICES:
        return (
            f"h-range and j-range give {indices} basis indices (h, j),"
            f" above the cap of {MAX_BASIS_INDICES}"
        )
    return None


def check_window(
    k_range: tuple[int, int], h_range: tuple[int, int], j_range: tuple[int, int]
) -> None:
    """Raise ValueError for a window that parse_table would refuse as too large."""
    message = _degree_cap_error(k_range) or _index_cap_error(h_range, j_range)
    if message:
        raise ValueError(message)


def parse_table(text: str) -> TableDocument:
    lines = _split_lines(text)

    lineno, fields = _header_fields(lines, 0, "vlq-table", 1)
    if fields[0] != str(FORMAT_VERSION):
        raise TableSemanticError(lineno, f"unsupported format version {fields[0]!r}")

    lineno, fields = _header_fields(lines, 1, "mode", None)
    if fields == ["symbolic"]:
        context = FieldContext.symbolic()
    elif len(fields) == 3 and fields[0] == "numeric":
        assignments = {}
        for item in fields[1:]:
            name, _, value = item.partition("=")
            assignments[name] = _parse_rational(value, lineno)
        if set(assignments) != {"q", "a"}:
            raise TableSyntaxError(lineno, "numeric mode needs q=<rat> a=<rat>")
        try:
            context = FieldContext.numeric(assignments["q"], assignments["a"])
        except ValueError as exc:
            raise TableSemanticError(lineno, str(exc)) from None
    else:
        raise TableSyntaxError(lineno, "bad mode line")

    k_range = _range_fields(lines, 2, "k-range")
    message = _degree_cap_error(k_range)
    if message:
        raise TableSemanticError(lines[2][0], message)

    lineno, fields = _header_fields(lines, 3, "dims", 1)
    if set(fields[0]) - {"0", "1"}:
        raise TableSyntaxError(lineno, "dims must be a bitstring")
    dims = tuple(int(bit) for bit in fields[0])
    if len(dims) != k_range[1] - k_range[0] + 1:
        raise TableSemanticError(lineno, "dims length does not match k-range")

    h_range = _range_fields(lines, 4, "h-range")
    j_range = _range_fields(lines, 5, "j-range")
    message = _index_cap_error(h_range, j_range)
    if message:
        raise TableSemanticError(lines[5][0], message)

    doc = TableDocument(context, k_range, dims, h_range, j_range)
    seen: set[tuple[int, int, int]] = set()
    for lineno, body in lines[6:]:
        parts = body.split(None, 4)
        if parts[0] != "f":
            raise TableSyntaxError(lineno, f"expected an 'f' entry line, found {parts[0]!r}")
        if len(parts) != 5:
            raise TableSyntaxError(lineno, "entry line needs 'f <h> <j> <k> <expr>'")
        try:
            h, j, k = int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError:
            raise TableSyntaxError(lineno, "entry indices must be integers") from None
        key = (h, j, k)
        if key in seen:
            raise TableSemanticError(lineno, f"duplicate entry for ({h}, {j}, {k})")
        seen.add(key)
        _check_entry_indices(doc, h, j, k, lineno)
        try:
            value = specialize(parse_value(parts[4]), context)
        except ExprSyntaxError as exc:
            raise TableSyntaxError(lineno, str(exc)) from None
        except FieldError as exc:
            raise TableSemanticError(lineno, str(exc)) from None
        if not value.is_zero:
            doc.entries[key] = value
    return doc


def write_table(doc: TableDocument) -> str:
    """Deterministic serialization; entries sorted by (h, j, k)."""
    out = [f"vlq-table {FORMAT_VERSION}"]
    if doc.context.is_numeric:
        out.append(
            "mode numeric"
            f" q={_format_rational(doc.context.q0)}"
            f" a={_format_rational(doc.context.a0)}"
        )
    else:
        out.append("mode symbolic")
    out.append(f"k-range {doc.k_range[0]} {doc.k_range[1]}")
    out.append("dims " + "".join(str(bit) for bit in doc.dims))
    out.append(f"h-range {doc.h_range[0]} {doc.h_range[1]}")
    out.append(f"j-range {doc.j_range[0]} {doc.j_range[1]}")
    for (h, j, k) in sorted(doc.entries):
        out.append(f"f {h} {j} {k} {print_canonical(doc.entries[(h, j, k)])}")
    return "\n".join(out) + "\n"
