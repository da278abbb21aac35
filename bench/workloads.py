"""Seeded request schedules for the qvira benchmark, with their answers.

Every table is written from the closed forms in this file, never from
qvira, as unexpanded expressions such as ``-(a*q^-5)^-3`` or
``3/7*q^2*((q+1)/a*q^2)^-1``.  The expected exit code and the
``verdict`` / ``orientation`` / ``a`` / ``family`` / ``reason`` lines follow
from the construction.  The ``witness`` line is not pinned.

A schedule is a list of requests.  Each request is a dict with

    kind   the mix class it belongs to
    table  the table text, or None when the request reads no table
    argv   the ``qvira`` argument list; ``{table}`` stands for the table path
    code   the expected exit code
    lines  the expected output lines, ``witness`` lines left out

The mix classes repeat in a fixed cycle, so the share of each class in any
prefix of a schedule does not depend on the seed.  The families rotate
through I..IV from a seeded offset (from I, for classify-generic).  The
seed picks the parameters, gauges, numeric contexts, the start of the
sequence of perturbed cells and the order of table lines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

FAMILIES = ("I", "II", "III", "IV")

# f(m, n, k) = (-1)^s(m, n) * (A q^e(m, k))^n, per family.
_SIGN_EXP = {
    "I": lambda m, n: 0,
    "II": lambda m, n: m,
    "III": lambda m, n: m + n + 1,
    "IV": lambda m, n: n + 1,
}
_Q_EXP = {
    "I": lambda m, k: k,
    "II": lambda m, k: k,
    "III": lambda m, k: -k - m,
    "IV": lambda m, k: -k - m,
}
# Families I and II have the ratio f(0,1,k+1)/f(0,1,k) = q, III and IV 1/q.
ORIENTATION = {"I": "forward", "II": "forward", "III": "reverse", "IV": "reverse"}


@dataclass(frozen=True)
class Param:
    """A module parameter A.

    text       expression that may be followed by ``*q^e`` unchanged
    canonical  qvira's canonical print of A, by the documented rules
    monomial   (c, e_q, e_a) with A = c q^e_q a^e_a, None when A is not one
    """

    text: str
    canonical: str
    monomial: Optional[tuple[int, int, int]] = None

    def at(self, q0: Fraction, a0: Fraction) -> Fraction:
        c, e_q, e_a = self.monomial
        return c * q0**e_q * a0**e_a


MONOMIAL_PARAMS = (
    Param("a", "a", (1, 0, 1)),
    Param("q", "q", (1, 1, 0)),
    Param("1", "1", (1, 0, 0)),
    Param("-1", "-1", (-1, 0, 0)),
    Param("q^-3", "(1)/(q^3)", (1, -3, 0)),
    Param("a^2", "a^2", (1, 0, 2)),
)
GENERIC_PARAMS = (
    Param("(q+1)/a", "(q + 1)/(a)"),
    Param("(q+a)", "q + a"),
    Param("(a^2+q)/(q-1)", "(a^2 + q)/(q - 1)"),
)
NUMERIC_CONTEXTS = (
    (Fraction(2), Fraction(3)),
    (Fraction(-2), Fraction(5)),
    (Fraction(1, 3), Fraction(-7, 2)),
)
# Per-degree gauge factors r_k q^t_k.
_GAUGE_RATIONALS = tuple(Fraction(x) for x in ("1", "2", "-2", "3", "3/7", "-5/2", "7/3"))
_GAUGE_Q_EXPS = (-2, -1, 0, 1, 2)

# (h, j, k) bounds of the symmetric windows.
MODULE_WINDOW = (3, 3, 6)
MINIMAL_WINDOW = (2, 2, 3)
# (h, j, k) ranges of (3,3,6) windows with one side too small for classify,
# which needs h and j to reach -2 and 2, and k to span 5.
SMALL_WINDOWS = (
    ((-3, 1), (-3, 3), (-6, 6)),
    ((-1, 3), (-3, 3), (-6, 6)),
    ((-3, 3), (-3, 1), (-6, 6)),
    ((-3, 3), (-1, 3), (-6, 6)),
    ((-3, 3), (-3, 3), (-2, 2)),
)
AXIOM_BOUND, AXIOM_KMAX = 2, 4
# check-axioms checks every ordered pair of basis elements at every degree.
AXIOM_INSTANCES = ((2 * AXIOM_BOUND + 1) ** 2 - 1) ** 2 * (2 * AXIOM_KMAX + 1)

# Requests per schedule.  classify-reject serves about 200 requests in a
# 24 s run; a schedule that long keeps them distinct, so its tail percentile
# rests on many tables rather than on a few served again and again.
SCHEDULE_LENGTH = {"classify-reject": 300}
DEFAULT_SCHEDULE_LENGTH = 60
_GOLDEN = (5**0.5 - 1) / 2


def _rational_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _constant_canonical(x: Fraction) -> str:
    """qvira's canonical print of a nonzero rational constant."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"({x.numerator})/({x.denominator})"


def sign(family: str, m: int, n: int) -> int:
    return -1 if _SIGN_EXP[family](m, n) % 2 else 1


def entry_text(
    family: str, param: Param, m: int, n: int, k: int,
    scale: Fraction = Fraction(1), q_shift: int = 0,
) -> str:
    """f(m, n, k) of the family, times scale * q^q_shift, unexpanded."""
    e = _Q_EXP[family](m, k)
    base = f"({param.text})" if e == 0 else f"({param.text}*q^{e})"
    coeff = sign(family, m, n) * scale
    prefix = "" if coeff == 1 else "-" if coeff == -1 else _rational_text(coeff) + "*"
    if q_shift:
        prefix += f"q^{q_shift}*"
    return f"{prefix}{base}^{n}"


def cells(h_range, j_range, k_range):
    """Window cells (h, j, k) in scan order: (h, j) != (0, 0), k, k+h in range."""
    k_min, k_max = k_range
    for h in range(h_range[0], h_range[1] + 1):
        for j in range(j_range[0], j_range[1] + 1):
            if (h, j) == (0, 0):
                continue
            for k in range(k_min, k_max + 1):
                if k_min <= k + h <= k_max:
                    yield h, j, k


def _symmetric(bounds):
    h, j, k = bounds
    return (-h, h), (-j, j), (-k, k)


def table_text(rng, h_range, j_range, k_range, lines, context=None) -> str:
    """A vlq-table with the given entry lines in seeded order."""
    if context is None:
        mode = "mode symbolic"
    else:
        mode = f"mode numeric q={_rational_text(context[0])} a={_rational_text(context[1])}"
    body = list(lines)
    rng.shuffle(body)
    header = [
        "vlq-table 1",
        mode,
        f"k-range {k_range[0]} {k_range[1]}",
        "dims " + "1" * (k_range[1] - k_range[0] + 1),
        f"h-range {h_range[0]} {h_range[1]}",
        f"j-range {j_range[0]} {j_range[1]}",
    ]
    return "\n".join(header + body) + "\n"


def _family_lines(family, param, window, entry=entry_text):
    return {(h, j, k): f"f {h} {j} {k} {entry(family, param, h, j, k)}" for h, j, k in cells(*window)}


def _iso_lines(family, a_canonical, verbatim=True):
    lines = ["verdict iso-class", f"orientation {ORIENTATION[family]}", f"a {a_canonical}"]
    if verbatim:
        lines.append(f"family {family}")
    return lines


def _classify(kind, text, code, lines):
    return {"kind": kind, "table": text, "argv": ["classify", "{table}"], "code": code, "lines": lines}


def _inconsistent(kind, text, reason):
    return _classify(kind, text, 1, ["verdict inconsistent", f"reason {reason}"])


def _gauge(rng, k_range):
    """Per-degree factors s_k = r_k q^t_k that change some f(1, 0, k) away from +-1."""
    while True:
        s = {k: (rng.choice(_GAUGE_RATIONALS), rng.choice(_GAUGE_Q_EXPS))
             for k in range(k_range[0], k_range[1] + 1)}
        if any(s[k] != s[k + 1] and s[k] != (-s[k + 1][0], s[k + 1][1])
               for k in range(k_range[0], k_range[1])):
            return s


_ACCEPT_CYCLE = ("verbatim", "verbatim", "gauge", "verbatim", "numeric")
_REJECT_CYCLE = ("flip", "flip", "removed", "flip", "small")


def _accept(rng, index, family, phase):
    """(3,3,6) module tables: 3 verbatim symbolic : 1 gauge : 1 numeric."""
    kind = _ACCEPT_CYCLE[index % len(_ACCEPT_CYCLE)]
    param = rng.choice(MONOMIAL_PARAMS)
    window = _symmetric(MODULE_WINDOW)
    if kind == "verbatim":
        text = table_text(rng, *window, _family_lines(family, param, window).values())
        return _classify(kind, text, 0, _iso_lines(family, param.canonical))
    if kind == "gauge":
        s = _gauge(rng, window[2])

        def gauged(family, param, h, j, k):
            # f'(h, j, k) = f(h, j, k) s_k / s_{k+h}
            return entry_text(family, param, h, j, k, s[k][0] / s[k + h][0], s[k][1] - s[k + h][1])

        text = table_text(rng, *window, _family_lines(family, param, window, gauged).values())
        return _classify(kind, text, 0, _iso_lines(family, param.canonical, verbatim=False))
    context = rng.choice(NUMERIC_CONTEXTS)
    text = table_text(rng, *window, _family_lines(family, param, window).values(), context)
    return _classify(kind, text, 0, _iso_lines(family, _constant_canonical(param.at(*context))))


def _reject(rng, index, family, phase):
    """(3,3,6) tables that are not modules: 3 flips : 1 removed raise : 1 small window.

    The flipped cells step through the window in scan order by the golden
    ratio from a seeded start, so every prefix of a schedule spreads its
    flips, and the witness positions, alike.
    """
    cycle, at = divmod(index, len(_REJECT_CYCLE))
    kind = _REJECT_CYCLE[at]
    param = rng.choice(MONOMIAL_PARAMS)
    window = _symmetric(MODULE_WINDOW)
    if kind == "flip":
        lines = _family_lines(family, param, window)
        per_cycle = _REJECT_CYCLE.count("flip")
        flip = cycle * per_cycle + _REJECT_CYCLE[:at].count("flip")
        h, j, k = list(lines)[int((phase + flip * _GOLDEN) % 1 * len(lines))]
        lines[(h, j, k)] += "+1"
        # Up and down entries are the constant sign; +1 zeroes them when it is -1.
        zeroed = (h, j) in ((1, 0), (-1, 0)) and sign(family, h, j) == -1
        reason = "degenerate-nonzero" if zeroed else "bracket-relation"
        return _inconsistent(kind, table_text(rng, *window, lines.values()), reason)
    if kind == "removed":
        lines = _family_lines(family, param, window)
        del lines[(1, 0, rng.randrange(window[2][0], window[2][1]))]
        return _inconsistent(kind, table_text(rng, *window, lines.values()), "degenerate-nonzero")
    small = rng.choice(SMALL_WINDOWS)
    text = table_text(rng, *small, _family_lines(family, param, small).values())
    return _inconsistent(kind, text, "window-too-small")


def _generic(rng, index, family, phase):
    """Minimal (2,2,3) module tables, one class per non-monomial parameter.

    Request cost depends strongly on the (family, parameter) pair, so both
    follow a fixed order; the seed only orders the table lines.
    """
    family = FAMILIES[index % len(FAMILIES)]
    param = GENERIC_PARAMS[index % len(GENERIC_PARAMS)]
    window = _symmetric(MINIMAL_WINDOW)
    text = table_text(rng, *window, _family_lines(family, param, window).values())
    return _classify(param.text, text, 0, _iso_lines(family, param.canonical))


def _axiom(rng, index, family, phase):
    """check-axioms on a family and monomial parameter, parameters in turn."""
    param = MONOMIAL_PARAMS[(index + int(phase * len(MONOMIAL_PARAMS))) % len(MONOMIAL_PARAMS)]
    return {
        "kind": "axiom",
        "table": None,
        "argv": ["check-axioms", "--family", family, f"--a={param.text}",
                 "--bound", str(AXIOM_BOUND), "--kmax", str(AXIOM_KMAX)],
        "code": 0,
        "lines": [f"checked {AXIOM_INSTANCES}", "result pass"],
    }


WORKLOADS = {
    "classify-accept": _accept,
    "classify-reject": _reject,
    "classify-generic": _generic,
    "axiom-sweep": _axiom,
}


def schedule(workload: str, seed: int) -> list[dict]:
    """The seeded request schedule of a workload."""
    make = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    offset = rng.randrange(len(FAMILIES))
    phase = rng.random()
    length = SCHEDULE_LENGTH.get(workload, DEFAULT_SCHEDULE_LENGTH)
    return [make(rng, i, FAMILIES[(i + offset) % len(FAMILIES)], phase) for i in range(length)]
