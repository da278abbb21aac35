"""Differential test of classify against a validate-first reference.

classify proves a positive verdict by the closed model, scans the bracket
relation only when that proof fails, and reads the verbatim family off the
up-chain f(1, 0, k).  The reference below runs the scan first, writes the
two closed models out by hand and names the verbatim family by comparing
every window cell with each family in turn, so every verdict, reason,
witness and family must come out the same on the corpus: the families at
several parameters, diagonal gauges (random, (-1)^k and c^k), single-entry
+1 flips, a removed raising coefficient, zero-dimension, degenerate and
too-small windows, and numeric contexts.  validate, which skips its scan
when the closed model proves a table, must print what the scan alone does.
"""

import random
from fractions import Fraction

import pytest

from qvira.classifier import (
    Inconsistent,
    IsoClass,
    Orientation,
    Reason,
    TrivialSum,
    classify,
    orientation_from_b,
)
from qvira.expr import parse_value
from qvira.families import Family, action_coeff, gen_table
from qvira.field import RF_ONE, RF_ZERO, FieldContext, q_pow, rf_int, sign_pow
from qvira.presentation import (
    DegenerateTable,
    MissingData,
    NotConstant,
    ZeroEntry,
    degeneracy_test,
    extract_invariants,
    omega_normalize,
    validate_table,
)
from qvira import cli
from qvira.cli import dispatch
from qvira.table import TableDocument, specialize, write_table

SYMBOLIC = FieldContext.symbolic()
PARAMS = ("a", "q", "1", "-1", "q^-3", "(q+1)/a", "a^2")
NUMERIC = tuple(
    FieldContext.numeric(Fraction(q0), Fraction(a0))
    for q0, a0 in (("2", "3"), ("-2", "5"), ("1/3", "-7/2"))
)
# Up, down, f(0, +-1, k) and a few interior cells.
FLIPS = ((1, 0, 0), (-1, 0, 1), (0, 1, 0), (0, -1, 2), (2, 2, 1), (-2, 1, -1), (1, -2, -3))


def _model_coeff(orientation, a, h, j, k):
    """Omega-basis closed model entry for the given orientation."""
    if orientation is Orientation.FORWARD:
        return (a * q_pow(k)) ** j
    return sign_pow(h + j + 1) * (a * q_pow(-k - h)) ** j


def _matches_family_verbatim(doc, family, a):
    k_min, k_max = doc.k_range
    for h in range(doc.h_range[0], doc.h_range[1] + 1):
        for j in range(doc.j_range[0], doc.j_range[1] + 1):
            if (h, j) == (0, 0):
                continue
            for k in range(k_min, k_max + 1):
                if not k_min <= k + h <= k_max:
                    continue
                if doc.entry(h, j, k) != specialize(action_coeff(family, a, h, j, k), doc.context):
                    return False
    return True


def reference_classify(doc: TableDocument):
    """classify with the full bracket scan ahead of the closed model."""
    h_min, h_max = doc.h_range
    j_min, j_max = doc.j_range
    k_min, k_max = doc.k_range
    if h_max < 2 or h_min > -2 or j_max < 2 or j_min > -2 or k_max - k_min < 5:
        return Inconsistent(
            Reason.WINDOW_TOO_SMALL,
            witness={"h_range": doc.h_range, "j_range": doc.j_range, "k_range": doc.k_range},
        )
    verdict = degeneracy_test(doc)
    if verdict is not None:
        if not doc.entries:
            return TrivialSum()
        return Inconsistent(Reason.DEGENERATE_NONZERO, witness=verdict)

    violations = validate_table(doc, stop_after=1)
    if violations:
        return Inconsistent(Reason.BRACKET_RELATION, witness=violations[0])

    try:
        nt = omega_normalize(doc)
        invariants = extract_invariants(nt)
    except DegenerateTable as exc:
        return Inconsistent(Reason.DEGENERATE_NONZERO, witness=exc.k)
    except NotConstant as exc:
        reason = Reason.P_NOT_ONE if exc.invariant == "p" else Reason.BAD_RATIO
        return Inconsistent(reason, witness=(exc.invariant, exc.k, exc.value, exc.reference))
    except (MissingData, ZeroEntry) as exc:
        return Inconsistent(Reason.BAD_RATIO, witness=str(exc))
    if invariants.p != specialize(RF_ONE, doc.context):
        return Inconsistent(Reason.P_NOT_ONE, witness=invariants.p)
    orientation = orientation_from_b(invariants.b, doc.context)
    if orientation is None:
        return Inconsistent(Reason.BAD_RATIO, witness=invariants.b)
    a = invariants.a
    if a.is_zero:
        return Inconsistent(Reason.BAD_RATIO, witness=a)

    # Every cell normalized up front, from the scalings alone.
    s = nt.scalings
    omega = {(h, j, k): v * s[k] / s[k + h] for (h, j, k), v in doc.entries.items()}
    for h in range(h_min, h_max + 1):
        for j in range(j_min, j_max + 1):
            if (h, j) == (0, 0):
                continue
            for k in range(k_min, k_max + 1):
                if not k_min <= k + h <= k_max:
                    continue
                model = specialize(_model_coeff(orientation, a, h, j, k), doc.context)
                cell = omega.get((h, j, k), RF_ZERO)
                if cell != model:
                    return Inconsistent(
                        Reason.CLOSED_FORM_MISMATCH, witness=((h, j, k), cell, model)
                    )
    exact_family = next((f for f in Family if _matches_family_verbatim(doc, f, a)), None)
    return IsoClass(orientation=orientation, a=a, exact_family=exact_family)


def _table(family, param="a", context=SYMBOLIC, h=2, j=2, k=3):
    return gen_table(family, parse_value(param), h, j, k, context)


def _with_entries(doc, entries, dims=None):
    return TableDocument(
        context=doc.context,
        k_range=doc.k_range,
        dims=doc.dims if dims is None else dims,
        h_range=doc.h_range,
        j_range=doc.j_range,
        entries={key: value for key, value in entries.items() if not value.is_zero},
    )


def _gauged(doc, scale):
    return _with_entries(
        doc,
        {(h, j, k): v * scale[k] / scale[k + h] for (h, j, k), v in doc.entries.items()},
    )


def _random_gauge(family, seed):
    rng = random.Random(seed)
    doc = _table(family)
    scale = {
        k: rf_int(rng.choice((1, 2, -3, 5))) / rf_int(rng.choice((1, 3, 7))) * q_pow(rng.randint(-2, 2))
        for k in doc.degrees()
    }
    return _gauged(doc, scale)


def _geometric_gauge(family, ratio, context=SYMBOLIC):
    # s_k = ratio^k makes the up-chain f(1, 0, k) constant, ratio^-1 times
    # the family's own.
    doc = _table(family, context=context)
    return _gauged(doc, {k: rf_int(ratio) ** k for k in doc.degrees()})


def _flipped(family, cell, context=SYMBOLIC):
    doc = _table(family, context=context)
    entries = dict(doc.entries)
    entries[cell] = entries.get(cell, RF_ZERO) + RF_ONE
    return _with_entries(doc, entries)


def _removed_up(family, k):
    doc = _table(family)
    entries = dict(doc.entries)
    del entries[(1, 0, k)]
    return _with_entries(doc, entries)


def _dead_degree(family, keep_entries):
    doc = _table(family)
    dims = (1, 1, 1, 0, 1, 1, 1)
    entries = {
        (h, j, k): v for (h, j, k), v in doc.entries.items()
        if keep_entries and 0 not in (k, k + h)
    }
    return _with_entries(doc, entries, dims)


def _twisted_lam(family, lam):
    # Up coefficients scaled by lam, down left alone: p becomes lam.
    doc = _table(family)
    return _with_entries(
        doc,
        {key: v * rf_int(lam) if key[:2] == (1, 0) else v for key, v in doc.entries.items()},
    )


CASES = {}
for _family in Family:
    _name = _family.value
    for _param in PARAMS:
        CASES[f"{_name}-{_param}"] = lambda f=_family, p=_param: _table(f, p)
    for _i, _context in enumerate(NUMERIC):
        CASES[f"{_name}-numeric{_i}"] = lambda f=_family, c=_context: _table(f, "a", c)
    CASES[f"{_name}-gauge"] = lambda f=_family: _random_gauge(f, f.value)
    CASES[f"{_name}-sign-gauge"] = lambda f=_family: _geometric_gauge(f, -1)
    CASES[f"{_name}-sign-gauge-numeric"] = lambda f=_family: _geometric_gauge(f, -1, NUMERIC[1])
    CASES[f"{_name}-geometric-gauge"] = lambda f=_family: _geometric_gauge(f, 2)
    for _cell in FLIPS:
        CASES[f"{_name}-flip{_cell}"] = lambda f=_family, c=_cell: _flipped(f, c)
    CASES[f"{_name}-removed-up"] = lambda f=_family: _removed_up(f, 0)
    CASES[f"{_name}-p-two"] = lambda f=_family: _twisted_lam(f, 2)
CASES.update({
    "I-gauge-a+1": lambda: _gauged(
        _table(Family.I), {k: parse_value("a + 1") ** abs(k) for k in range(-3, 4)}
    ),
    "II-numeric-flip": lambda: _flipped(Family.II, (1, 1, 0), NUMERIC[0]),
    "III-numeric-flip-up": lambda: _flipped(Family.III, (1, 0, -1), NUMERIC[2]),
    "IV-numeric-param": lambda: _table(Family.IV, "(q+1)/a", NUMERIC[1]),
    "III-removed-up-edge": lambda: _removed_up(Family.III, -3),
    "dead-degree-empty": lambda: _dead_degree(Family.I, keep_entries=False),
    "dead-degree-entries": lambda: _dead_degree(Family.IV, keep_entries=True),
    "empty": lambda: _with_entries(_table(Family.I), {}),
    "only-diagonal": lambda: _with_entries(
        _table(Family.II), {key: v for key, v in _table(Family.II).entries.items() if key[0] == 0}
    ),
    "small-h": lambda: _table(Family.I, h=1),
    "small-j": lambda: _table(Family.III, j=1),
    "small-k": lambda: _table(Family.II, k=2),
})


@pytest.mark.parametrize("case", list(CASES))
def test_matches_validate_first_reference(case):
    doc = CASES[case]()
    expected = reference_classify(doc)
    result = classify(doc)
    assert result == expected
    assert repr(result) == repr(expected)


@pytest.mark.parametrize("case", list(CASES))
def test_validate_matches_scan_only(case, tmp_path, capsys, monkeypatch):
    # validate prints "valid" without a scan when the closed-model proof
    # holds; its output must be what the scan alone prints.
    path = tmp_path / "table.vlq"
    path.write_text(write_table(CASES[case]()))
    code = dispatch(["validate", str(path)])
    output = capsys.readouterr()
    monkeypatch.setattr(cli, "prove", lambda doc: None)
    assert (dispatch(["validate", str(path)]), capsys.readouterr()) == (code, output)
