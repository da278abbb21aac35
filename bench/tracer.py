"""Per-layer tracing of qvira from outside the program.

``Tracer.install`` replaces public qvira functions with timing and counting
wrappers at the binding their caller uses (the caller's module global, or a
``RationalFunction`` method), so nothing in the package changes.  Three
kinds of wrapper:

* spans: stored with name, start, end, parent span and request id; a span's
  self time is its duration minus that of its child spans;
* field ops: outermost ``RationalFunction`` + - * / ** neg inverse, counted
  and timed per request rather than one span each;
* counters: calls of a function, or calls that take a given path.

Spans are kept in memory and written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

# (module, attribute, span name)
SPANS = (
    ("qvira.cli", "dispatch", "cli.dispatch"),
    ("qvira.cli", "parse_table", "table.parse"),
    ("qvira.cli", "parse_value", "expr.parse_value"),
    ("qvira.cli", "classify", "classifier.classify"),
    ("qvira.cli", "print_canonical", "expr.print"),
    ("qvira.cli", "verify_axiom", "families.verify_axiom"),
    ("qvira.table", "parse_value", "expr.parse_value"),
    ("qvira.classifier", "degeneracy_test", "presentation.degeneracy"),
    ("qvira.classifier", "omega_normalize", "presentation.normalize"),
    ("qvira.classifier", "extract_invariants", "presentation.invariants"),
    ("qvira.families", "bracket", "algebra.bracket"),
    ("qvira.families", "act", "families.act"),
)
FIELD_OPS = ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__", "__neg__", "inverse")


def _gcd_fallback(p, r):
    # poly_gcd reaches sympy only for two nonzero non-monomials.
    return not (p.is_zero or r.is_zero or p.is_monomial or r.is_monomial)


def _div_fallback(p, d):
    # poly_exact_div reaches sympy only for a nonzero p over a non-monomial d.
    return not (p.is_zero or d.is_zero or d.is_monomial)


# (module, attribute, counter name, predicate on the arguments or None)
COUNTERS = (
    ("qvira.field", "poly_gcd", "field.gcd_fallbacks", _gcd_fallback),
    ("qvira.field", "poly_exact_div", "field.div_fallbacks", _div_fallback),
    ("qvira.field", "substitute", "field.substitute_calls", None),
    ("qvira.classifier", "action_coeff", "classifier.action_coeff_calls", None),
)


@functools.lru_cache(maxsize=None)
def full_scan(h_range, j_range, k_range, dims):
    return _scan(h_range, j_range, k_range, dims, None)


def _scan(h_range, j_range, k_range, dims, stop):
    """Instances validate_table checks, in its scan order, up to stop.

    Mirrors the documented skip rules: a target (h+m, j+n) outside the
    window, other than (0, 0), is skipped, as is any k whose degrees k, k+m,
    k+h, k+h+m leave the k-range or touch a dimension-0 degree.
    """
    h_min, h_max = h_range
    j_min, j_max = j_range
    k_min, k_max = k_range
    indices = [
        (h, j) for h in range(h_min, h_max + 1) for j in range(j_min, j_max + 1) if (h, j) != (0, 0)
    ]
    count = 0
    for h, j in indices:
        for m, n in indices:
            t_h, t_j = h + m, j + n
            if (t_h, t_j) != (0, 0) and not (h_min <= t_h <= h_max and j_min <= t_j <= j_max):
                continue
            for k in range(k_min, k_max + 1):
                degs = (k, k + m, k + h, k + h + m)
                if all(k_min <= d <= k_max and dims[d - k_min] == 1 for d in degs):
                    count += 1
                    if (h, j, m, n, k) == stop:
                        return count
    return count


def validation_instances(doc, stop_after, violations) -> int:
    """Relation instances one validate_table call checked.

    A full scan counts every checkable instance; a scan that stopped early
    counts the position of its last violation in scan order.
    """
    window = (doc.h_range, doc.j_range, doc.k_range, tuple(doc.dims))
    if stop_after is None or len(violations) < stop_after:
        return full_scan(*window)
    v = violations[-1]
    return _scan(*window, (v.h, v.j, v.m, v.n, v.k))


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (request, span id, parent id, name, start ns, end ns)
        self.request = -1
        self._stack: list[list] = []  # open spans: [span id, child ns]
        self._next_id = 0
        self._in_field_op = False
        self._undo: list[tuple] = []
        self._request_start = 0
        self.begin_request(-1)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        stack, spans = self._stack, self.spans
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.calls[name] += 1
                self.total_ns[name] += duration
                self.self_ns[name] += duration - frame[1]
                spans.append((self.request, span_id, parent[0] if parent else -1, name, start, end))

        return wrapper

    def _field_op(self, fn):
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def op(*args):
            if self._in_field_op:
                return fn(*args)
            self._in_field_op = True
            start = now()
            try:
                return fn(*args)
            finally:
                self.total_ns["field.ops"] += now() - start
                self.calls["field.ops"] += 1
                self._in_field_op = False

        return op

    def _counter(self, name, fn, when):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is None or when(*args, **kwargs):
                self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attribute, replacement):
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        for module, attribute, name in SPANS:
            owner = importlib.import_module(module)
            self._patch(owner, attribute, self._span(name, getattr(owner, attribute)))
        for module, attribute, name, when in COUNTERS:
            owner = importlib.import_module(module)
            self._patch(owner, attribute, self._counter(name, getattr(owner, attribute), when))
        classifier = importlib.import_module("qvira.classifier")
        validate = classifier.validate_table

        def record_validation(doc, stop_after=None):
            violations = validate(doc, stop_after)
            self.validations.append((doc, stop_after, violations))
            return violations

        self._patch(classifier, "validate_table", self._span("presentation.validate", record_validation))
        rf = importlib.import_module("qvira.field").RationalFunction
        for op in FIELD_OPS:
            self._patch(rf, op, self._field_op(getattr(rf, op)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -- per-request results ----------------------------------------------

    def begin_request(self, request: int) -> None:
        self.request = request
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.validations: list[tuple] = []
        self._request_start = len(self.spans)

    def request_metrics(self) -> dict:
        """Per-layer metrics of the request begun last; call after it returns."""
        calls, total = self.calls, self.total_ns

        def ms(name):
            return total[name] / 1e6

        def per_s(count, name):
            return count * 1e9 / total[name] if total[name] else 0.0

        spans = self.spans[self._request_start:]
        parse_ids = {s[1] for s in spans if s[3] == "table.parse"}
        entries = sum(1 for s in spans if s[3] == "expr.parse_value" and s[2] in parse_ids)
        instances = sum(validation_instances(*v) for v in self.validations)
        return {
            "cli.self_ms": self.self_ns["cli.dispatch"] / 1e6,
            "table.parse_ms": ms("table.parse"),
            "table.parse_entries_per_s": per_s(entries, "table.parse"),
            "expr.parse_value_calls": calls["expr.parse_value"],
            "expr.parse_value_ms": ms("expr.parse_value"),
            "expr.print_ms": ms("expr.print"),
            "field.ops": calls["field.ops"],
            "field.op_ms": ms("field.ops"),
            "field.op_us": total["field.ops"] / 1e3 / calls["field.ops"] if calls["field.ops"] else 0.0,
            "field.gcd_fallbacks": calls["field.gcd_fallbacks"],
            "field.div_fallbacks": calls["field.div_fallbacks"],
            "field.substitute_calls": calls["field.substitute_calls"],
            "presentation.validate_ms": ms("presentation.validate"),
            "presentation.validate_instances": instances,
            "presentation.validate_instances_per_s": per_s(instances, "presentation.validate"),
            "presentation.degeneracy_ms": ms("presentation.degeneracy"),
            "presentation.normalize_ms": ms("presentation.normalize"),
            "presentation.invariants_ms": ms("presentation.invariants"),
            "classifier.self_ms": self.self_ns["classifier.classify"] / 1e6,
            "classifier.action_coeff_calls": calls["classifier.action_coeff_calls"],
            "algebra.bracket_calls": calls["algebra.bracket"],
            "algebra.bracket_ms": ms("algebra.bracket"),
            "families.act_calls": calls["families.act"],
            "families.act_ms": ms("families.act"),
            "families.verify_axiom_ms": ms("families.verify_axiom"),
        }

    def write_spans(self, path) -> None:
        """Tab-separated: request, span id, parent id (-1 at the top), name, start ns, end ns."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("request\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                handle.write("\t".join(map(str, span)) + "\n")
