"""Spans and counts around the public functions of ``valgb``.

Two independent instruments, never active together:

* ``Spans`` wraps the public functions of each ``valgb`` module at every
  module attribute that names them, which is where callers look them up
  (``valgb.groebner.normal_form``, ``valgb.lifting.lift_groebner``, ...).
  Each call records a span: name, parent span, start and end.  Results that
  carry counts (division steps, pair statistics, retries) are kept and read
  after the pass, so reading them adds nothing to any span.
* ``ScalarCounts`` wraps the coefficient-field methods, ``leading_term`` and
  the polynomial products to count calls.  That wrapping costs more than the
  calls themselves, so it runs in its own pass with spans off.

Both restore every attribute they replaced on ``uninstall``.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (defining module, function) -> span name
SPANNED = {
    ("division", "normal_form"): "division.normal_form",
    ("groebner", "buchberger"): "groebner.buchberger",
    ("groebner", "reduce_basis"): "groebner.reduce_basis",
    ("groebner", "is_basis_of"): "groebner.is_basis_of",
    ("groebner", "s_polynomial"): "groebner.s_polynomial",
    ("lifting", "gb_mod_pm"): "lifting.gb_mod_pm",
    ("lifting", "lift_groebner"): "lifting.lift_groebner",
    ("lifting", "hilbert_dim"): "lifting.hilbert_dim",
    ("linalg", "rref"): "linalg.rref",
    ("linalg", "bareiss_rank"): "linalg.bareiss_rank",
    ("parsing", "parse_problem"): "parsing.parse_problem",
    ("parsing", "parse_polynomial"): "parsing.parse_polynomial",
    ("cli", "main"): "cli.main",
    ("tropical", "initial_ideal"): "tropical.initial_ideal",
    ("tropical", "contains_monomial"): "tropical.contains_monomial",
    ("tropical", "saturate_variable"): "tropical.saturate_variable",
    ("cardinality", "cardinality_report"): "cardinality.cardinality_report",
    ("bounds", "effective_valuation_bound"): "bounds.effective_valuation_bound",
}

# spans whose results are kept for counting after the pass
_KEEP = {"division.normal_form", "groebner.buchberger", "lifting.gb_mod_pm",
         "cardinality.cardinality_report"}

# spans that record the size of their input matrix (rows x columns)
_MATRIX = {"linalg.rref", "linalg.bareiss_rank"}


def _modules(V):
    return [m for name, m in sys.modules.items()
            if m is not None and (name == V.__name__ or name.startswith(V.__name__ + "."))]


class _Patches:
    """Replace a function at every module attribute bound to it."""

    def __init__(self):
        self._undo = []

    def everywhere(self, V, module: str, attr: str, make):
        original = getattr(getattr(V, module), attr)
        wrapper = make(original)
        for mod in _modules(V):
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, original))

    def on_class(self, cls, attr: str, make):
        had = attr in vars(cls)
        original = getattr(cls, attr)
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original if had else None))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._undo.clear()


class Spans:
    """Span recorder; one instance per traced pass."""

    def __init__(self):
        # [name, parent index, start, end, error class or None(, matrix cells)]
        self.spans = []
        self.kept = []  # (name, kwargs, result)
        self._stack = []
        self._patches = _Patches()

    def install(self, V):
        for (module, attr), name in SPANNED.items():
            self._patches.everywhere(V, module, attr,
                                     lambda fn, name=name: self._wrap(name, fn))

    def uninstall(self):
        self._patches.uninstall()

    def _wrap(self, name, fn):
        keep = name in _KEEP
        matrix = name in _MATRIX
        spans, stack, kept = self.spans, self._stack, self.kept

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "lifting.gb_mod_pm" and kwargs.get("stats") is None:
                kwargs["stats"] = {}
            index = len(spans)
            record = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            if matrix:
                rows = args[0]
                record.append(len(rows) * len(rows[0]) if rows else 0)
            spans.append(record)
            stack.append(index)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[4] = type(exc).__name__
                raise
            finally:
                stack.pop()
                record[3] = perf_counter()
            if keep:
                kept.append((name, kwargs, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        record = [name, self._stack[-1] if self._stack else -1, perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        except BaseException as exc:
            record[4] = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            record[3] = perf_counter()

    def to_json(self) -> list:
        return [{"id": i, "name": r[0], "parent": r[1], "start": r[2], "end": r[3],
                 "error": r[4], **({"cells": r[5]} if len(r) > 5 else {})}
                for i, r in enumerate(self.spans)]


class ScalarCounts:
    """Call counts of scalar arithmetic, leading terms and polynomial products."""

    FIELD_METHODS = ("add", "sub", "mul", "neg", "div", "inv")

    def __init__(self):
        self.counts = Counter()
        self._patches = _Patches()

    def install(self, V):
        counts = self.counts

        def counting(key):
            def make(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    counts[key] += 1
                    return fn(*args, **kwargs)
                return wrapper
            return make

        fields = V.fields
        for cls in (fields.RationalField, fields.QpField, fields.RationalFunctionField,
                    fields.PrimeField, fields.ModPmRing):
            for attr in self.FIELD_METHODS:
                self._patches.on_class(cls, attr, counting(f"fields.{attr}"))
        self._patches.everywhere(V, "weights", "leading_term", counting("weights.leading_term"))
        for attr in ("__mul__", "mono_mul", "scale"):
            self._patches.on_class(V.Polynomial, attr, counting("polynomials.mul"))

    def uninstall(self):
        self._patches.uninstall()

    def metrics(self) -> dict:
        c = self.counts
        return {
            "fields.scalar_ops": sum(c[f"fields.{a}"] for a in self.FIELD_METHODS),
            "fields.div_inv_ops": c["fields.div"] + c["fields.inv"],
            "weights.leading_term_calls": c["weights.leading_term"],
            "polynomials.mul_calls": c["polynomials.mul"],
        }


def _coeff_bits(c) -> int:
    if isinstance(c, int):
        return c.bit_length()
    if hasattr(c, "numerator"):
        return c.numerator.bit_length() + c.denominator.bit_length()
    if hasattr(c, "num"):  # Q(t) element: widest rational coefficient
        return max(fr.numerator.bit_length() + fr.denominator.bit_length()
                   for part in (c.num, c.den) for fr in part)
    return 0


def _max_bits(polys) -> int:
    return max((_coeff_bits(c) for f in polys for c in f.terms.values()), default=0)


def layer_metrics(spans: Spans) -> dict:
    """Per-layer metrics of one traced pass."""
    recs = spans.spans
    dur = [r[3] - r[2] for r in recs]
    child = [0.0] * len(recs)
    for i, r in enumerate(recs):
        if r[1] >= 0:
            child[r[1]] += dur[i]
    calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
    under_modpm = defaultdict(float)
    errors, cells = Counter(), Counter()
    for i, r in enumerate(recs):
        name, parent, err = r[0], r[1], r[4]
        if len(r) > 5:
            cells[name] += r[5]
        calls[name] += 1
        total[name] += dur[i]
        self_s[name] += dur[i] - child[i]
        if parent >= 0 and recs[parent][0] == "lifting.gb_mod_pm":
            under_modpm[name] += dur[i]
        if err is not None:
            errors[(name, err)] += 1

    nf = [r for n, _, r in spans.kept if n == "division.normal_form"]
    steps = [r.step_count for r in nf]
    gb = Counter()
    for n, _, r in spans.kept:
        if n == "groebner.buchberger":
            gb.update(r.stats)
    modpm = [kw["stats"] for n, kw, _ in spans.kept if n == "lifting.gb_mod_pm"]
    resamples = sum(r.resamples for n, _, r in spans.kept
                    if n == "cardinality.cardinality_report")
    examined = gb["pairs"] - gb["b1"] - gb["b2"]
    return {
        "division.normal_form_calls": calls["division.normal_form"],
        "division.normal_form_s": total["division.normal_form"],
        "division.steps": sum(steps),
        "division.steps_max": max(steps, default=0),
        "division.quotient_bits_max": max((_max_bits(r.quotients) for r in nf), default=0),
        "division.remainder_bits_max": max((_max_bits([r.remainder]) for r in nf), default=0),
        "division.breaker_trips": errors[("division.normal_form", "CoefficientBlowup")],
        "division.zero_remainder_frac":
            sum(r.remainder.is_zero() for r in nf) / len(nf) if nf else 0.0,
        "groebner.pairs": gb["pairs"],
        "groebner.b1_skips": gb["b1"],
        "groebner.b2_skips": gb["b2"],
        "groebner.useful_pair_frac": gb["new_elements"] / examined if examined else 0.0,
        "groebner.buchberger_self_s": self_s["groebner.buchberger"],
        "groebner.s_polynomial_calls": calls["groebner.s_polynomial"],
        "groebner.reduce_basis_s": total["groebner.reduce_basis"],
        "lifting.modular_completion_s": under_modpm["groebner.buchberger"],
        "lifting.lift_s": total["lifting.lift_groebner"],
        "lifting.verify_s": under_modpm["groebner.is_basis_of"],
        "lifting.gb_mod_pm_self_s": self_s["lifting.gb_mod_pm"],
        "lifting.m_attempts": sum(len(s.get("m_values", ())) for s in modpm),
        "lifting.retries": sum(s.get("retries", 0) for s in modpm),
        "lifting.fallbacks": sum(bool(s.get("fallback")) for s in modpm),
        "lifting.hilbert_dim_s": total["lifting.hilbert_dim"],
        "lifting.hilbert_dim_self_s": self_s["lifting.hilbert_dim"],
        "linalg.rref_calls": calls["linalg.rref"],
        "linalg.rref_s": total["linalg.rref"],
        "linalg.rref_cells": cells["linalg.rref"],
        "linalg.bareiss_calls": calls["linalg.bareiss_rank"],
        "linalg.bareiss_s": total["linalg.bareiss_rank"],
        "linalg.bareiss_cells": cells["linalg.bareiss_rank"],
        "parsing.calls": calls["parsing.parse_problem"] + calls["parsing.parse_polynomial"],
        "parsing.self_s": self_s["parsing.parse_problem"] + self_s["parsing.parse_polynomial"],
        "cli.self_s": self_s["cli.main"],
        "tropical.initial_ideal_s": total["tropical.initial_ideal"],
        "tropical.contains_monomial_s": total["tropical.contains_monomial"],
        "tropical.saturate_calls": calls["tropical.saturate_variable"],
        "cardinality.report_s": total["cardinality.cardinality_report"],
        "cardinality.resamples": resamples,
        "bounds.effective_valuation_bound_s": total["bounds.effective_valuation_bound"],
    }
