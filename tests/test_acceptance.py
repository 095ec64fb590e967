"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or -rA) to see the
per-criterion lines.  Randomized suites use pinned master seeds so their
instance sets are reproducible.
"""

import math
import random
import time
from fractions import Fraction
from math import comb

from valgb import (
    GF,
    GREVLEX,
    LEX,
    Polynomial,
    QQ,
    Qp,
    Qt,
    TermOrder,
    WeightedOrder,
    buchberger,
    cardinality_report,
    contains_monomial,
    dube_degree_bound,
    effective_valuation_bound,
    gb_mod_pm,
    hilbert_dim,
    in_tropical_variety,
    initial_form,
    monomials_of_degree,
    normal_form,
    reduce_basis,
    valuation_bound,
)
from valgb.cardinality import default_orders
from valgb.division import CoefficientBlowup, StepBudgetExceeded
from valgb.polynomials import mono_divides
from valgb.parsing import parse_polynomial

from conftest import (
    P,
    nine_variable_problem,
    polys,
    random_ideal,
    random_weights,
    to_oracle,
    zero_order,
)
from oracles import brute_force_contains_monomial, macaulay_dim

XYZ = "x,y,z"


def report(number: int, text: str):
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def best_time(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_criterion_01_initial_form_golden():
    f3 = Qp(3)
    f = P(f3, "x,y", "3x^2+x*y+18y^2")
    g3 = GF(3)
    cases = [
        ((0, 0), P(g3, "x,y", "x*y")),
        ((1, 4), P(g3, "x,y", "x^2")),
        ((2, 0), P(g3, "x,y", "x*y+2y^2")),
    ]
    for w, expected in cases:
        got, seconds = best_time(lambda w=w: initial_form(f, w))
        assert got == expected
        assert seconds < 0.001, f"initial form at {w} took {seconds * 1000:.3f} ms"
    report(1, "three initial forms bit-exact, each under 1 ms")


def test_criterion_02_division_golden():
    f2 = Qp(2)
    f = P(f2, XYZ, "x^2+y^2+z^2")
    g = P(f2, XYZ, "y+16z")
    order = WeightedOrder((3, 2, 1), TermOrder("lex", (2, 1, 0)))
    result, seconds = best_time(lambda: normal_form(f, [g], order, trace=True))
    assert result.quotients[0] == P(f2, XYZ, "y-16z")
    assert result.remainder == P(f2, XYZ, "x^2+257z^2")
    state4 = next(s for s in result.trace if s.index == 4)
    assert state4.q == P(f2, XYZ, "256z^2")
    assert state4.r == P(f2, XYZ, "x^2+z^2")
    assert seconds < 0.010, f"division took {seconds * 1000:.2f} ms"
    report(2, "division certificate h=y-16z, r=x^2+257z^2 with traced q4=256z^2, under 10 ms")


def test_criterion_03_termination_regression():
    f2 = Qp(2)
    G = polys(f2, XYZ, "x-2y", "y-2z", "z-2x")
    x = P(f2, XYZ, "x")
    result = normal_form(x, G, zero_order(3, LEX))
    assert result.remainder.is_zero()
    assert result.step_count < 100
    report(3, f"looping triple terminates with r = 0 in {result.step_count} steps")


def test_criterion_04_qt_family_reproduction():
    qt = Qt()
    for a in (3, 5, 10):
        f = P(qt, XYZ, "x+z")
        g = parse_polynomial(f"x^2+(1+t^{a})*x*z+x*y", qt, XYZ.split(","))
        order = WeightedOrder((1, a, 2 * a), GREVLEX)
        basis, seconds = best_time(
            lambda f=f, g=g, order=order: reduce_basis(buchberger([f, g], order)),
            repeats=1,
        )
        expected = [P(qt, XYZ, "x+z"), parse_polynomial(f"y*z+t^{a}*z^2", qt, XYZ.split(","))]
        assert basis.elements == expected
        assert seconds < 1.0, f"a={a} took {seconds:.2f} s"
        worst = max(qt.val(c) for p in basis.elements for c in p.terms.values())
        assert worst == a  # valuation a emerged from valuation-zero input
    report(4, "basis {x+z, y*z+t^a*z^2} reproduced for a in {3, 5, 10}, under 1 s each")


def _monic_set(elements, order):
    out = []
    for g in elements:
        from valgb import monic

        out.append(monic(g, order))
    return out


def test_criterion_05_nine_variable_ideal():
    gens, expected, order = nine_variable_problem()
    t0 = time.perf_counter()
    basis = buchberger(gens, order)
    seconds = time.perf_counter() - t0
    assert seconds < 60.0, f"criteria run took {seconds:.1f} s"
    got = _monic_set(basis.elements, order)
    want = _monic_set(expected, order)
    assert len(got) == 10
    for w in want:
        assert w in got, "a printed basis element is missing"
    # without the criteria either the breaker trips (blow-up reproduced) or
    # the run completes and agrees; both outcomes are accepted and logged
    outcome = ""
    try:
        raw = buchberger(gens, order, use_criteria=False, max_coeff_bits=20000)
        assert _monic_set(raw.elements, order) == got
        outcome = "no-criteria run completed and agreed"
    except CoefficientBlowup as exc:
        outcome = f"no-criteria blow-up reproduced ({exc})"
    except StepBudgetExceeded as exc:
        outcome = f"no-criteria step budget tripped ({exc})"
    report(
        5,
        f"nine-variable basis matches all 10 printed elements in {seconds:.2f} s "
        f"(skips b1={basis.stats['b1']} b2={basis.stats['b2']}); {outcome}",
    )


def test_criterion_06_hilbert_function_suite():
    rng = random.Random("hilbert-b")
    fields = [Qp(2), Qp(3), Qp(5), QQ]
    t0 = time.perf_counter()
    for trial in range(200):
        field = fields[trial % 4]
        nvars = rng.choice([2, 3, 3, 4])
        gens = random_ideal(rng, field, nvars, max_degree=3, max_gens=3)
        order = WeightedOrder(random_weights(rng, field, nvars), GREVLEX)
        basis = reduce_basis(buchberger(gens, order))
        lms = basis.leading_monomials()
        for d in range(0, 7):
            dim = hilbert_dim(gens, d)
            assert dim == macaulay_dim(gens, d), f"trial {trial}, degree {d}"
            left = comb(nvars + d - 1, d) - dim
            right = sum(
                1
                for m in monomials_of_degree(nvars, d)
                if not any(mono_divides(lm, m) for lm in lms)
            )
            assert left == right, f"trial {trial}, degree {d}: {left} != {right}"
    seconds = time.perf_counter() - t0
    assert seconds < 300.0
    report(6, f"200 random ideals: Hilbert functions and Macaulay ranks agree for d <= 6 "
              f"in {seconds:.1f} s")


def test_criterion_07_criteria_soundness():
    rng = random.Random("criteria-d")
    fields = [Qp(2), Qp(3), Qp(5), QQ]
    for trial in range(100):
        field = fields[trial % 4]
        gens = random_ideal(rng, field, 3, max_degree=3, max_gens=3)
        order = WeightedOrder(random_weights(rng, field, 3), GREVLEX)
        with_c = reduce_basis(buchberger(gens, order, use_criteria=True))
        without_c = reduce_basis(buchberger(gens, order, use_criteria=False))
        assert with_c.elements == without_c.elements, f"trial {trial}"
    report(7, "100 random instances: reduced bases identical with and without criteria")


def test_criterion_08_modpm_agreement():
    rng = random.Random("modpm-d")
    retry_budget = 5
    for trial in range(100):
        p = [2, 3, 5][trial % 3]
        field = Qp(p)
        gens = random_ideal(rng, field, 3, max_degree=3, max_gens=3, height=50)
        order = WeightedOrder(random_weights(rng, field, 3), GREVLEX)
        stats = {}
        via = gb_mod_pm(gens, order, retry_budget=retry_budget, stats=stats)
        direct = reduce_basis(buchberger(gens, order))
        assert via.elements == direct.elements, f"trial {trial}"
        assert not stats["fallback"], f"trial {trial} exceeded the retry budget"
        assert stats["retries"] <= retry_budget
    report(8, "100 random instances: mod-p^m pipeline equals the direct run exactly")


def test_criterion_09_bounds():
    assert dube_degree_bound(3, 2) == 32
    assert valuation_bound(1, 4, 2) == Fraction(4)
    rng = random.Random("modpm-d")  # same sample as the agreement suite
    checked = 0
    for trial in range(100):
        p = [2, 3, 5][trial % 3]
        field = Qp(p)
        gens = random_ideal(rng, field, 3, max_degree=3, max_gens=3, height=50)
        order = WeightedOrder(random_weights(rng, field, 3), GREVLEX)
        basis = reduce_basis(buchberger(gens, order))
        basis_degree = max(g.degree() for g in basis.elements)
        cap = max(8, basis_degree)
        bound = effective_valuation_bound(gens, p, degree_cap=cap)
        # a truncated bound is only claimed when the basis fits under the cap
        assert basis_degree <= bound.evaluated_degree
        worst = max(field.val(c) for g in basis.elements for c in g.terms.values())
        assert worst <= bound.valuation_bound, (
            f"trial {trial}: valuation {worst} above bound {bound.valuation_bound}"
        )
        checked += 1
    report(
        9,
        "degree bound 32, valuation bound 4, and all "
        f"{checked} suite bases respect the effective bound",
    )


def test_criterion_10_tropical_membership():
    line = polys(QQ, XYZ, "x+y+z")
    assert in_tropical_variety(line, (0, 0, 0)) is True
    assert in_tropical_variety(line, (-1, 0, 0)) is False
    rng = random.Random("tropical-shift")
    for w, expected in [((0, 0, 0), True), ((-1, 0, 0), False)]:
        for _ in range(20):
            c = rng.randint(-12, 12)
            shifted = tuple(wi + c for wi in w)
            assert in_tropical_variety(line, shifted) is expected
    # saturation-based monomial detection against the brute-force oracle
    fields = [GF(2), GF(3), QQ]
    checked = 0
    while checked < 50:
        field = rng.choice(fields)
        gens = [
            Polynomial(
                field,
                3,
                {
                    m: field.coerce(rng.randint(1, 4) * rng.choice([-1, 1]))
                    for m in rng.sample(monomials_of_degree(3, rng.randint(1, 2)), rng.randint(1, 3))
                },
            )
            for _ in range(rng.randint(1, 2))
        ]
        fast = contains_monomial(gens)
        slow = brute_force_contains_monomial(
            [to_oracle(g) for g in gens], p=getattr(field, "p", None)
        )
        assert fast == slow
        checked += 1
    report(10, "membership verdicts, diagonal invariance, and 50 oracle agreements hold")


def test_criterion_11_cardinality_separation():
    t0 = time.perf_counter()
    lines = []
    # exact reduced-basis sizes per default order: a count of non-minimal
    # leading monomials would still pass the lower bound
    exact = {1: (4, 3, 3, 3), 2: (5, 5, 5)}
    for e in (1, 2):
        need = math.ceil(Fraction(2 * e + 3, 2))
        for seed in range(10):
            rep = cardinality_report(e, default_orders(e), seed=seed)
            assert rep.padic_size == 2, f"e={e} seed={seed}"
            assert rep.resamples == 0, f"e={e} seed={seed}"
            assert tuple(rep.standard_sizes.values()) == exact[e], f"e={e} seed={seed}"
            for label, size in rep.standard_sizes.items():
                assert size >= need, f"e={e} seed={seed} {label}: {size} < {need}"
        lines.append(f"e={e}: 10 seeds, 2-adic size 2, classical sizes {exact[e]} >= {need}")
    seconds = time.perf_counter() - t0
    assert seconds < 300.0
    report(11, "; ".join(lines) + f" ({seconds:.1f} s)")
