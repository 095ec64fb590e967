"""Division algorithm: golden walkthrough, termination, certificates."""

import random
from fractions import Fraction

import pytest

from valgb import (
    GREVLEX,
    ModPmRing,
    Polynomial,
    Qp,
    QQ,
    Qt,
    TermOrder,
    WeightedOrder,
    compare,
    leading_term,
    normal_form,
    support_count_ecart,
)
from valgb.division import CoefficientBlowup, StepBudgetExceeded
from valgb.weights import GREATER, LESS
from valgb.polynomials import mono_divides

from conftest import (
    P,
    polys,
    random_homogeneous,
    random_ideal,
    random_weights,
    uniformizer,
    zero_order,
)
from oracles import EagerBlowup, eager_normal_form

XYZ = "x,y,z"
WORKED_ORDER = WeightedOrder((3, 2, 1), TermOrder("lex", (2, 1, 0)))  # x < y < z
# far above every step count below: a division that stops terminating raises
# StepBudgetExceeded instead of hanging the suite
BUDGET = 10_000


def test_ecart_examples():
    f = P(QQ, "x,y", "x^2+y^2")
    g = P(QQ, "x,y", "x^2+x*y")
    assert support_count_ecart(f, g) == 1
    assert support_count_ecart(f, f) == 0
    h = P(QQ, "x,y", "x^2")
    k = P(QQ, "x,y", "x^2+x*y+y^2")
    assert support_count_ecart(h, k) == 2
    with pytest.raises(ValueError):
        support_count_ecart(h, Polynomial.zero(QQ, 2))


def test_ecart_zero_iff_support_contained():
    rng = random.Random("ecart")
    for _ in range(100):
        f = random_homogeneous(rng, QQ, 3, 2, max_terms=4)
        g = random_homogeneous(rng, QQ, 3, 2, max_terms=4)
        contained = set(g.terms) <= set(f.terms)
        assert (support_count_ecart(f, g) == 0) == contained


def test_worked_division_golden():
    f2 = Qp(2)
    f = P(f2, XYZ, "x^2+y^2+z^2")
    g = P(f2, XYZ, "y+16z")
    res = normal_form(f, [g], WORKED_ORDER, trace=True, max_steps=BUDGET)
    assert res.quotients[0] == P(f2, XYZ, "y-16z")
    assert res.remainder == P(f2, XYZ, "x^2+257z^2")
    assert res.step_count == 6
    # intermediate state after four steps
    st4 = next(s for s in res.trace if s.index == 4)
    assert st4.q == P(f2, XYZ, "256z^2")
    assert st4.r == P(f2, XYZ, "x^2+z^2")
    # the identity holds exactly
    assert res.quotients[0] * g + res.remainder == f


def test_division_termination_where_naive_loops():
    f2 = Qp(2)
    G = polys(f2, XYZ, "x-2y", "y-2z", "z-2x")
    x = P(f2, XYZ, "x")
    res = normal_form(x, G, zero_order(3, TermOrder("lex")), max_steps=BUDGET)
    assert res.remainder.is_zero()
    assert res.step_count < 100
    # membership witness: x = -1/7 ((x-2y) + 2(y-2z) + 4(z-2x))
    assert res.quotients[0] == P(f2, XYZ, "-1/7")
    assert res.quotients[1] == P(f2, XYZ, "-2/7")
    assert res.quotients[2] == P(f2, XYZ, "-4/7")
    acc = Polynomial.zero(f2, 3)
    for h, g in zip(res.quotients, G):
        acc = acc + h * g
    assert acc == x


def test_empty_divisor_list_returns_input_as_remainder():
    f2 = Qp(2)
    f = P(f2, XYZ, "x^2+3y*z")
    res = normal_form(f, [], zero_order(3))
    assert res.remainder == f
    assert res.quotients == []


def test_zero_dividend_short_circuits():
    f2 = Qp(2)
    G = polys(f2, XYZ, "x-2y", "y-2z")
    res = normal_form(Polynomial.zero(f2, 3), G, zero_order(3))
    assert res.remainder.is_zero()
    assert all(h.is_zero() for h in res.quotients)
    assert res.step_count == 0


def test_rejects_bad_inputs():
    f2 = Qp(2)
    order = zero_order(2)
    inh = P(f2, "x,y", "x+x^2")
    ok = P(f2, "x,y", "x")
    with pytest.raises(ValueError):
        normal_form(inh, [ok], order)
    with pytest.raises(ValueError):
        normal_form(ok, [inh], order)
    with pytest.raises(ValueError):
        normal_form(ok, [Polynomial.zero(f2, 2)], order)
    # a weight vector shorter than the variable count is not truncated
    with pytest.raises(ValueError, match="order/variable mismatch"):
        normal_form(ok, [ok], WeightedOrder((0,), GREVLEX))
    with pytest.raises(ValueError, match="order/variable mismatch"):
        normal_form(P(f2, XYZ, "x"), [], WeightedOrder((1, 2), GREVLEX))


@pytest.mark.parametrize("field", [Qp(2), Qp(3), QQ, Qt()])
def test_division_certificate_properties(field):
    rng = random.Random(f"divcert-{field.label}")
    for trial in range(40):
        G = random_ideal(rng, field, 3, max_degree=3, max_gens=3)
        f = random_homogeneous(rng, field, 3, rng.randint(1, 3))
        order = WeightedOrder(random_weights(rng, field, 3), GREVLEX)
        res = normal_form(f, G, order, max_steps=BUDGET)
        # exact identity
        acc = res.remainder
        for h, g in zip(res.quotients, G):
            acc = acc + h * g
        assert acc == f
        # strong normal form: no remainder term divisible by any divisor lead
        lms = [leading_term(g, order)[1] for g in G]
        for m in res.remainder.terms:
            assert not any(mono_divides(lm, m) for lm in lms)
        # every summand ranks at least as high as f
        if not f.is_zero():
            if not res.remainder.is_zero():
                assert compare(res.remainder, f, order) != LESS
            for h, g in zip(res.quotients, G):
                hg = h * g
                if not hg.is_zero():
                    assert compare(hg, f, order) != LESS


def test_progress_is_strictly_monotone():
    f2 = Qp(2)
    f = P(f2, XYZ, "x^2+y^2+z^2")
    g = P(f2, XYZ, "y+16z")
    res = normal_form(f, [g], WORKED_ORDER, trace=True, max_steps=BUDGET)
    qs = [st.q for st in res.trace]
    for a, b in zip(qs, qs[1:]):
        assert compare(b, a, WORKED_ORDER) == GREATER


def test_per_step_state_invariants():
    # at every traced step the running state ranks no lower than the input
    rng = random.Random("stepwise")
    f3 = Qp(3)
    for _ in range(20):
        G = random_ideal(rng, f3, 3, max_degree=2, max_gens=2)
        f = random_homogeneous(rng, f3, 3, rng.randint(1, 2))
        order = WeightedOrder(random_weights(rng, f3, 3), GREVLEX)
        res = normal_form(f, G, order, trace=True, max_steps=BUDGET)
        for step in res.trace:
            assert compare(step.q, f, order) != LESS
            if not step.r.is_zero():
                assert compare(step.r, f, order) != LESS


def test_modpm_division_matches_worked_example():
    # the same run over Z/2^m reproduces the rational certificate mod 2^m
    m = 12
    ring = ModPmRing(2, m)
    f = Polynomial(ring, 3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    g = Polynomial(ring, 3, {(0, 1, 0): 1, (0, 0, 1): 16})
    res = normal_form(f, [g], WORKED_ORDER, max_steps=BUDGET)
    assert res.quotients[0] * g + res.remainder == f
    # 257 and the coefficients of y - 16z appear mod 2^12
    assert res.remainder == Polynomial(ring, 3, {(2, 0, 0): 1, (0, 0, 2): 257})
    assert res.quotients[0] == Polynomial(ring, 3, {(0, 1, 0): 1, (0, 0, 1): 2**m - 16})


def test_modpm_certificates_random():
    ring = ModPmRing(3, 7)
    order = zero_order(3)
    rng = random.Random("modpm-div")
    for _ in range(60):
        gens = []
        for _ in range(rng.randint(1, 3)):
            f = random_homogeneous(rng, QQ, 3, rng.randint(1, 2), height=9)
            g = f.map_coefficients(lambda c: ring.coerce(c), ring)
            if not g.is_zero() and min(ring.val(c) for c in g.terms.values()) == 0:
                gens.append(g)
        if not gens:
            continue
        f = random_homogeneous(rng, QQ, 3, rng.randint(1, 2), height=9)
        fm = f.map_coefficients(lambda c: ring.coerce(c), ring)
        if fm.is_zero():
            continue
        res = normal_form(fm, gens, order, max_steps=BUDGET)
        acc = res.remainder
        for h, g in zip(res.quotients, gens):
            acc = acc + h * g
        assert acc == fm
        lms = [leading_term(g, order)[1] for g in gens]
        for mno in res.remainder.terms:
            assert not any(mono_divides(lm, mno) for lm in lms)


def test_step_budget_breaker():
    f2 = Qp(2)
    G = polys(f2, XYZ, "x-2y", "y-2z", "z-2x")
    x = P(f2, XYZ, "x")
    with pytest.raises(StepBudgetExceeded):
        normal_form(x, G, zero_order(3), max_steps=2)


def test_coefficient_blowup_breaker(monkeypatch):
    f2 = Qp(2)
    f = P(f2, XYZ, "x^2+y^2+z^2")
    g = P(f2, XYZ, "y+65536z")
    with pytest.raises(CoefficientBlowup):
        normal_form(f, [g], WORKED_ORDER, max_coeff_bits=8)
    # the 65-bit leading coefficient of step 5 follows a divide-recorded step,
    # so the loop's unit u is not 1 when the breaker reads lc(q)/u
    with pytest.raises(EagerBlowup) as eager:
        eager_normal_form(f, [g], WORKED_ORDER, max_coeff_bits=40)
    _, _, _, log = eager_normal_form(f, [g], WORKED_ORDER)
    assert [action for _, _, action, _ in log[:5]].count("divide-recorded") == 1
    with pytest.raises(CoefficientBlowup) as lazy:
        normal_form(f, [g], WORKED_ORDER, max_coeff_bits=40)
    assert str(lazy.value) == str(eager.value)
    assert str(lazy.value) == "leading coefficient exceeded 40 bits after 5 steps"
    # no recorded-state step inverts: on the worked example u is divided out
    # once, at the end, and the quotients reuse that inverse
    calls = []
    inv = f2.inv
    monkeypatch.setattr(f2, "inv", lambda a: calls.append(a) or inv(a))
    worked = normal_form(f, [P(f2, XYZ, "y+16z")], WORKED_ORDER, max_steps=BUDGET)
    assert worked.remainder == P(f2, XYZ, "x^2+257z^2")
    assert worked.quotients[0] == P(f2, XYZ, "y-16z")
    assert len(calls) <= 1


LAZY_FIELDS = [Qp(2), Qp(3), QQ, Qt(), ModPmRing(3, 7)]


def tangent_cone_case(rng, field):
    """Divisors with one term of low valuation and the rest pushed up by
    powers of the uniformizer, so the division often divides by its own
    recorded states."""
    t = uniformizer(field)
    G = []
    for _ in range(rng.randint(2, 3)):
        g = random_homogeneous(rng, field, 3, rng.randint(1, 2), max_terms=3)
        keep = rng.choice(list(g.terms))
        terms = dict(g.terms)
        for m in terms:
            for _ in range(0 if m == keep else rng.randint(0, 2)):
                terms[m] = field.mul(terms[m], t)
        G.append(Polynomial(field, 3, terms))
    f = random_homogeneous(rng, field, 3, rng.randint(1, 3))
    weights = (0, 0, 0) if field == QQ else tuple(rng.randint(-1, 1) for _ in range(3))
    return f, G, WeightedOrder(weights, GREVLEX)


@pytest.mark.parametrize("field", LAZY_FIELDS, ids=lambda field: field.label)
def test_lazy_division_matches_eager_oracle(field):
    rng = random.Random(f"lazy-unit-{field.label}")
    bits = 2000
    recorded = 0
    for trial in range(40):
        f, G, order = tangent_cone_case(rng, field)
        try:
            h, r, steps, log = eager_normal_form(f, G, order, max_coeff_bits=bits)
        except (ValueError, EagerBlowup) as exc:
            # inexact division in Z/p^m, or the breaker: same kind, same message
            kind = ValueError if isinstance(exc, ValueError) else CoefficientBlowup
            with pytest.raises(kind) as info:
                normal_form(f, G, order, max_coeff_bits=bits, max_steps=BUDGET)
            assert str(info.value) == str(exc), f"trial {trial}"
            continue
        res = normal_form(f, G, order, max_coeff_bits=bits, max_steps=BUDGET)
        assert res.remainder == r, f"trial {trial}"
        assert res.quotients == h, f"trial {trial}"
        assert res.step_count == steps, f"trial {trial}"
        traced = normal_form(f, G, order, max_coeff_bits=bits, trace=True,
                             max_steps=BUDGET)
        assert [(s.q, s.r, s.action, s.t_size) for s in traced.trace] == log, f"trial {trial}"
        recorded += sum(action == "divide-recorded" for _, _, action, _ in log)
    # trivially valued Q never divides by a recorded state
    assert recorded > 0 or field == QQ


@pytest.mark.parametrize("field", LAZY_FIELDS, ids=lambda field: field.label)
def test_breaker_at_the_exact_bit_count_matches_eager_oracle(field):
    # the breaker skips reducing lc(q)/u when the unreduced bits are already
    # within budget; budgets k - 1 and k around each new peak k of the
    # oracle's reduced bits must still trip where the oracle trips
    from oracles import _eager_bits

    rng = random.Random(f"breaker-edge-{field.label}")
    tried = 0
    for trial in range(15):
        f, G, order = tangent_cone_case(rng, field)
        try:
            _, _, _, log = eager_normal_form(f, G, order)
        except ValueError:
            continue  # inexact division in Z/p^m
        peak = -1
        for q, _, _, _ in log:
            k = _eager_bits(leading_term(q, order)[2])
            if k <= peak:
                continue
            peak = k
            for budget in (k - 1, k):
                try:
                    eager_normal_form(f, G, order, max_coeff_bits=budget)
                    expected = None
                except EagerBlowup as exc:
                    expected = str(exc)
                try:
                    normal_form(f, G, order, max_coeff_bits=budget, max_steps=BUDGET)
                    got = None
                except CoefficientBlowup as exc:
                    got = str(exc)
                assert got == expected, f"trial {trial}, budget {budget}"
                tried += expected is not None
    assert tried > 0


def test_w1_normal_form_does_no_field_arithmetic_per_step(monkeypatch):
    # ROADMAP W1: the 85-step normal form over Qp(2) that its completion ran
    # at degree 5 against the unreduced basis (the loop now divides by the
    # interreduced one), pinned as it was; over Q and Qp the loop runs on
    # integers, so no field operation is per step
    f2 = Qp(2)
    order = WeightedOrder((-1, 0, -2), GREVLEX)
    f = P(f2, XYZ, "8x^3*y^2-80592/3395x^3*y*z-46576/3395x^2*y^2*z+324/3395y^4*z")
    divisors = polys(
        f2, XYZ, "8x^2*y+4x*y*z+y^2*z", "-3/2y^3+3x^2*z-3x*y*z+z^3",
        "5/3x*y-2x*z-8/3y*z+z^2", "-542/63x^2*y-40/63x*y^2-3/14y^3+x^2*z-202/63x*y*z",
        "80592/3395x^3*y+60156/3395x^2*y^2+x*y^3-324/3395y^4",
        "x^3*y+321334/616333x^2*y^2-41721/616333y^4",
    )
    remainder = P(f2, XYZ, "-4721780644903098520/2498589709027391769y^5")
    calls = []
    for name in ("add", "sub", "mul", "div", "inv"):
        op = getattr(f2, name)
        monkeypatch.setattr(f2, name, lambda *a, op=op, name=name: calls.append(name) or op(*a))
    res = normal_form(f, divisors, order, max_steps=BUDGET)
    assert res.step_count == 85 and res.remainder == remainder
    assert len(calls) <= 2, calls  # none per step; at most the final 1/u
    monkeypatch.undo()
    # the scalars come back canonical, and the replayed quotients certify r
    assert all(type(c) is Fraction for c in res.remainder.terms.values())
    acc = res.remainder
    for h, g in zip(res.quotients, divisors):
        assert all(type(c) is Fraction for c in h.terms.values())
        acc = acc + h * g
    assert acc == f


def test_w1_completion_builds_no_fraction_in_the_division(monkeypatch):
    # the division's content steps record the content g itself; 1/g is built
    # only when the quotients are replayed, which the completion loop never reads
    import valgb.division
    from valgb import buchberger, parse_problem
    from test_cli import W1

    problem = parse_problem(W1)
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(valgb.division, "Fraction", counting)
    basis = buchberger(problem.generators, problem.weighted_order())
    assert len(basis) == 6 and built == []
    # the quotient replay still inverts the recorded contents
    res = normal_form(basis.elements[-1] * basis.elements[0], basis.elements,
                      problem.weighted_order(), max_steps=BUDGET)
    acc = res.remainder
    for h, g in zip(res.quotients, basis.elements):
        acc = acc + h * g
    assert acc == basis.elements[-1] * basis.elements[0]
