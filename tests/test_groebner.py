"""Completion loop: S-polynomials, criteria, golden bases, reduction."""

import random
import time
from fractions import Fraction

import pytest

import valgb.groebner
from valgb import (
    GF,
    GREVLEX,
    LEX,
    CoefficientBlowup,
    CriticalPair,
    ModPmRing,
    Polynomial,
    Qp,
    QQ,
    Qt,
    TermOrder,
    WeightedOrder,
    buchberger,
    criterion_b1,
    criterion_b2,
    gb_mod_pm,
    normal_form,
    reduce_basis,
    s_polynomial,
    sort_basis,
)
from valgb.cardinality import default_orders, sample_pair
from valgb.groebner import GroebnerBasis, is_basis_of, minimal_generators
from valgb.lifting import lift_groebner
from valgb.polynomials import compositions, mono_divides, mono_lcm
from valgb.weights import leading_term

from conftest import (
    P,
    nine_variable_problem,
    polys,
    random_homogeneous,
    random_ideal,
    random_weights,
    to_oracle,
    zero_order,
)
from oracles import (
    division_reduce_basis,
    fraction_buchberger,
    fraction_is_basis_of,
    fraction_s_polynomial,
    macaulay_dim,
    reference_leading_monomials,
)

XYZ = "x,y,z"


def qt_family(a):
    qt = Qt()
    f = P(qt, XYZ, "x+z")
    g = P(qt, XYZ, f"x^2+(1+t^{a})*x*z+x*y")
    return f, g, WeightedOrder((1, a, 2 * a), GREVLEX)


def test_s_polynomial_golden_qt():
    f, g, order = qt_family(5)
    s = s_polynomial(f, g, order)
    assert s == P(Qt(), XYZ, "-x*y-t^5*x*z")


def test_s_polynomial_self_cancels():
    f = P(Qp(2), "x,y", "x^2+3x*y")
    order = zero_order(2)
    assert s_polynomial(f, f, order).is_zero()


def test_s_polynomial_coprime_monomials():
    x = P(QQ, "x,y", "x")
    y = P(QQ, "x,y", "y")
    assert s_polynomial(x, y, zero_order(2)).is_zero()


def _pair(lm_i, lm_j, i=0, j=1):
    return CriticalPair(i, j, lm_i, lm_j, mono_lcm(lm_i, lm_j))


def test_criterion_b1():
    assert criterion_b1(_pair((1, 0, 0), (0, 1, 1)))
    assert not criterion_b1(_pair((1, 0, 0), (2, 0, 0)))
    # x1*x4 vs x6*x7 in nine variables
    a = (1, 0, 0, 1, 0, 0, 0, 0, 0)
    b = (0, 0, 0, 0, 0, 1, 1, 0, 0)
    assert criterion_b1(_pair(a, b))


def test_criterion_b2():
    lms = [(2, 0), (1, 1), (0, 2)]
    pair = _pair((2, 0), (0, 2), 0, 2)
    assert criterion_b2(pair, lms, pending=set())
    assert not criterion_b2(pair, lms, pending={(0, 1)})
    assert not criterion_b2(pair, lms, pending={(1, 2)})
    # no third divisor
    lms2 = [(2, 0), (0, 2)]
    assert not criterion_b2(_pair((2, 0), (0, 2), 0, 1), lms2, set())


@pytest.mark.parametrize("a", [3, 5, 10])
def test_qt_basis_reproduction(a):
    f, g, order = qt_family(a)
    basis = reduce_basis(buchberger([f, g], order))
    qt = Qt()
    expected = [P(qt, XYZ, "x+z"), P(qt, XYZ, f"y*z+t^{a}*z^2")]
    assert basis.elements == expected
    # valuation a appears in the reduced basis although inputs have valuation 0
    coeffs = [c for p in basis.elements for c in p.terms.values()]
    assert max(qt.val(c) for c in coeffs) == a


def test_single_generator():
    x = P(QQ, "x,y", "x")
    basis = buchberger([x], zero_order(2))
    assert basis.elements == [x]


def test_rejects_inhomogeneous_and_empty():
    with pytest.raises(ValueError):
        buchberger([P(Qp(2), "x,y", "x+2x^2")], zero_order(2))
    with pytest.raises(ValueError):
        buchberger([Polynomial.zero(QQ, 2)], zero_order(2))


def test_rejects_short_weight_vector():
    # the weights would silently cover only x and y of three variables
    F = polys(Qp(2), "x,y,z", "x*y+2z^2", "y*z-4x^2", "x*z+y^2")
    with pytest.raises(ValueError, match="order/variable mismatch"):
        buchberger(F, WeightedOrder((1, 2), GREVLEX))


def test_zero_generators_filtered_and_deduped():
    f2 = Qp(2)
    f = P(f2, "x,y", "x+2y")
    basis = buchberger([Polynomial.zero(f2, 2), f, f.scale(3)], zero_order(2))
    assert len(basis.elements) == 1


def test_reduce_basis_golden():
    f2 = Qp(2)
    basis = buchberger(polys(f2, "x,y", "x+2y", "y"), zero_order(2, LEX))
    red = reduce_basis(basis)
    assert red.elements == polys(f2, "x,y", "x", "y")
    # idempotence
    again = reduce_basis(red)
    assert again.elements == red.elements


def test_reduce_basis_keeps_already_reduced():
    f, g, order = qt_family(5)
    red = reduce_basis(buchberger([f, g], order))
    assert reduce_basis(red).elements == red.elements


def assert_reduced_basis_of(red, gb):
    """Check red against gb without the oracle: monic, minimal leading
    monomials, tails outside the leading ideal, and inside the ideal."""
    order = gb.order
    lms = [leading_term(g, order)[1] for g in red.elements]
    assert sorted(lms) == sorted(minimal_generators(gb.leading_monomials()))
    for g, lm in zip(red.elements, lms):
        assert g.terms[lm] == g.field.one()
        assert not any(mono_divides(t, m) for m in g.terms if m != lm for t in lms)
        assert normal_form(g, gb.elements, order).remainder.is_zero()


def test_reduce_basis_equals_division_oracle():
    # the former tail reduction by division is the oracle; the elimination
    # must give the same unique reduced basis, element order included
    rng = random.Random("reduce-basis-equality")
    fields = [Qp(2), Qp(3), Qp(5), QQ, Qt(), GF(3), GF(5)]
    budget = 2000
    trials = 420
    skipped = 0
    for trial in range(trials):
        field = fields[trial % len(fields)]
        nvars = rng.randint(2, 4)
        tiebreak = [GREVLEX, LEX, TermOrder("grevlex", tuple(reversed(range(nvars))))][
            trial // len(fields) % 3
        ]
        w = tuple(rng.randint(-3, 3) for _ in range(nvars))
        if not any(w):
            w = (1,) + w[1:]
        if isinstance(field, ModPmRing):  # trivially valued: weight zero
            w = (0,) * nvars
        F = [
            random_homogeneous(rng, field, nvars, rng.randint(1, 3), max_terms=4)
            for _ in range(rng.randint(1, 3))
        ]
        order = WeightedOrder(w, tiebreak)
        try:
            gb = buchberger(F, order, max_coeff_bits=budget)
            expected = division_reduce_basis(gb, max_coeff_bits=budget)
        except CoefficientBlowup:
            skipped += 1
            continue
        got = reduce_basis(gb)
        assert got.elements == expected.elements, f"trial {trial}: {F} at {w}"
        assert_reduced_basis_of(got, gb)
    assert skipped < 0.05 * trials


def test_reduce_basis_of_cardinality_pair_is_fast():
    # tail reduction by division passed 100000 bits on this pair
    F = list(sample_pair(3, random.Random("cardinality-3-0-0")))
    order = zero_order(3)
    gb = buchberger(F, order)
    best = float("inf")
    for _ in range(3):
        t0 = time.process_time()
        red = reduce_basis(gb)
        best = min(best, time.process_time() - t0)
    assert best < 0.010
    assert red.elements == gb_mod_pm(F, order).elements


def test_reduce_basis_never_divides(monkeypatch):
    # one elimination path for every field: no tail reduction by division
    texts = ("x^2+2x*y+3y^2", "x*y^2-5y^3")
    fields = (QQ, Qp(2), Qp(3), Qt(), GF(3))
    bases = {field: buchberger(polys(field, "x,y", *texts), zero_order(2))
             for field in fields}
    calls = []
    real = valgb.groebner.normal_form

    def recorder(*args, **kwargs):
        calls.append(args[0].field)
        return real(*args, **kwargs)

    monkeypatch.setattr(valgb.groebner, "normal_form", recorder)
    for field in fields:
        reduce_basis(bases[field])
    assert calls == []
    # Z/p^m with m > 1 is not a field
    ring = ModPmRing(2, 8)
    basis = GroebnerBasis(polys(ring, "x,y", "x+3y", "y^2"), zero_order(2))
    with pytest.raises(ValueError, match="not a field"):
        reduce_basis(basis)


def test_reduce_basis_rejects_mixed_fields():
    order = zero_order(2)
    mixed = [P(Qp(2), "x,y", "x+2y"), P(QQ, "x,y", "y")]
    with pytest.raises(ValueError, match="field/variable mismatch"):
        reduce_basis(valgb.groebner.GroebnerBasis(mixed, order))
    uneven = [P(QQ, "x,y", "x+2y"), P(QQ, "x,y,z", "z")]
    with pytest.raises(ValueError, match="field/variable mismatch"):
        reduce_basis(valgb.groebner.GroebnerBasis(uneven, order))


def test_generation_property():
    rng = random.Random("generation")
    for field in (Qp(2), Qp(3), QQ):
        for _ in range(25):
            gens = random_ideal(rng, field, 3)
            order = WeightedOrder(random_weights(rng, field, 3), GREVLEX)
            basis = reduce_basis(buchberger(gens, order))
            for f in gens:
                if f.is_zero():
                    continue
                res = normal_form(f, basis.elements, order)
                assert res.remainder.is_zero()


def test_spolys_of_basis_reduce_to_zero():
    rng = random.Random("spolyzero")
    field = Qp(2)
    for _ in range(15):
        gens = random_ideal(rng, field, 3, max_degree=2)
        order = WeightedOrder(random_weights(rng, field, 3), GREVLEX)
        basis = buchberger(gens, order)
        G = basis.elements
        for j in range(len(G)):
            for i in range(j):
                s = s_polynomial(G[i], G[j], order)
                if s.is_zero():
                    continue
                assert normal_form(s, G, order).remainder.is_zero()


def test_criteria_do_not_change_reduced_basis():
    # master seed pinned to a sample where the rational runs stay small;
    # intermediate coefficient blow-up on unlucky draws is a documented
    # phenomenon and is exercised separately via the circuit breaker
    rng = random.Random("criteria-suite")
    for field in (Qp(2), Qp(5), QQ):
        for _ in range(20):
            gens = random_ideal(rng, field, 3, max_degree=3)
            order = WeightedOrder(random_weights(rng, field, 3), GREVLEX)
            with_c = reduce_basis(buchberger(gens, order, use_criteria=True))
            without_c = reduce_basis(buchberger(gens, order, use_criteria=False))
            assert with_c.elements == without_c.elements


def test_criteria_soundness_under_lex():
    # the skip criteria are order-agnostic; exercise the lex path too
    rng = random.Random("criteria-lex")
    for field in (Qp(2), Qp(3)):
        for _ in range(15):
            gens = random_ideal(rng, field, 3, max_degree=2, max_gens=2)
            order = WeightedOrder(random_weights(rng, field, 3), LEX)
            with_c = reduce_basis(buchberger(gens, order, use_criteria=True))
            without_c = reduce_basis(buchberger(gens, order, use_criteria=False))
            assert with_c.elements == without_c.elements


def test_agreement_with_reference_engine():
    # trivial valuation and zero weights reduce to classical bases
    rng = random.Random("reference")
    for kind in ("grevlex", "lex"):
        order = zero_order(3, TermOrder(kind))
        for _ in range(20):
            gens = random_ideal(rng, QQ, 3, max_degree=2, max_gens=2)
            mine = reduce_basis(buchberger(gens, order))
            ref = reference_leading_monomials(
                [to_oracle(g) for g in gens], kind=kind
            )
            assert sorted(mine.leading_monomials()) == ref


def test_minimal_generators():
    gens = [(2, 0), (1, 1), (2, 1), (0, 3), (1, 1)]
    assert minimal_generators(gens) == [(1, 1), (2, 0), (0, 3)]


def test_sort_basis_orders_by_degree_then_lm():
    f2 = Qp(2)
    order = zero_order(3)
    a = P(f2, XYZ, "z^3")
    b = P(f2, XYZ, "x*y")
    c = P(f2, XYZ, "x^2")
    srt = sort_basis([a, b, c], order)
    assert srt == [c, b, a]


def test_qt_basis_with_denominator_coefficients():
    # a non-monic lead forces rational-function denominators downstream
    qt = Qt()
    f = P(qt, "x,y", "(1+t)*x^2+t*x*y")
    g = P(qt, "x,y", "x*y+t^2*y^2")
    order = zero_order(2)
    basis = reduce_basis(buchberger([f, g], order))
    for b in basis.elements:
        res = normal_form(b, [f, g], order)
        # the certificate reproduces each reduced element exactly
        acc = res.remainder
        for h, gen in zip(res.quotients, [f, g]):
            acc = acc + h * gen
        assert acc == b
    # and the reduced basis really involves a denominator
    dens = {c.den for b in basis.elements for c in b.terms.values()}
    assert any(d != (1,) and len(d) > 1 for d in dens)


def test_qt_hilbert_function_equality():
    rng = random.Random("qt-hilbert")
    from math import comb
    from valgb import hilbert_dim, monomials_of_degree
    from valgb.polynomials import mono_divides

    qt = Qt()
    for _ in range(5):
        gens = random_ideal(rng, qt, 3, max_degree=2, max_gens=2)
        order = WeightedOrder(random_weights(rng, qt, 3), GREVLEX)
        basis = reduce_basis(buchberger(gens, order))
        lms = basis.leading_monomials()
        for d in range(0, 4):
            dim = hilbert_dim(gens, d)
            assert dim == macaulay_dim(gens, d)
            left = comb(3 + d - 1, d) - dim
            right = sum(
                1 for m in monomials_of_degree(3, d)
                if not any(mono_divides(lm, m) for lm in lms)
            )
            assert left == right


def test_concurrent_use_of_shared_inputs():
    # values are immutable and operations pure: concurrent runs must agree
    import concurrent.futures

    f2 = Qp(2)
    gens = polys(f2, XYZ, "y+16z", "x^2+y^2+z^2")
    order = WeightedOrder((3, 2, 1), GREVLEX)
    expected = reduce_basis(buchberger(gens, order)).elements

    def work(_):
        return reduce_basis(buchberger(gens, order)).elements

    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(work, range(8)))
    assert all(r == expected for r in results)


def test_hilbert_function_equality_small():
    # dim_K(S/I)_d matches the count of standard monomials of the initial ideal
    from valgb import hilbert_dim, monomials_of_degree
    from valgb.polynomials import mono_divides
    from math import comb

    rng = random.Random("hilbert-small")
    for field in (Qp(2), Qp(3)):
        for _ in range(10):
            gens = random_ideal(rng, field, 3, max_degree=2, max_gens=2)
            order = WeightedOrder(random_weights(rng, field, 3), GREVLEX)
            basis = reduce_basis(buchberger(gens, order))
            lms = basis.leading_monomials()
            for d in range(0, 5):
                dim = hilbert_dim(gens, d)
                assert dim == macaulay_dim(gens, d)
                left = comb(3 + d - 1, d) - dim
                monos = monomials_of_degree(3, d)
                right = sum(
                    1 for m in monos if not any(mono_divides(lm, m) for lm in lms)
                )
                assert left == right


# ROADMAP W1: against its unreduced basis, one normal form took 85 steps and
# reached 257k-bit intermediates
W1_TEXTS = ("-8x^2*y-4x*y*z-y^2*z", "-3y^3+6x^2*z-6x*y*z+2z^3", "5x*y-6x*z-8y*z+3z^2")


def _w1():
    return polys(Qp(2), XYZ, *W1_TEXTS), WeightedOrder((-1, 0, -2), GREVLEX)


def completion_suite():
    """(label, generators, order) over Qp(2), Qp(3), Qp(5) and Q: the
    ``modpm-d`` set over its Qp(p) and over Q, W1, and the cardinality pairs
    for e = 1, 2, 3 over Qp(2) and over Q under each classical order."""
    out = []
    rng = random.Random("modpm-d")  # the mod-p^m agreement suite's sample
    for trial in range(100):
        field = Qp([2, 3, 5][trial % 3])
        gens = random_ideal(rng, field, 3, max_degree=3, max_gens=3, height=50)
        order = WeightedOrder(random_weights(rng, field, 3), GREVLEX)
        out.append((f"modpm-d {trial} {field}", gens, order))
        out.append((f"modpm-d {trial} Q", [g.map_coefficients(Fraction, QQ) for g in gens],
                    order))
    out.append(("W1", *_w1()))
    for e in (1, 2, 3):
        for seed in range(2):
            pair = sample_pair(e, random.Random(f"cardinality-{e}-{seed}-0"))
            out.append((f"pair e={e} seed={seed}", list(pair), zero_order(3)))
            over_q = [g.map_coefficients(Fraction, QQ) for g in pair]
            for tiebreak in default_orders(e):
                out.append((f"pair e={e} seed={seed} Q {tiebreak.label()}", over_q,
                            zero_order(3, tiebreak)))
    return out


def test_integer_completion_matches_fraction_oracle():
    # the same monic elements in the same order, and the same pair statistics
    for label, gens, order in completion_suite():
        basis = buchberger(gens, order)
        elements, stats = fraction_buchberger(gens, order)
        assert basis.elements == elements, label
        assert basis.stats == stats, label


def test_integer_s_polynomials_are_the_fraction_ones():
    # equal polynomials, and the seeded integer form is the one computed afresh
    from valgb.division import _integer_terms

    for label, gens, order in completion_suite()[::3]:
        elements, _ = fraction_buchberger(gens, order)
        for j in range(len(elements)):
            for i in range(j):
                f, g = elements[i], elements[j]
                s = fraction_s_polynomial(f, g, order)
                got = s_polynomial(f, g, order)
                assert got == s, label
                if s:
                    fresh = Polynomial(s.field, s.nvars, dict(s.terms), _clean=True)
                    assert _integer_terms(got) == _integer_terms(fresh), label


@pytest.mark.parametrize("field", [ModPmRing(2, 16), ModPmRing(3, 7), GF(5), Qt()])
def test_s_polynomials_on_term_dicts_are_the_polynomial_ones(field):
    # over the non-integral rings the S-polynomial is formed on term dicts;
    # it equals lc(g)*x^xf*f - lc(f)*x^xg*g formed by Polynomial arithmetic,
    # also where products of p-power coefficients vanish mod p^m
    rng = random.Random(f"term-dict-s-poly-{field.label}")
    p = getattr(field, "p", None) if field.modulus else None
    vanished = 0
    for trial in range(300):
        nvars = rng.randint(1, 3)
        f, g = (random_homogeneous(rng, field, nvars, rng.randint(1, 3), max_terms=5)
                for _ in range(2))
        if p is not None and field.m > 1:
            f, g = (Polynomial(field, nvars, {m: c * p ** rng.randint(0, field.m)
                                              for m, c in h.terms.items()})
                    for h in (f, g))
            if not f or not g:
                continue
        order = WeightedOrder(random_weights(rng, field, nvars), GREVLEX)
        _, lmf, lcf = leading_term(f, order)
        _, lmg, lcg = leading_term(g, order)
        lcm = mono_lcm(lmf, lmg)
        xf = tuple(a - b for a, b in zip(lcm, lmf))
        xg = tuple(a - b for a, b in zip(lcm, lmg))
        want = f.mono_mul(xf, lcg) - g.mono_mul(xg, lcf)
        assert s_polynomial(f, g, order) == want, trial
        vanished += len(want.terms) < len(f.terms) + len(g.terms) - 2
    assert vanished > 0


def test_integer_completion_trips_the_breaker_as_the_oracle_does():
    def outcome(run, budget):
        try:
            return run(max_coeff_bits=budget)
        except CoefficientBlowup as exc:
            return str(exc)

    suite = completion_suite()
    tripped = 0
    for label, gens, order in suite[:60:5] + [s for s in suite if s[0] == "W1"]:
        for budget in (16, 32, 64, 128, 256, 1024):
            got = outcome(lambda **kw: buchberger(gens, order, **kw).elements, budget)
            want = outcome(lambda **kw: fraction_buchberger(gens, order, **kw)[0], budget)
            assert got == want, (label, budget)
            tripped += isinstance(got, str)
    assert tripped > 10


def test_is_basis_of_matches_fraction_oracle():
    # verdicts on each reduced basis, on it with one element dropped, and on
    # it with one element perturbed by a term; a trip must give the same message
    def verdict(check):
        try:
            return check()
        except CoefficientBlowup as exc:
            return str(exc)

    rng = random.Random("verdicts")
    falses = {"reduced": 0, "dropped": 0, "perturbed": 0}
    for label, gens, order in completion_suite():
        red = reduce_basis(buchberger(gens, order)).elements
        k = rng.randrange(len(red))
        g = red[k]
        bump = Polynomial.term(g.field, 3, rng.choice(list(compositions(3, g.degree()))), 1)
        variants = {"reduced": red, "perturbed": red[:k] + [g + bump] + red[k + 1:]}
        if len(red) > 1:
            variants["dropped"] = red[:k] + red[k + 1:]
        for kind, elements in variants.items():
            got = verdict(lambda: is_basis_of(GroebnerBasis(elements, order), gens,
                                              max_coeff_bits=4096))
            want = verdict(lambda: fraction_is_basis_of(elements, gens, order,
                                                        max_coeff_bits=4096))
            assert got == want, (label, kind)
            falses[kind] += got is False
    assert falses["reduced"] == 0
    assert falses["dropped"] > 50 and falses["perturbed"] > 50, falses


def test_progress_reports_every_popped_pair():
    # pairs skipped by a criterion or with a zero S-polynomial report too
    rng = random.Random("progress")
    inputs = [(gens, order, {}) for _, gens, order in completion_suite()[::7]]
    inputs += [(gens, order, {"use_criteria": False}) for gens, order, _ in inputs[::3]]
    for field in (Qt(), GF(3), ModPmRing(3, 8)):
        for trial in range(10):
            inputs.append((random_ideal(rng, field, 3, max_degree=3, max_gens=3),
                           zero_order(3), {}))
    for gens, order, options in inputs:
        calls = []
        stats = buchberger(gens, order, progress=lambda *a: calls.append(a),
                           **options).stats
        assert len(calls) == stats["pairs"]
        assert calls[-1:] == ([(stats["pairs"], 0)] if calls else [])


def test_is_basis_of_checks_one_inclusion_only():
    # it checks that the generators lie in <G>, not that <G> lies in <F>:
    # [x, y] is a basis and contains x, so it passes for F = [x]
    f2 = Qp(2)
    x, y = polys(f2, "x,y", "x", "y")
    order = zero_order(2)
    assert is_basis_of(GroebnerBasis([x, y], order), [x]) is True
    assert is_basis_of(GroebnerBasis([x], order), [x, y]) is False


def test_nine_variable_no_criteria_run_trips_the_breaker():
    gens, _, order = nine_variable_problem()
    message = "leading coefficient exceeded 20000 bits after 77 steps"
    with pytest.raises(CoefficientBlowup) as exc:
        buchberger(gens, order, use_criteria=False, max_coeff_bits=20000)
    assert str(exc.value) == message
    with pytest.raises(CoefficientBlowup) as exc:
        fraction_buchberger(gens, order, use_criteria=False, max_coeff_bits=20000)
    assert str(exc.value) == message


def test_qt_degree_growth_trips_the_breaker():
    # this run's scalars grow in t-degree far more than in coefficient width;
    # against the interreduced basis it stays within 3000 bits, and a tighter
    # budget keeps the breaker covered over Q(t)
    gens = polys(Qt(), "x,y,z",
                 "(1+t)*x^2+(3+t^2)/(1-t)*y*z+t^3*z^2",
                 "(2-t)*x*y-(1+t^4)*y^2+t*z^2",
                 "x*z+(t+5)*y*z+(8-t^2)*z^2")
    order = WeightedOrder((1, 2, 0), GREVLEX)
    gb = buchberger(gens, order, max_coeff_bits=3000)
    assert gb.stats["interreductions"] > 0
    red = reduce_basis(gb)
    assert red.elements == lift_groebner(gens, order, red.leading_monomials()).elements
    with pytest.raises(CoefficientBlowup) as exc:
        buchberger(gens, order, max_coeff_bits=1500)
    assert str(exc.value) == "leading coefficient exceeded 1500 bits after 2 steps"


def test_qt_interreduction_keeps_the_scalars_small():
    # the n = 3 Q(t) ideal at seed 0 of the ROADMAP's family: against an
    # unreduced basis the loop held 27,997-bit scalars; interreduced, it
    # completes within 20000 bits
    gens = polys(Qt(), XYZ,
                 "3*x^2-x*y+(2+t-t^2)*x*z+4*t*z^2",
                 "-4*x^2+(4-3*t-t^2)*x*y+(2*t+3*t^2)*y^2+4*t*x*z",
                 "-4*x*y+(1+5*t+5*t^2)*x*z+4*y*z-(1+5*t-3*t^2)*z^2")
    order = WeightedOrder((1, 0, -1), GREVLEX)
    gb = buchberger(gens, order, max_coeff_bits=20000)
    assert gb.stats["interreductions"] > 0
    red = reduce_basis(gb)
    assert red.elements == lift_groebner(gens, order, red.leading_monomials()).elements


def test_w1_completes_within_a_small_bit_budget():
    # against the unreduced basis W1 passed 4096, 16384 and 65536 bits, after
    # 49, 63 and 74 steps; against the interreduced one it stays within 8192
    gens, order = _w1()
    gb = buchberger(gens, order, max_coeff_bits=8192)
    assert gb.stats["interreductions"] > 0
    assert reduce_basis(gb).elements == gb_mod_pm(gens, order).elements


def test_w1_unreduced_basis_verifies_within_a_small_bit_budget():
    # verifying the loop's basis used to run for minutes in one division
    gens, order = _w1()
    assert is_basis_of(buchberger(gens, order), gens, max_coeff_bits=8192) is True


def test_nine_variable_basis_is_never_interreduced():
    # no element joins, so the input generators stay as they are
    gens, _, order = nine_variable_problem()
    stats = buchberger(gens, order).stats
    assert stats["new_elements"] == 0 and stats["interreductions"] == 0


def test_interreduction_is_only_where_the_division_records_states():
    # over Q and GF(p) the division records no state and the loop never
    # interreduces; over Q(t) it does, and the basis still reduces to the
    # one the lift rebuilds from the generators
    joined = interreduced = 0
    for label, gens, order in completion_suite():
        if gens[0].field == QQ:
            stats = buchberger(gens, order).stats
            assert stats["interreductions"] == 0, label
            joined += stats["new_elements"] > 0
    rng = random.Random("interreduction-guard")
    for field in (Qt(), GF(3), GF(5)):
        for trial in range(20):
            gens = random_ideal(rng, field, 3, max_degree=2, max_gens=3)
            weights = (0, 0, 0) if field != Qt() else random_weights(rng, field, 3)
            order = WeightedOrder(weights, GREVLEX)
            gb = buchberger(gens, order)
            joined += gb.stats["new_elements"] > 0
            if field != Qt():
                assert gb.stats["interreductions"] == 0, (field, trial)
                continue
            interreduced += gb.stats["interreductions"] > 0
            red = reduce_basis(gb)
            lifted = lift_groebner(gens, order, red.leading_monomials())
            assert red.elements == lifted.elements, trial
    assert joined > 50 and interreduced > 0


def test_completion_builds_no_fraction_terms(monkeypatch):
    # over Q and Qp the loop's S-polynomials and elements are integer-backed;
    # every build of their Fraction terms passes through the one hook below
    import valgb.lifting
    from valgb.cardinality import cardinality_report
    from valgb.polynomials import _IntegerBacked

    built = []
    real = _IntegerBacked.__getattr__

    def recording(f, name):
        built.append(f)
        return real(f, name)

    monkeypatch.setattr(_IntegerBacked, "__getattr__", recording)
    assert cardinality_report(2, seed=0).bound_holds()
    gens, order = _w1()
    assert valgb.lifting._grevlex_leading_ideal(gens)
    reduced = reduce_basis(buchberger(gens, order))
    assert not built
    # the hook sees a read of the coefficients
    assert str(reduced.elements[0]) and built == [reduced.elements[0]]
