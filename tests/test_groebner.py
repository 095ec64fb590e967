"""Completion loop: S-polynomials, criteria, golden bases, reduction."""

import random

import pytest

from valgb import (
    GREVLEX,
    LEX,
    CriticalPair,
    Polynomial,
    Qp,
    QQ,
    Qt,
    TermOrder,
    WeightedOrder,
    buchberger,
    criterion_b1,
    criterion_b2,
    normal_form,
    reduce_basis,
    s_polynomial,
    sort_basis,
)
from valgb.groebner import minimal_generators
from valgb.polynomials import mono_lcm

from conftest import (
    P,
    polys,
    random_ideal,
    random_weights,
    to_oracle,
    zero_order,
)
from oracles import reference_leading_monomials

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
            left = comb(3 + d - 1, d) - hilbert_dim(gens, d)
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
                left = comb(3 + d - 1, d) - hilbert_dim(gens, d)
                monos = monomials_of_degree(3, d)
                right = sum(
                    1 for m in monos if not any(mono_divides(lm, m) for lm in lms)
                )
                assert left == right
