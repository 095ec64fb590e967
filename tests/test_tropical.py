"""Initial ideals, saturation-based monomial detection, tropical membership."""

import random
import time

import pytest

from valgb import (
    CoefficientBlowup,
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
    contains_monomial,
    gb_mod_pm,
    in_tropical_variety,
    initial_form,
    initial_ideal,
    reduce_basis,
)
from valgb.cardinality import sample_pair
from valgb.tropical import saturate_variable

from conftest import P, polys, random_homogeneous, to_oracle
from oracles import brute_force_contains_monomial

XYZ = "x,y,z"


def test_initial_ideal_qt_family():
    qt = Qt()
    F = polys(qt, XYZ, "x+z", "y*z+t^5*z^2")
    gens = initial_ideal(F, WeightedOrder((1, 5, 10), GREVLEX))
    # weight 1 beats weight 10 on x+z, so only x survives there
    assert gens == polys(QQ, XYZ, "x", "y*z")


def test_initial_ideal_monomial():
    F = polys(Qp(2), "x,y", "x")
    gens = initial_ideal(F, WeightedOrder((0, 0), GREVLEX))
    assert gens == polys(GF(2), "x,y", "x")


def test_initial_ideal_principal_padic():
    F = polys(Qp(3), "x,y", "3x^2+x*y+18y^2")
    gens = initial_ideal(F, WeightedOrder((2, 0), GREVLEX))
    assert gens == polys(GF(3), "x,y", "x*y+2y^2")


def test_initial_ideal_equals_forms_of_valued_reduced_basis():
    # the former definition: initial forms of the basis reduced over the
    # valued field, which equals the reduced basis of in_w(I) over the residue
    # field, order of elements included
    rng = random.Random("initial-ideal-equality")
    fields = [Qp(2), Qp(3), Qp(5), QQ, Qt()]
    budget = 2000
    compared = 0
    for trial in range(150):
        field = fields[trial % len(fields)]
        nvars = rng.randint(2, 4)
        tiebreak = [GREVLEX, LEX, TermOrder("grevlex", tuple(reversed(range(nvars))))][
            trial // len(fields) % 3
        ]
        w = tuple(rng.randint(-3, 3) for _ in range(nvars))
        if not any(w):
            w = (1,) + w[1:]
        F = [
            random_homogeneous(rng, field, nvars, rng.randint(1, 3), max_terms=4)
            for _ in range(rng.randint(1, 3))
        ]
        order = WeightedOrder(w, tiebreak)
        try:
            gb = buchberger(F, order, max_coeff_bits=budget)
        except CoefficientBlowup:
            with pytest.raises(CoefficientBlowup):
                initial_ideal(F, order, max_coeff_bits=budget)
            continue
        expected = [initial_form(g, w) for g in reduce_basis(gb).elements]
        got = initial_ideal(F, order, max_coeff_bits=budget)
        assert got == expected, f"trial {trial}: {[str(f) for f in F]} at {w}"
        assert all(g.field == field.residue_field() for g in got)
        compared += 1
    assert compared >= 120


def test_initial_ideal_of_cardinality_pair_is_fast():
    # tail reduction over Qp(2) runs for minutes on this pair; over GF(2) the
    # initial forms of the unreduced basis are already reduced
    F = list(sample_pair(3, random.Random("cardinality-3-0-0")))
    order = WeightedOrder((0, 0, 0), GREVLEX)
    t0 = time.process_time()
    gens = initial_ideal(F, order, max_coeff_bits=4096)
    assert time.process_time() - t0 < 1.0
    assert gens == polys(GF(2), "x1,x2,x3", "x1^6", "x2^3*x3^3")
    assert gens == [initial_form(g, order.weights) for g in gb_mod_pm(F, order).elements]


def test_contains_monomial_basics():
    g2 = GF(2)
    x = Polynomial.variable(g2, 2, 0)
    y = Polynomial.variable(g2, 2, 1)
    assert contains_monomial([x])
    assert not contains_monomial([x + y])
    g3 = GF(3)
    x3, y3 = Polynomial.variable(g3, 2, 0), Polynomial.variable(g3, 2, 1)
    assert contains_monomial([x3 + y3, x3 - y3])
    assert not contains_monomial([])


def test_contains_monomial_unit_ideal_input():
    g2 = GF(2)
    one = Polynomial.constant(g2, 2, 1)
    assert contains_monomial([one])
    x = Polynomial.variable(g2, 2, 0)
    assert contains_monomial([x, one])  # constant among the generators


def test_contains_monomial_requires_homogeneous():
    with pytest.raises(ValueError):
        contains_monomial([P(QQ, "x,y", "x+x^2")])


def test_saturate_variable_strips_powers():
    # (x*y) : y^inf = (x)
    g2 = GF(2)
    xy = P(g2, "x,y", "x*y")
    out = saturate_variable([xy], 1)
    assert out == [P(g2, "x,y", "x")]


def test_contains_monomial_agrees_with_brute_force(rng):
    fields = [GF(2), GF(3), QQ]
    checked = 0
    while checked < 50:
        field = rng.choice(fields)
        gens = [
            random_homogeneous(rng, field, 3, rng.randint(1, 2), max_terms=3, height=4)
            for _ in range(rng.randint(1, 2))
        ]
        fast = contains_monomial(gens)
        slow = brute_force_contains_monomial(
            [to_oracle(g) for g in gens],
            p=getattr(field, "p", None),
        )
        assert fast == slow, f"disagreement on {[str(g) for g in gens]}"
        checked += 1


def test_saturation_order_independent(rng):
    g3 = GF(3)
    for _ in range(10):
        gens = [
            random_homogeneous(rng, g3, 3, rng.randint(1, 2), max_terms=3)
            for _ in range(2)
        ]
        base = contains_monomial(gens)
        # permute processing order by renaming variables cyclically
        perm = [1, 2, 0]
        permuted = [
            Polynomial(
                g3, 3, {tuple(m[p] for p in perm): c for m, c in g.terms.items()}
            )
            for g in gens
        ]
        assert contains_monomial(permuted) == base


def test_membership_line_ideal():
    line = polys(QQ, XYZ, "x+y+z")
    assert in_tropical_variety(line, (0, 0, 0))
    assert not in_tropical_variety(line, (-1, 0, 0))
    assert in_tropical_variety(line, (1, 0, 0))


def test_membership_invariant_under_diagonal_shift(rng):
    line = polys(QQ, XYZ, "x+y+z")
    for w in [(0, 0, 0), (-1, 0, 0), (2, 1, 0)]:
        base = in_tropical_variety(line, w)
        for _ in range(20):
            c = rng.randint(-10, 10)
            shifted = tuple(wi + c for wi in w)
            assert in_tropical_variety(line, shifted) == base


def test_membership_padic():
    # x + y over Q2: in_w picks the lower of val(1)+w1, val(1)+w2
    F = polys(Qp(2), "x,y", "x+2y")
    assert in_tropical_variety(F, (1, 0))  # both terms weight 1: x + y survives
    assert not in_tropical_variety(F, (0, 0))  # x alone
    assert not in_tropical_variety(F, (3, 0))  # y alone


def test_membership_honours_max_coeff_bits():
    # the seeded Qp(2) quadric family's n = 4 seed 2 (ROADMAP)
    F = polys(Qp(2), "x1,x2,x3,x4",
              "-28*x1^2+9*x1*x2-32*x2*x3-4*x3^2+35*x3*x4-23*x4^2",
              "-32*x1^2-34*x2^2-33*x1*x3-8*x3^2+11*x2*x4-6*x4^2",
              "-49*x1^2+16*x2^2-11*x1*x3-9*x2*x3-26*x2*x4+40*x4^2")
    t0 = time.perf_counter()
    with pytest.raises(CoefficientBlowup, match="exceeded 4096 bits after 13 steps"):
        in_tropical_variety(F, (-2, 2, 2, -1), max_coeff_bits=4096)
    assert time.perf_counter() - t0 < 5.0


def test_saturation_honours_max_coeff_bits():
    # the breaker reaches each saturation's completion, not only the first
    F = polys(QQ, XYZ, "x*y-3*y^2+7*z^2", "x^2-5*y*z")
    assert not contains_monomial(F)
    with pytest.raises(CoefficientBlowup):
        contains_monomial(F, max_coeff_bits=4)
    with pytest.raises(CoefficientBlowup):
        saturate_variable(F, 0, max_coeff_bits=4)
