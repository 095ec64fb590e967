"""Degree and valuation bound formulas with exact arithmetic."""

import math
import random
from fractions import Fraction

import pytest

from valgb import (
    GREVLEX,
    Qp,
    WeightedOrder,
    buchberger,
    dube_degree_bound,
    effective_valuation_bound,
    reduce_basis,
    valuation_bound,
)
from valgb.bounds import ceil_log
from valgb.groebner import minimal_generators
from valgb.hilbert import _standard_count
from valgb.polynomials import compositions, mono_divides

from conftest import polys


def test_degree_bound_values():
    assert dube_degree_bound(3, 2) == 32
    assert dube_degree_bound(2, 3) == 15
    assert dube_degree_bound(2, 1) == 3
    assert dube_degree_bound(4, 2) == 512  # 2 * 4^4


def test_degree_bound_equals_the_fraction_formula():
    for n in range(2, 9):
        for d in range(1, 7):
            exact = math.ceil(2 * (Fraction(d * d, 2) + d) ** (2 ** (n - 2)))
            assert dube_degree_bound(n, d) == exact, (n, d)


def test_dube_exceeds_matches_the_built_bound():
    # the exponent argument and the exact comparison agree on every cap
    # around D, and D is not built for 30 variables
    from valgb.bounds import dube_exceeds

    for n in range(2, 8):
        for d in range(1, 5):
            D = dube_degree_bound(n, d)
            for cap in {0, 1, 2, D // 2, D - 1, D, D + 1, 2 * D, 10 ** 6}:
                assert dube_exceeds(n, d, cap) == (D > cap), (n, d, cap)
    assert dube_exceeds(30, 2, 10 ** 30)
    with pytest.raises(ValueError):
        dube_exceeds(1, 2, 8)


def test_degree_bound_rejects_small_n():
    with pytest.raises(ValueError):
        dube_degree_bound(1, 2)
    with pytest.raises(ValueError):
        dube_degree_bound(3, 0)


def test_ceil_log():
    assert ceil_log(2, 1) == 0
    assert ceil_log(2, 4) == 2
    assert ceil_log(2, 5) == 3
    assert ceil_log(3, 18) == 3
    assert ceil_log(3, 27) == 3
    assert ceil_log(3, 28) == 4


def test_valuation_bound_values():
    assert valuation_bound(1, 4, 2) == Fraction(4)
    assert valuation_bound(1, 1, 2) == Fraction(0)
    assert valuation_bound(3, 2, 3) == Fraction(3)
    with pytest.raises(ValueError):
        valuation_bound(0, 1, 2)


def test_bounds_monotone():
    for n in (2, 3):
        for d in (1, 2, 3):
            assert dube_degree_bound(n, d) <= dube_degree_bound(n, d + 1)
            assert dube_degree_bound(n, d) <= dube_degree_bound(n + 1, d)
    for c in (1, 2, 5):
        for a in (1, 3, 7):
            assert valuation_bound(c, a, 2) <= valuation_bound(c + 1, a, 2)
            assert valuation_bound(c, a, 2) <= valuation_bound(c, a + 1, 2)


def test_effective_bound_principal():
    f2 = Qp(2)
    F = polys(f2, "x,y,z", "x+z")
    report = effective_valuation_bound(F, 2, degree_cap=32)
    # delta = 1 so the bound degree is ceil(2 * (3/2)^2) = 5, uncapped
    assert report.degree_bound == 5
    assert report.evaluated_degree == 5
    assert not report.truncated
    assert report.ideal_dim == 15  # dim of (x+z) * S_4
    assert report.valuation_bound == valuation_bound(1, 15, 2)


def test_effective_bound_zero_ideal():
    report = effective_valuation_bound([], 2)
    assert report.valuation_bound == 0


def test_effective_bound_rejects_non_rational_coefficients():
    from valgb import Qt

    with pytest.raises(ValueError):
        effective_valuation_bound(polys(Qt(), "x,y", "t*x+y"), 2)


def test_effective_bound_past_sixteen_variables():
    # D = 2*4^(2^28) is never built: the report holds None in its place, and
    # A is the complete-intersection value 2*C(35, 6) - C(33, 4)
    names = ",".join(f"x{i}" for i in range(1, 31))
    F = polys(Qp(2), names, "x1^2+2*x2*x3", "x4*x5")
    report = effective_valuation_bound(F, 2, degree_cap=8)
    assert report.degree_bound is None
    assert report.evaluated_degree == 8 and report.truncated
    assert report.ideal_dim == 2 * math.comb(35, 6) - math.comb(33, 4)


def test_effective_bound_truncation_flag():
    f2 = Qp(2)
    F = polys(f2, "x,y,z", "x^2+y^2+z^2", "x*y")
    report = effective_valuation_bound(F, 2, degree_cap=6)
    assert report.degree_bound == 32
    assert report.evaluated_degree == 6
    assert report.truncated


def test_bound_dominates_actual_valuations():
    f2 = Qp(2)
    F = polys(f2, "x,y,z", "y+16z", "x^2+y^2+z^2")
    order = WeightedOrder((3, 2, 1), GREVLEX)
    basis = reduce_basis(buchberger(F, order))
    max_deg = max(g.degree() for g in basis.elements)
    report = effective_valuation_bound(F, 2, degree_cap=8)
    assert max_deg <= report.evaluated_degree
    worst = max(
        f2.val(c) for g in basis.elements for c in g.terms.values()
    )
    assert worst <= report.valuation_bound


def test_standard_count_matches_enumeration():
    # the count of degree-d monomials outside a monomial ideal, read from its
    # generators, against listing every monomial of degree d
    rng = random.Random("standard-count")
    for _ in range(300):
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(0, 6))]
        gens = minimal_generators(gens)
        d = rng.randint(0, 7)
        outside = sum(1 for m in compositions(n, d)
                      if not any(mono_divides(g, m) for g in gens))
        assert _standard_count(gens, n, d) == outside, (gens, d)
    assert _standard_count([(1, 0)], 2, -1) == 0
