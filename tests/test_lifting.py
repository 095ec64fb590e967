"""Hilbert dimensions, reconstruction from initial monomials, mod-p^m runs."""

import random
from fractions import Fraction
from math import lcm

import pytest

from valgb import (
    GF,
    GREVLEX,
    Qp,
    QQ,
    Qt,
    RatFunc,
    WeightedOrder,
    buchberger,
    hilbert_dim,
    lift_groebner,
    reduce_basis,
)
from valgb.lifting import LiftInconsistent, clear_denominators, gb_mod_pm
from valgb.linalg import bareiss_rank, rref

from conftest import P, polys, random_ideal, random_weights, zero_order
from oracles import gauss_jordan

XYZ = "x,y,z"


def test_bareiss_rank_small():
    assert bareiss_rank([[1, 2], [2, 4]]) == 1
    assert bareiss_rank([[1, 2], [2, 1]]) == 2
    assert bareiss_rank([[0, 0], [0, 0]]) == 0
    assert bareiss_rank([[0, 1, 2], [0, 2, 4], [1, 0, 0]]) == 2


def test_bareiss_rank_against_fraction_elimination():
    rng = random.Random("rank")
    for _ in range(50):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        frac_rows = [[Fraction(c) for c in row] for row in m]
        _, pivots = rref(frac_rows, QQ)
        assert bareiss_rank(m) == len(pivots)


def _random_fraction_matrix(rng, nrows, ncols):
    """A product of random Fraction factors of inner size below the shape,
    with zero rows and zero columns inserted at random places."""
    inner = rng.randint(0, min(nrows, ncols))

    def entry():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 8))

    left = [[entry() for _ in range(inner)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(inner)]
    m = [
        [sum((a * right[k][j] for k, a in enumerate(row)), Fraction(0))
         for j in range(ncols)]
        for row in left
    ]
    for _ in range(rng.randint(0, 2)):
        j = rng.randint(0, ncols)
        for row in m:
            row.insert(j, Fraction(0))
        ncols += 1
    for _ in range(rng.randint(0, 2)):
        m.insert(rng.randint(0, len(m)), [Fraction(0)] * ncols)
    return m


def test_rref_and_rank_against_gauss_jordan_oracle():
    rng = random.Random("rref-oracle")
    for trial in range(300):
        m = _random_fraction_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        expected = gauss_jordan(m)
        for field in (QQ, Qp(2)):
            assert rref(m, field) == expected, f"trial {trial}, {field}"
        scale = lcm(*(c.denominator for row in m for c in row))
        ints = [[int(c * scale) for c in row] for row in m]
        assert bareiss_rank(ints) == len(expected[1]), f"trial {trial}"


def test_rref_keeps_field_scalar_types():
    qt = Qt()
    t, one = RatFunc.t_power(1), qt.one()
    rows = [[t, one, qt.zero()], [one, t, t], [t, t, one]]
    reduced, pivots = rref(rows, qt)
    assert pivots == [0, 1, 2]
    assert all(isinstance(c, RatFunc) for row in reduced for c in row)
    reduced, pivots = rref([[1, 2, 0], [0, 1, 3], [4, 0, 2]], GF(5))
    assert pivots == [0, 1, 2]
    assert all(type(c) is int for row in reduced for c in row)


def test_macaulay_inputs_must_agree():
    f2 = Qp(2)
    mixed_nvars = [P(f2, "x,y", "x+2y"), P(f2, "x,y,z", "x+3y")]
    with pytest.raises(ValueError, match="field/variable mismatch"):
        hilbert_dim(mixed_nvars, 1)
    mixed_fields = [P(f2, "x,y", "x+2y"), P(Qp(3), "x,y", "y+3x")]
    with pytest.raises(ValueError, match="field/variable mismatch"):
        lift_groebner(mixed_fields, zero_order(2), [(1, 0), (0, 1)])
    F = polys(f2, "x,y", "x+2y", "y+2x")
    with pytest.raises(ValueError, match="monomial/variable mismatch"):
        lift_groebner(F, zero_order(2), [(1, 0, 0), (0, 1)])


def test_rref_prefers_low_valuation_pivots():
    f2 = Qp(2)
    rows = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    reduced, pivots = rref(rows, f2)
    assert pivots == [0, 1]
    # the identity block must be exact
    assert reduced[0][0] == 1 and reduced[1][1] == 1
    assert reduced[0][1] == 0 and reduced[1][0] == 0


def test_clear_denominators():
    f = P(QQ, "x,y", "1/2x+3/4y")
    g = clear_denominators(f)
    assert g == P(QQ, "x,y", "2x+3y")
    h = P(QQ, "x,y", "4x+6y")
    assert clear_denominators(h) == P(QQ, "x,y", "2x+3y")


def test_hilbert_dim_examples():
    f2 = Qp(2)
    F = polys(f2, XYZ, "x^2", "x*y")
    assert hilbert_dim(F, 2) == 2
    F2 = polys(f2, XYZ, "x+z")
    assert hilbert_dim(F2, 1) == 1
    assert hilbert_dim(F2, 3) == 6  # (x+z) * S_2, injective multiplication
    assert hilbert_dim([], 2) == 0
    assert hilbert_dim(F, 1) == 0


def test_hilbert_dim_cardinality_pair():
    from valgb import sample_pair

    rng = random.Random("hd")
    f, g = sample_pair(1, rng)
    assert hilbert_dim([f, g], 2) == 2


def test_hilbert_dim_qt():
    qt = Qt()
    F = polys(qt, XYZ, "x+t*z", "(1+t)*y")
    assert hilbert_dim(F, 1) == 2


def test_lift_single_generator():
    f2 = Qp(2)
    order = WeightedOrder((3, 2, 1), GREVLEX)
    F = polys(f2, XYZ, "y+16z")
    lifted = lift_groebner(F, order, [(0, 1, 0)])
    assert lifted.elements == F


def test_lift_two_by_two():
    f2 = Qp(2)
    F = polys(f2, "x,y", "x+2y", "y+2x")
    order = zero_order(2)
    lifted = lift_groebner(F, order, [(1, 0), (0, 1)])
    assert lifted.elements == polys(f2, "x,y", "x", "y")


def test_lift_rejects_non_member_claim():
    f2 = Qp(2)
    F = polys(f2, "x,y", "x^2+y^2")
    order = zero_order(2)
    with pytest.raises(LiftInconsistent):
        # claiming two independent quadratic leads in a principal ideal
        lift_groebner(F, order, [(2, 0), (0, 2)])


def test_lift_matches_reduced_basis_rows():
    # reduced-basis coefficients appear as reconstruction rows
    rng = random.Random("liftrows")
    f3 = Qp(3)
    for _ in range(10):
        gens = random_ideal(rng, f3, 3, max_degree=2, max_gens=2)
        order = WeightedOrder(random_weights(rng, f3, 3), GREVLEX)
        red = reduce_basis(buchberger(gens, order))
        lifted = lift_groebner(gens, order, red.leading_monomials())
        assert lifted.elements == red.elements


def test_gb_mod_pm_tiny():
    f2 = Qp(2)
    F = polys(f2, "x,y", "x+2y", "y+2x")
    stats = {}
    basis = gb_mod_pm(F, zero_order(2), m=8, stats=stats)
    assert basis.elements == polys(f2, "x,y", "x", "y")
    assert not stats["fallback"]


def test_gb_mod_pm_monomial():
    f2 = Qp(2)
    F = polys(f2, "x,y", "x")
    basis = gb_mod_pm(F, zero_order(2), m=1)
    assert basis.elements == F


def test_gb_mod_pm_retries_from_too_small_m():
    # m = 1 cannot see the 2-adic structure of 16; retries must fix it
    f2 = Qp(2)
    F = polys(f2, XYZ, "y+16z", "x^2+y^2+z^2")
    order = WeightedOrder((3, 2, 1), GREVLEX)
    stats = {}
    basis = gb_mod_pm(F, order, m=1, stats=stats)
    direct = reduce_basis(buchberger(F, order))
    assert basis.elements == direct.elements
    assert not stats["fallback"]


def test_gb_mod_pm_nine_variable_ideal():
    # the lift reconstructs the same ten-element reduced basis that the
    # direct rational run produces
    from conftest import nine_variable_problem
    from valgb import monic

    gens, printed, order = nine_variable_problem()
    stats = {}
    via = gb_mod_pm(gens, order, stats=stats)
    assert not stats["fallback"]
    direct = reduce_basis(buchberger(gens, order))
    assert via.elements == direct.elements
    assert len(via.elements) == 10
    assert sorted(map(str, via.elements)) == sorted(
        str(monic(b, order)) for b in printed
    )


def test_gb_mod_pm_agreement_random():
    rng = random.Random("modpm-agree")
    for trial in range(30):
        p = rng.choice([2, 3, 5])
        field = Qp(p)
        gens = random_ideal(rng, field, 3, max_degree=3, max_gens=3)
        order = WeightedOrder(random_weights(rng, field, 3), GREVLEX)
        stats = {}
        via_modpm = gb_mod_pm(gens, order, stats=stats)
        direct = reduce_basis(buchberger(gens, order))
        assert via_modpm.elements == direct.elements, f"trial {trial}"
        assert not stats["fallback"], f"trial {trial} fell back"


def test_gb_mod_pm_fallback_counts_retries():
    # m = 1 and m = 2 are too small for this ideal, so both budgets fall back
    F = polys(Qp(2), XYZ, "x^2+2*y*z+4*z^2", "x*y-y^2+2*z^2", "x*z+y*z+8*z^2")
    direct = reduce_basis(buchberger(F, zero_order(3)))
    for budget in (0, 1):
        stats = {}
        basis = gb_mod_pm(F, zero_order(3), m=1, retry_budget=budget, stats=stats)
        assert stats["fallback"]
        assert stats["retries"] == len(stats["m_values"]) - 1 == budget
        assert basis.elements == direct.elements


@pytest.mark.parametrize("other", [(QQ, XYZ, "x*y"), (Qp(2), "x,y", "x*y")])
def test_gb_mod_pm_rejects_mixed_generators(other):
    # bad input is reported before any modulus is tried, not after a fallback
    stats = {}
    F = [P(Qp(2), XYZ, "x+2y"), P(*other)]
    with pytest.raises(ValueError, match="generator field/variable mismatch"):
        gb_mod_pm(F, zero_order(3), stats=stats)
    assert stats == {}


def test_gb_mod_pm_rejects_order_mismatch():
    stats = {}
    F = polys(Qp(2), XYZ, "x*y+2z^2", "y*z-4x^2", "x*z+y^2")
    with pytest.raises(ValueError, match="order/variable mismatch"):
        gb_mod_pm(F, WeightedOrder((1, 2), GREVLEX), stats=stats)
    assert stats == {}


def test_gb_mod_pm_rejects_negative_retry_budget():
    # no modulus is tried, so there is no fallback to report
    stats = {}
    F = polys(Qp(2), "x,y", "x+2y", "y+2x")
    with pytest.raises(ValueError, match="retry budget"):
        gb_mod_pm(F, zero_order(2), m=8, retry_budget=-3, stats=stats)
    assert stats == {}


def test_gb_mod_pm_requires_padic():
    with pytest.raises(ValueError):
        gb_mod_pm(polys(QQ, "x,y", "x+y"), zero_order(2))


def test_gb_mod_pm_nonzero_weights():
    f2 = Qp(2)
    F = polys(f2, XYZ, "y+16z", "x+y")
    order = WeightedOrder((3, 2, 1), GREVLEX)
    got = gb_mod_pm(F, order)
    direct = reduce_basis(buchberger(F, order))
    assert got.elements == direct.elements


def test_gb_mod_pm_negative_weights():
    f2 = Qp(2)
    F = polys(f2, XYZ, "x+2y+4z", "y^2-2x*z")
    order = WeightedOrder((-1, 0, 2), GREVLEX)
    got = gb_mod_pm(F, order)
    direct = reduce_basis(buchberger(F, order))
    assert got.elements == direct.elements
