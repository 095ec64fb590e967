"""Hilbert dimensions, reconstruction from initial monomials, mod-p^m runs."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from valgb import (
    GF,
    GREVLEX,
    ModPmRing,
    Polynomial,
    Qp,
    QQ,
    Qt,
    RatFunc,
    WeightedOrder,
    buchberger,
    hilbert_dim,
    leading_term,
    lift_groebner,
    reduce_basis,
)
from valgb.groebner import _modpm_normalize
from valgb.lifting import (
    LiftInconsistent,
    clear_denominators,
    gb_mod_pm,
)
from valgb.linalg import bareiss_rank, rref

from conftest import P, polys, random_ideal, random_weights, zero_order
from oracles import gauss_jordan, macaulay_dim

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
        _, pivots = rref(m)
        assert pivots == gauss_jordan(m)[1]
        assert bareiss_rank(m) == len(pivots)


def _random_fraction_matrix(rng, nrows, ncols, entry=None, zero=Fraction(0)):
    """A product of random factors of inner size below the shape, with zero
    rows and zero columns inserted at random places.  The factors' entries
    are small Fractions unless ``entry`` draws them (with ``zero`` as 0)."""
    inner = rng.randint(0, min(nrows, ncols))

    if entry is None:
        def entry():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 8))

    left = [[entry() for _ in range(inner)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(inner)]
    m = [
        [sum((a * right[k][j] for k, a in enumerate(row)), zero)
         for j in range(ncols)]
        for row in left
    ]
    for _ in range(rng.randint(0, 2)):
        j = rng.randint(0, ncols)
        for row in m:
            row.insert(j, zero)
        ncols += 1
    for _ in range(rng.randint(0, 2)):
        m.insert(rng.randint(0, len(m)), [zero] * ncols)
    return m


def _dense_rref_row(row, pivot, ncols):
    """A sparse rref row divided by its pivot entry, as a dense Fraction row."""
    return [Fraction(row.get(c, 0), row[pivot]) for c in range(ncols)]


def test_rref_and_rank_against_gauss_jordan_oracle():
    rng = random.Random("rref-oracle")
    for trial in range(300):
        m = _random_fraction_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        expected = gauss_jordan(m)
        ints = [[int(c * lcm(*(x.denominator for x in row))) for c in row]
                for row in m]
        rows, pivots = rref(ints)
        assert ([_dense_rref_row(r, p, len(m[0])) for r, p in zip(rows, pivots)],
                pivots) == expected, f"trial {trial}"
        assert bareiss_rank(ints) == len(expected[1]), f"trial {trial}"
    # over GF(p) and Q(t) the rows hold field scalars and every pivot is one
    for p in (2, 3, 5):
        for trial in range(60):
            m = _random_fraction_matrix(rng, rng.randint(1, 7), rng.randint(1, 7),
                                        lambda: rng.randint(0, p - 1), 0)
            m = [[c % p for c in row] for row in m]
            rows, pivots = rref(m, GF(p))
            assert ([[r.get(c, 0) for c in range(len(m[0]))] for r in rows],
                    pivots) == gauss_jordan(m, p), f"GF({p}) trial {trial}"
    zero = RatFunc(0)
    for trial in range(60):
        m = _random_fraction_matrix(
            rng, rng.randint(1, 5), rng.randint(1, 5),
            lambda: RatFunc([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))],
                            [rng.randint(1, 3)] + [rng.randint(-2, 2)
                                                   for _ in range(rng.randint(0, 1))]),
            zero,
        )
        rows, pivots = rref(m, Qt())
        assert ([[r.get(c, zero) for c in range(len(m[0]))] for r in rows],
                pivots) == gauss_jordan(m), f"Q(t) trial {trial}"


def test_gauss_jordan_oracle_over_qt():
    t, one, zero = RatFunc.t_power(1), RatFunc(1), RatFunc(0)
    reduced, pivots = gauss_jordan([[t, one, zero], [one, t, t], [t, t, one]])
    assert pivots == [0, 1, 2]
    assert reduced == [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    reduced, pivots = gauss_jordan([[t, one], [t * t, t]])
    assert pivots == [0] and reduced == [[one, one / t]]


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
    # over Q(t) the lift rebuilds the reduced basis from rows of field scalars
    F = polys(Qt(), "x,y,z", "x+t*y+z", "t*x*z+y^2-(1+t)/(2-t)*z^2")
    order = WeightedOrder((1, 0, 2), GREVLEX)
    basis = reduce_basis(buchberger(F, order))
    lifted = lift_groebner(F, order, basis.leading_monomials())
    assert lifted.elements == basis.elements
    with pytest.raises(ValueError, match="not a field"):
        lift_groebner(polys(ModPmRing(2, 3), "x,y", "x+2y"), zero_order(2), [(1, 0)])


def test_rref_prefers_low_valuation_pivots():
    # the first column's 2-adic valuations are 1 and 0
    rows = [[2, 1], [1, 3]]
    reduced, pivots = rref(rows)
    assert pivots == [0, 1]
    # primitive rows with positive pivots: the identity block is exact
    assert reduced == [{0: 1}, {1: 1}]


def _macaulay_shaped(rng):
    """Sparse integer rows as Macaulay matrices have them: 1-4 nonzeros per
    row, with duplicate and scaled rows, negative leading entries and zero
    rows mixed in."""
    ncols = rng.randint(5, 60)
    m = []
    for _ in range(rng.randint(5, 40)):
        kind = rng.random()
        if m and kind < 0.15:
            m.append(list(rng.choice(m)))
        elif m and kind < 0.3:
            k = rng.choice([-3, -2, 2, 5])
            m.append([k * c for c in rng.choice(m)])
        elif kind < 0.35:
            m.append([0] * ncols)
        else:
            row = [0] * ncols
            for c in rng.sample(range(ncols), rng.randint(1, min(4, ncols))):
                row[c] = rng.choice([-1, 1]) * rng.randint(1, 12)
            m.append(row)
    return m


def test_sparse_rref_on_macaulay_shaped_rows():
    rng = random.Random("sparse-rref")
    for trial in range(200):
        m = _macaulay_shaped(rng)
        ncols = len(m[0])
        rows, pivots = rref(m)
        expected = gauss_jordan(m)
        assert ([_dense_rref_row(r, p, ncols) for r, p in zip(rows, pivots)],
                pivots) == expected, f"trial {trial}"
        for row, p in zip(rows, pivots):
            assert gcd(*row.values()) == 1 and row[p] > 0, f"trial {trial}"
            assert all(c not in row for c in pivots if c != p), f"trial {trial}"
            assert all(row.values()), f"trial {trial}"


def test_rref_empty_and_zero_rows():
    assert rref([]) == ([], [])
    assert rref([[0, 0]]) == ([], [])
    assert bareiss_rank([]) == 0


def test_clear_denominators():
    f = P(QQ, "x,y", "1/2x+3/4y")
    g = clear_denominators(f)
    assert g == P(QQ, "x,y", "2x+3y")
    h = P(QQ, "x,y", "4x+6y")
    assert clear_denominators(h) == P(QQ, "x,y", "2x+3y")


def _dim(F, d):
    """hilbert_dim, checked against the Macaulay-rank oracle."""
    got = hilbert_dim(F, d)
    assert got == macaulay_dim(F, d), f"degree {d}"
    return got


def test_hilbert_dim_examples():
    f2 = Qp(2)
    F = polys(f2, XYZ, "x^2", "x*y")
    assert _dim(F, 2) == 2
    F2 = polys(f2, XYZ, "x+z")
    assert _dim(F2, 1) == 1
    assert _dim(F2, 3) == 6  # (x+z) * S_2, injective multiplication
    assert _dim([], 2) == 0
    assert _dim(F, 1) == 0


def test_hilbert_dim_cardinality_pair():
    from valgb import sample_pair

    rng = random.Random("hd")
    f, g = sample_pair(1, rng)
    assert _dim([f, g], 2) == 2


def test_hilbert_dim_qt():
    qt = Qt()
    F = polys(qt, XYZ, "x+t*z", "(1+t)*y")
    assert _dim(F, 1) == 2
    G = polys(qt, XYZ, "x^2-t*y*z", "x*y+(1/t)*z^2", "t^2*y^2-x*z")
    assert [_dim(G, d) for d in range(6)] == [0, 0, 3, 9, 15, 21]


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
    # the last inputs have non-integer rational coefficients: only the
    # lift's clearing of each generator makes their rows integer
    scales = (Fraction(3, 4), Fraction(5, 6))
    for field, scaled in [(f3, False)] * 10 + [(f3, True), (QQ, True)] * 5:
        gens = random_ideal(rng, field, 3, max_degree=2, max_gens=2)
        if scaled:
            gens = [f.map_coefficients(lambda c: c * rng.choice(scales)) for f in gens]
            assert any(c.denominator > 1 for f in gens for c in f.terms.values())
        order = WeightedOrder(random_weights(rng, field, 3), GREVLEX)
        red = reduce_basis(buchberger(gens, order))
        lifted = lift_groebner(gens, order, red.leading_monomials())
        assert lifted.elements == red.elements


def test_modpm_normalize_half_modulus_rule():
    # mod 2^8, content at m/2 = 4 or above is truncation noise and reads as
    # zero; content below it is stripped and the result made monic
    ring = ModPmRing(2, 8)
    order = zero_order(2)
    noise = Polynomial(ring, 2, {(1, 0): 2**4, (0, 1): 3 * 2**4})
    assert _modpm_normalize(noise, order).is_zero()
    f = Polynomial(ring, 2, {(1, 0): 3 * 2**3, (0, 1): 5 * 2**3})
    g = _modpm_normalize(f, order)
    assert g == Polynomial(ring, 2, {(1, 0): 1, (0, 1): 5 * pow(3, -1, 2**8)})
    assert leading_term(g, order)[1:] == ((1, 0), 1)


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
    # the S-polynomial 4y has content 2^2 = m/2 at m = 4, so the m/2 rule
    # declares it zero, the lift fails, and m = 8 recovers
    F = polys(f2, "x,y", "x", "x+4y")
    order = WeightedOrder((0, 0), GREVLEX)
    stats = {}
    basis = gb_mod_pm(F, order, m=4, stats=stats)
    assert stats["m_values"] == [4, 8]
    assert not stats["fallback"]
    assert basis.elements == reduce_basis(buchberger(F, order)).elements


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


def test_gb_mod_pm_exponents_on_the_modpm_d_inputs():
    # the exponents tried on the 100 modpm-d inputs and the nine-variable
    # ideal are pinned: the direct loop's interreduction over Qp must leave
    # the modular run, the lift and its verification alone
    from conftest import nine_variable_problem

    rng = random.Random("modpm-d")
    inputs = []
    for trial in range(100):
        field = Qp([2, 3, 5][trial % 3])
        gens = random_ideal(rng, field, 3, max_degree=3, max_gens=3, height=50)
        inputs.append((gens, WeightedOrder(random_weights(rng, field, 3), GREVLEX)))
    gens, _, order = nine_variable_problem()
    inputs.append((gens, order))
    expected = [[16]] * 101
    for k, m_values in {3: [20], 15: [18], 21: [16, 32], 55: [18], 60: [16, 32],
                        90: [22]}.items():
        expected[k] = m_values
    got = []
    for gens, order in inputs:
        stats = {}
        gb_mod_pm(gens, order, stats=stats)
        got.append(stats["m_values"])
    assert got == expected


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


def test_gb_mod_pm_verification_faults_propagate(monkeypatch):
    # the certificate does no valued arithmetic: a fault in it is not a
    # too-small modulus, so it must not become retries and a fallback
    import valgb.lifting as lifting

    # two quadrics in three variables: degree 3 holds a non-coprime pair's
    # lcm and is no lift degree, so the certificate reads c_3 there
    F = polys(Qp(2), XYZ, "x^2+2y*z", "x*y+4z^2")

    def broken(*args, **kwargs):
        raise AssertionError("broken invariant")

    monkeypatch.setattr(lifting, "generic_dims", broken)
    stats = {}
    with pytest.raises(AssertionError, match="broken invariant"):
        gb_mod_pm(F, zero_order(3), m=8, stats=stats)
    assert stats == {}
    monkeypatch.undo()

    # a mismatch counts as a failed attempt, retries and then falls back
    def mismatch(*args, **kwargs):
        return "count mismatch"

    monkeypatch.setattr(lifting, "_certificate_failure", mismatch)
    basis = gb_mod_pm(F, zero_order(3), m=8, retry_budget=1, stats=stats)
    assert stats["fallback"] and stats["m_values"] == [8, 16]
    assert stats["failures"] == [
        {"m": 8, "stage": "certificate", "message": "count mismatch"},
        {"m": 16, "stage": "certificate", "message": "count mismatch"},
    ]
    assert basis.elements == reduce_basis(buchberger(F, zero_order(3))).elements


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
    # non-integer rational generators
    F = polys(f2, XYZ, "3/4y+16/5z", "5/6x+y", "x*z-1/3y^2")
    stats = {}
    got = gb_mod_pm(F, order, stats=stats)
    assert not stats["fallback"]
    assert got.elements == reduce_basis(buchberger(F, order)).elements


def test_gb_mod_pm_negative_weights():
    f2 = Qp(2)
    F = polys(f2, XYZ, "x+2y+4z", "y^2-2x*z")
    order = WeightedOrder((-1, 0, 2), GREVLEX)
    got = gb_mod_pm(F, order)
    direct = reduce_basis(buchberger(F, order))
    assert got.elements == direct.elements
