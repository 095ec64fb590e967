"""Tropical weights, initial forms, leading data, and the rank comparison."""

import random
from fractions import Fraction

import pytest

from valgb import (
    GF,
    GREVLEX,
    ModPmRing,
    Polynomial,
    Qp,
    QQ,
    Qt,
    TermOrder,
    WeightedOrder,
    compare,
    initial_form,
    leading_data,
    leading_term,
    trop_weight,
)
from valgb.weights import EQUAL_RANK, GREATER, LESS, weight_dot

from conftest import P, random_homogeneous, random_scalar, uniformizer, zero_order


@pytest.fixture
def qp3_poly():
    return P(Qp(3), "x,y", "3x^2+x*y+18y^2")


def test_trop_weight_golden(qp3_poly):
    assert trop_weight(qp3_poly, (0, 0)) == 0
    assert trop_weight(qp3_poly, (1, 4)) == 3
    assert trop_weight(qp3_poly, (2, 0)) == 2


def test_trop_weight_single_term():
    f = P(Qp(2), "x,y", "12x^3")
    assert trop_weight(f, (5, 1)) == 2 + 15


def test_trop_weight_zero_errors():
    with pytest.raises(ValueError):
        trop_weight(Polynomial.zero(QQ, 2), (0, 0))


def test_initial_form_golden(qp3_poly):
    names = ["x", "y"]
    g3 = GF(3)
    assert initial_form(qp3_poly, (0, 0)) == P(g3, "x,y", "x*y")
    assert initial_form(qp3_poly, (1, 4)) == P(g3, "x,y", "x^2")
    assert initial_form(qp3_poly, (2, 0)) == P(g3, "x,y", "x*y+2y^2")


def test_initial_form_lands_in_residue_field(qp3_poly):
    form = initial_form(qp3_poly, (0, 0))
    assert form.field == GF(3)


def test_leading_data_golden():
    f2 = Qp(2)
    order = WeightedOrder((3, 2, 1), TermOrder("lex", (2, 1, 0)))  # x < y < z
    g = P(f2, "x,y,z", "y+16z")
    data = leading_data(g, order)
    assert data.lm == (0, 1, 0)
    assert data.lc == Fraction(1)
    f = P(f2, "x,y,z", "x^2+y^2+z^2")
    data_f = leading_data(f, order)
    assert data_f.lm == (0, 0, 2)
    assert data_f.lc == Fraction(1)
    single = P(f2, "x,y,z", "5x")
    d = leading_data(single, order)
    assert d.lm == (1, 0, 0) and d.lc == Fraction(5)


def test_leading_data_weight_matches_trop():
    rng = random.Random("leadw")
    order = WeightedOrder((1, -1, 2))
    for _ in range(50):
        f = random_homogeneous(rng, Qp(2), 3, rng.randint(1, 3))
        data = leading_data(f, order)
        assert data.weight == trop_weight(f, order.weights)
        assert data.lc == f.terms[data.lm]
        assert not data.initial.is_zero()


def test_compare_paper_chain():
    # 2-adic, w = (1,2), lex x1 > x2: x1^2 < x2^2 < x1^5 < 2 x2^2
    f2 = Qp(2)
    order = WeightedOrder((1, 2), TermOrder("lex"))
    chain = [
        P(f2, "x1,x2", "x1^2"),
        P(f2, "x1,x2", "x2^2"),
        P(f2, "x1,x2", "x1^5"),
        P(f2, "x1,x2", "2x2^2"),
    ]
    for i in range(len(chain) - 1):
        assert compare(chain[i], chain[i + 1], order) == LESS
        assert compare(chain[i + 1], chain[i], order) == GREATER


def test_compare_zero_conventions():
    f2 = Qp(2)
    order = zero_order(2)
    f = P(f2, "x,y", "x+y")
    zero = Polynomial.zero(f2, 2)
    assert compare(f, zero, order) == LESS
    assert compare(zero, f, order) == GREATER
    assert compare(zero, zero, order) == EQUAL_RANK


def test_compare_equal_rank_on_shared_keys():
    f2 = Qp(2)
    order = zero_order(2)
    f = P(f2, "x,y", "x^2+y^2")
    g = P(f2, "x,y", "x^2+3y^2")
    assert compare(f, g, order) == EQUAL_RANK


def test_compare_transitive_and_unit_invariant():
    rng = random.Random("cmp")
    f5 = Qp(5)
    order = WeightedOrder((2, -1, 0), GREVLEX)
    batch = [random_homogeneous(rng, f5, 3, 2) for _ in range(30)]
    for _ in range(200):
        f, g, h = (rng.choice(batch) for _ in range(3))
        cfg, cgh = compare(f, g, order), compare(g, h, order)
        if cfg != GREATER and cgh != GREATER:
            assert compare(f, h, order) != GREATER
        # scaling by a valuation-zero unit preserves the comparison
        unit = Fraction(rng.choice([1, 3, 7, -1, -3]))
        assert compare(f.scale(unit), g, order) == compare(f, g, order)


def test_sum_stays_above_common_bound():
    rng = random.Random("fg-bound")
    f3 = Qp(3)
    order = WeightedOrder((1, 0, -1), GREVLEX)
    for _ in range(300):
        d = rng.randint(1, 3)
        f = random_homogeneous(rng, f3, 3, d)
        g = random_homogeneous(rng, f3, 3, d)
        h = random_homogeneous(rng, f3, 3, d)
        if compare(f, h, order) != LESS and compare(g, h, order) != LESS:
            s = f + g
            if not s.is_zero():
                assert compare(s, h, order) != LESS
            dmn = f - g
            if not dmn.is_zero():
                assert compare(dmn, h, order) != LESS


def test_initial_form_multiplicative():
    rng = random.Random("inw-mult")
    for field in (Qp(2), Qp(3), Qt()):
        for _ in range(60):
            f = random_homogeneous(rng, field, 3, rng.randint(1, 2))
            g = random_homogeneous(rng, field, 3, rng.randint(1, 2))
            w = tuple(rng.randint(-2, 2) for _ in range(3))
            fg = f * g
            if fg.is_zero():
                continue
            assert initial_form(fg, w) == initial_form(f, w) * initial_form(g, w)
            assert trop_weight(fg, w) == trop_weight(f, w) + trop_weight(g, w)


def test_modpm_leading_data():
    # the same machinery runs over Z/p^m with the truncated valuation
    ring = ModPmRing(2, 6)
    f = Polynomial(ring, 2, {(2, 0): 12, (1, 1): 3, (0, 2): 8})
    order = zero_order(2)
    w, lm, lc = leading_term(f, order)
    assert w == 0 and lm == (1, 1) and lc == 3
    form = initial_form(f, (0, 0))
    assert form == Polynomial(GF(2), 2, {(1, 1): 1})
    assert trop_weight(f, (1, 0)) == 1  # 12 x^2: 2+2; 3xy: 0+1; 8y^2: 3+0


@pytest.mark.parametrize(
    "field", [Qp(2), Qp(3), QQ, Qt(), ModPmRing(3, 7)], ids=lambda field: field.label
)
def test_leading_term_is_the_brute_force_maximum(field):
    # the least val(c) + w.m, ties to the largest tiebreak key; each order is
    # asked twice, so the second scan reads a warm rank table
    rng = random.Random(f"rank-table-{field.label}")
    t = uniformizer(field)
    for trial in range(40):
        priority = tuple(rng.sample(range(3), 3)) if rng.random() < 0.5 else None
        tiebreak = TermOrder(rng.choice(["lex", "grevlex"]), priority)
        order = WeightedOrder(tuple(rng.randint(-3, 3) for _ in range(3)), tiebreak)
        for _ in range(2):
            terms = {}
            for _ in range(rng.randint(1, 6)):
                c = random_scalar(rng, field)
                for _ in range(rng.randint(0, 2)):
                    c = field.mul(c, t)
                terms[tuple(rng.randint(0, 3) for _ in range(3))] = c
            f = Polynomial(field, 3, terms)
            if f.is_zero():
                continue
            lm = max(f.terms, key=lambda m: (
                -(field.val(f.terms[m]) + weight_dot(order.weights, m)),
                tiebreak.sort_key(m),
            ))
            w = field.val(f.terms[lm]) + weight_dot(order.weights, lm)
            assert leading_term(f, order) == (w, lm, f.terms[lm]), f"trial {trial}"


def test_rank_table_leaves_equality_and_hash_alone():
    tiebreak = TermOrder("lex", (2, 0, 1))
    warm = WeightedOrder((1, -2, 0), tiebreak)
    cold = WeightedOrder((1, -2, 0), tiebreak)
    leading_term(P(Qp(2), "x,y,z", "x^2+y*z+4z^2"), warm)
    assert len(warm._ranks) == 3 and len(cold._ranks) == 0
    assert warm == cold and hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    assert {cold: "order"}[warm] == "order"


def test_rank_table_reads_the_shared_keys():
    rng = random.Random(11)
    for weights in [(0, 0, 0), (0, -2, 0), (3, 0, -1), (1, 2, 3)]:
        for tiebreak in (TermOrder("lex", (1, 2, 0)), TermOrder("grevlex")):
            ranks = WeightedOrder(weights, tiebreak)._ranks
            for _ in range(30):
                m = tuple(rng.randint(0, 4) for _ in range(3))
                assert ranks[m] == (weight_dot(weights, m), tiebreak.sort_key(m))
                assert ranks[m][1] is tiebreak._keys[m]


def test_equal_orders_hash_equal_and_share_memo_entries():
    # the hash is computed once per order; equal orders built apart hash and
    # compare equal, so a leading-term memo made under one serves the other
    f = P(Qp(3), "x,y", "x^2 + 3*x*y + 9*y^2")
    a = WeightedOrder((1, -1), TermOrder("grevlex", (1, 0)))
    b = WeightedOrder([1, -1], TermOrder("grevlex", [1, 0]))
    assert a == b and hash(a) == hash(b)
    memo = leading_term(f, a)
    assert f._cache[b] is memo and leading_term(f, b) is memo
    # other tiebreaks are other orders, with their own memo entries
    c = WeightedOrder((1, -1), TermOrder("lex", (1, 0)))
    d = WeightedOrder((1, -1), TermOrder("grevlex", (0, 1)))
    for other in (c, d):
        assert other != a and hash(other) != hash(a)
        assert other not in f._cache
        leading_term(f, other)
        assert f._cache[other] is not memo
    assert len({a, b, c, d}) == 3
