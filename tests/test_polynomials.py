"""Polynomial arithmetic, homogeneity, term orders, monomial enumeration."""

import itertools
import random

import pytest

from valgb import (
    GF,
    GREVLEX,
    LEX,
    ModPmRing,
    Polynomial,
    Qp,
    QQ,
    Qt,
    TermOrder,
    monomials_of_degree,
    poly_to_str,
)
from valgb.parsing import parse_polynomial

from conftest import P, random_homogeneous, random_scalar
from oracles import _monomials


def test_add_cancellation():
    f = P(QQ, "x,z", "x+z")
    g = P(QQ, "x,z", "-x")
    assert f + g == P(QQ, "x,z", "z")


def test_mono_mul_example():
    f = P(QQ, "x,z", "x+z")
    assert f.mono_mul((1, 0)) == P(QQ, "x,z", "x^2+x*z")


def test_scale_by_zero_annihilates():
    f = P(Qp(2), "x,y", "3x^2+x*y")
    assert f.scale(0).is_zero()
    # raw python scalars are coerced for every field
    g = P(Qt(), "x,y", "t*x+y")
    assert g.scale(0).is_zero()
    assert g.scale(2) == g + g
    assert g.mono_mul((1, 0), 3) == g.mono_mul((1, 0)).scale(3)


def test_field_mismatch_rejected():
    f = P(QQ, "x,y", "x+y")
    g = P(Qp(2), "x,y", "x+y")
    with pytest.raises(ValueError):
        f + g
    h = P(QQ, "x,y,z", "x+y")
    with pytest.raises(ValueError):
        f * h


def test_homogeneity():
    f = P(QQ, "x,y,z", "x^2+y^2+z^2")
    assert f.is_homogeneous()
    assert f.homogeneous_degree() == 2
    g = P(Qp(2), "x,y", "x+2x^2")
    assert not g.is_homogeneous()
    zero = Polynomial.zero(QQ, 3)
    assert zero.is_homogeneous()
    assert zero.homogeneous_degree() is None


def test_lex_comparison():
    # x > y priority: x^2 beats x*y
    assert LEX.compare((2, 0), (1, 1)) == 1
    assert LEX.compare((1, 1), (2, 0)) == -1
    assert LEX.compare((1, 1), (1, 1)) == 0


def test_grevlex_degree_first():
    assert GREVLEX.compare((1, 0), (0, 2)) == -1  # x < y^2
    assert GREVLEX.compare((0, 2), (1, 0)) == 1


def test_grevlex_tie_break():
    # same degree: the one with smaller exponent on the last variable wins
    assert GREVLEX.compare((1, 0, 1), (0, 1, 1)) == 1
    assert GREVLEX.compare((1, 1, 0), (2, 0, 0)) == -1


def test_order_properties_random():
    rng = random.Random("orders")
    orders = [
        LEX,
        GREVLEX,
        TermOrder("lex", (2, 0, 1)),
        TermOrder("grevlex", (1, 2, 0)),
    ]
    monos = monomials_of_degree(3, 3) + monomials_of_degree(3, 2)
    one = (0, 0, 0)
    for order in orders:
        for _ in range(300):
            a, b, c = (rng.choice(monos) for _ in range(3))
            ca, cb = order.compare(a, b), order.compare(b, a)
            assert ca == -cb
            if order.compare(a, b) >= 0 and order.compare(b, c) >= 0:
                assert order.compare(a, c) >= 0  # transitivity
            shift = rng.choice(monos)
            assert order.compare(
                tuple(x + s for x, s in zip(a, shift)),
                tuple(x + s for x, s in zip(b, shift)),
            ) == order.compare(a, b)  # multiplicative
            assert order.compare(a, a) == 0
            if a != one:
                assert order.compare(a, one) == 1  # 1 is minimal


def test_priority_validation():
    with pytest.raises(ValueError):
        TermOrder("lex", (0, 0, 1))
    with pytest.raises(ValueError):
        TermOrder("weird")


def test_monomials_of_degree():
    assert monomials_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomials_of_degree(3, 0) == [(0, 0, 0)]
    assert len(monomials_of_degree(3, 2)) == 6
    assert len(monomials_of_degree(4, 5)) == 56  # C(8, 5)
    for nvars, d in [(1, -2), (2, -1), (3, -4)]:
        assert monomials_of_degree(nvars, d) == []
    # the oracles' enumerator is empty below degree 0 too
    assert list(_monomials(1, -1)) == []
    assert list(_monomials(3, -1)) == []


def _schoolbook_product(field, a: dict, b: dict) -> dict:
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = field.add(out.get(m, field.zero()), field.mul(c1, c2))
    return {m: c for m, c in out.items() if not field.is_zero(c)}


def _schoolbook_difference(field, a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = field.sub(out.get(m, field.zero()), c)
    return {m: c for m, c in out.items() if not field.is_zero(c)}


def test_ring_axioms_random():
    # Z/2^8 draws coefficients up to 64, so nonzero products can vanish
    for field, height in ((Qp(3), 9), (QQ, 9), (Qt(), 9), (GF(5), 9),
                          (ModPmRing(2, 8), 64)):
        rng = random.Random(f"ring-{field.label}")
        for _ in range(40):
            d = rng.randint(1, 3)
            f = random_homogeneous(rng, field, 3, d, height=height)
            g = random_homogeneous(rng, field, 3, d, height=height)
            h = random_homogeneous(rng, field, 3, rng.randint(1, 2), height=height)
            assert f + g == g + f
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert (f - f).is_zero()
            # against loops that share no code with Polynomial's arithmetic
            assert (f * h).terms == _schoolbook_product(field, f.terms, h.terms)
            assert (f - g).terms == _schoolbook_difference(field, f.terms, g.terms)
            c = random_scalar(rng, field, height)
            v = tuple(rng.randint(0, 2) for _ in range(3))
            assert f.scale(c).terms == _schoolbook_product(field, f.terms, {(0, 0, 0): c})
            assert f.mono_mul(v, c).terms == _schoolbook_product(field, f.terms, {v: c})
            assert f.mono_mul(v).terms == _schoolbook_product(field, f.terms, {v: field.one()})


def test_nonzero_terms_multiply_to_zero_over_z_mod_2_8():
    ring = ModPmRing(2, 8)
    x16, y16 = P(ring, "x,y", "16x"), P(ring, "x,y", "16y")
    assert (x16 * y16).is_zero()
    assert x16.scale(16).is_zero()
    assert parse_polynomial("16x*16y", ring, ["x", "y"]).is_zero()
    # in a sum only the vanishing product drops out
    assert P(ring, "x,y", "16x+y") * y16 == P(ring, "x,y", "16y^2")
    assert P(ring, "x,y", "(16x+y)*16y") == P(ring, "x,y", "16y^2")


def test_degree_multiplicative():
    rng = random.Random("degmul")
    for _ in range(50):
        f = random_homogeneous(rng, Qp(2), 3, rng.randint(1, 3))
        g = random_homogeneous(rng, Qp(2), 3, rng.randint(1, 3))
        fg = f * g
        if not fg.is_zero():
            assert fg.degree() == f.degree() + g.degree()


def test_str_round_trip():
    for field, names in ((Qp(2), "x,y,z"), (QQ, "x,y,z"), (Qt(), "x,y,z")):
        rng = random.Random(f"round-{field.label}")
        for _ in range(60):
            f = random_homogeneous(rng, field, 3, rng.randint(0, 3))
            text = poly_to_str(f, names.split(","))
            back = parse_polynomial(text, field, names.split(","))
            assert back == f, f"round trip failed for {text}"


def test_zero_prints_as_zero():
    assert poly_to_str(Polynomial.zero(QQ, 2)) == "0"
    assert parse_polynomial("0", QQ, ["x", "y"]).is_zero()


def test_string_forms():
    f = P(Qp(3), "x,y", "3x^2+x*y+18y^2")
    assert poly_to_str(f, ["x", "y"]) == "3*x^2+x*y+18*y^2"
    g = P(Qp(2), "x,y,z", "x^2+257z^2")
    assert poly_to_str(g, ["x", "y", "z"]) == "x^2+257*z^2"
    h = P(Qt(), "x,y,z", "y*z+t^5*z^2")
    assert poly_to_str(h, ["x", "y", "z"]) == "y*z+t^5*z^2"
    k = P(Qt(), "x,z", "(1+t^5)*x*z")
    assert poly_to_str(k, ["x", "z"]) == "(1+t^5)*x*z"
    m = P(QQ, "x,y", "x^2-16/3x*y")
    assert poly_to_str(m, ["x", "y"]) == "x^2-16/3*x*y"


def test_qt_denominator_round_trip():
    # scalars with true rational-function denominators survive print/parse
    names = ["x", "y"]
    samples = [
        "(3+t)/(1+t)*x+y",
        "x/(t^2)",
        "-(3-t)/(1+t^2)*x*y",
        "(1)/(2+t)*x^2+(5+t^3)*y^2",
    ]
    for text in samples:
        f = P(Qt(), "x,y", text)
        printed = poly_to_str(f, names)
        assert parse_polynomial(printed, Qt(), names) == f, printed
    # division inside algorithms produces denominators; round-trip one
    g = P(Qt(), "x,y", "(1+t)*x+t*y").scale(Qt().inv(Qt().coerce(3) + Qt().phi(1)))
    printed = poly_to_str(g, names)
    assert parse_polynomial(printed, Qt(), names) == g


def _closed_form(kind, priority, m):
    pm = m if priority is None else tuple(m[i] for i in priority)
    if kind == "lex":
        return pm
    return (sum(pm), tuple(-e for e in reversed(pm)))


def test_equal_orders_share_one_key_table():
    assert TermOrder("grevlex", (2, 0, 1))._keys is TermOrder("grevlex", (2, 0, 1))._keys
    assert TermOrder("lex")._keys is LEX._keys
    tables = {id(TermOrder(kind, pr)._keys)
              for kind in ("lex", "grevlex") for pr in (None, (0, 1, 2), (1, 0, 2))}
    assert len(tables) == 6


def test_shared_keys_stay_per_term_order():
    m = (1, 0, 2)
    assert TermOrder("lex", (2, 0, 1)).sort_key(m) != TermOrder("grevlex", (2, 0, 1)).sort_key(m)
    assert TermOrder("grevlex", (0, 1, 2)).sort_key(m) != TermOrder("grevlex", (2, 1, 0)).sort_key(m)
    priorities = [None, *itertools.permutations(range(3))]
    orders = [TermOrder(kind, pr) for pr in priorities for kind in ("lex", "grevlex")]
    monos = [m for d in range(5) for m in _monomials(3, d)]
    rng = random.Random(3)
    lookups = [(order, m) for order in orders for m in monos]
    rng.shuffle(lookups)  # interleave the tables' fills
    for order, m in lookups:
        assert order.sort_key(m) == _closed_form(order.kind, order.priority, m)
    for order in orders:
        for m in monos:
            assert order.sort_key(m) == _closed_form(order.kind, order.priority, m)


def test_full_key_table_starts_afresh(monkeypatch):
    from valgb import polynomials

    monkeypatch.setattr(polynomials, "_SORT_KEYS_MAX", 8)
    order = TermOrder("grevlex", (2, 1, 0))
    order._keys.clear()  # other tests may have filled the shared table
    monos = [m for d in range(4) for m in _monomials(3, d)]
    for m in monos + monos:
        assert order.sort_key(m) == _closed_form("grevlex", (2, 1, 0), m)
        assert len(order._keys) <= 8


def test_random_homogeneous_is_nonzero_mod_p():
    # over GF(3) all drawn coefficients may vanish; the builder then returns
    # its first chosen monomial and draws exactly what it draws over Q
    rng = random.Random("nonzero-mod-p")
    replaced = 0
    for _ in range(300):
        state = rng.getstate()
        f = random_homogeneous(rng, GF(3), 2, 2, max_terms=2)
        after = rng.getstate()
        rng.setstate(state)
        over_q = random_homogeneous(rng, QQ, 2, 2, max_terms=2)
        assert rng.getstate() == after
        assert f
        if over_q.map_coefficients(GF(3).coerce, GF(3)):
            assert f == over_q.map_coefficients(GF(3).coerce, GF(3))
        else:
            replaced += 1
            assert len(f.terms) == 1 and set(f.terms.values()) == {1}
            assert set(f.terms) <= set(over_q.terms)
    assert replaced > 0
