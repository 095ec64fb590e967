"""Scalar arithmetic, valuations, sections, and residues for every field."""

import random
from fractions import Fraction

import pytest

from valgb import GF, INF, ModPmRing, QQ, Qp, Qt, RatFunc, fields
from valgb.fields import padic_valuation

from conftest import random_scalar
from oracles import (
    _eager_bits, _tp_mul, series_valuation, tp_add, tp_canonical, tp_div, tp_mul, tp_sub,
)

ALL_FIELDS = [Qp(2), Qp(3), Qp(5), QQ, Qt(), GF(2), GF(7), ModPmRing(3, 1)]

# label -> (integral, trivially_valued, modulus, is_field)
FACTS = {
    "Qp(2)": (True, False, None, True),
    "Qp(3)": (True, False, None, True),
    "Qp(5)": (True, False, None, True),
    "Q": (True, True, None, True),
    "Qt": (False, False, None, True),
    "GF(2)": (False, True, 2, True),
    "GF(7)": (False, True, 7, True),
    "Z/3^1": (False, True, 3, True),
    "Z/3^4": (False, False, 81, False),
}


@pytest.mark.parametrize("field", ALL_FIELDS + [ModPmRing(3, 4)], ids=lambda f: f.label)
def test_field_facts(field):
    facts = (field.integral, field.trivially_valued, field.modulus, field.is_field)
    assert facts == FACTS[field.label]


@pytest.mark.parametrize("field", ALL_FIELDS + [ModPmRing(3, 4)], ids=lambda f: f.label)
def test_bits_match_the_eager_oracle(field):
    rng = random.Random(f"bits-{field.label}")
    for _ in range(200):
        a = random_scalar(rng, field, height=2**40, allow_zero=True)
        b = random_scalar(rng, field, height=2**40)
        c = field.div(a, b) if field.is_field and not field.is_zero(b) else field.mul(a, b)
        assert field.bits(c) == _eager_bits(c)


def test_infinity_absorbs():
    assert INF + 5 is INF
    assert 5 + INF is INF
    assert INF + INF is INF
    assert min(INF, 3) == 3
    assert min(3, INF) == 3
    assert INF == INF
    assert not INF == 7
    assert 7 < INF
    assert INF > 7
    assert not INF < INF


def test_padic_valuation_examples():
    assert Qp(3).val(Fraction(18)) == 2
    assert Qp(3).val(Fraction(0)) is INF
    assert QQ.val(Fraction(0)) is INF
    assert Qt().val(Qt().zero()) is INF
    assert Qp(2).val(Fraction(3, 4)) == -2
    assert Qp(5).val(Fraction(50, 3)) == 2


def test_qt_valuation_series_oracle():
    # t^5 / (1 + t): hand Taylor expansion starts at t^5
    a = RatFunc((0, 0, 0, 0, 0, 1), (1, 1))
    assert Qt().val(a) == 5
    assert series_valuation((0, 0, 0, 0, 0, 1), (1, 1)) == 5
    # richer case: (t^2 + t^3) / (2 + t) has valuation 2
    b = RatFunc((0, 0, 1, 1), (2, 1))
    assert Qt().val(b) == series_valuation((0, 0, 1, 1), (2, 1)) == 2
    # negative valuation
    c = RatFunc((1,), (0, 0, 1))
    assert Qt().val(c) == series_valuation((1,), (0, 0, 1)) == -2


def test_phi_examples():
    assert Qp(2).phi(3) == Fraction(8)
    assert Qt().phi(2) == RatFunc((0, 0, 1))
    assert QQ.phi(0) == Fraction(1)
    with pytest.raises(ValueError):
        QQ.phi(1)
    assert Qp(2).phi(-2) == Fraction(1, 4)
    with pytest.raises(ValueError):
        GF(7).phi(1)


def test_prime_field_is_modpm_with_exponent_one():
    for p in (2, 3, 7):
        assert GF(p) == ModPmRing(p, 1)
        assert hash(GF(p)) == hash(ModPmRing(p, 1))
        assert GF(p).residue_field() is GF(p)
        assert ModPmRing(p, 4).residue_field() is GF(p)


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_phi_section_property(field):
    values = [0] if field in (QQ, GF(2), GF(7), ModPmRing(3, 1)) else range(-3, 4)
    for w in values:
        assert field.val(field.phi(w)) == w


def test_residue_examples():
    assert Qp(3).residue(Fraction(18, 9)) == 2
    assert Qp(2).residue(Fraction(1)) == 1
    three_plus_t = RatFunc((3, 1))
    assert Qt().residue(three_plus_t) == Fraction(3)
    with pytest.raises(ValueError):
        Qp(2).residue(Fraction(1, 2))
    with pytest.raises(ValueError):
        Qt().residue(RatFunc((1,), (0, 1)))


def test_residue_of_phi_positive_weight_vanishes():
    for field in (Qp(2), Qp(5), Qt()):
        for w in (1, 2, 3):
            assert field.residue_field().is_zero(field.residue(field.phi(w)))


def test_modpm_val_examples():
    r = ModPmRing(2, 4)
    assert r.val(12) == 2
    assert r.val(0) is INF
    assert ModPmRing(3, 3).val(18) == 2
    assert r.val(16) is INF  # 16 = 0 mod 2^4


def test_modpm_val_range():
    r = ModPmRing(3, 3)
    for a in range(1, 27):
        assert 0 <= r.val(a) <= 2


def test_modpm_invertible_iff_val_zero():
    r = ModPmRing(2, 5)
    for a in range(1, 32):
        if r.val(a) == 0:
            inv = r.inv(a)
            assert r.mul(a, inv) == 1
        else:
            with pytest.raises(ValueError):
                pow(a, -1, 32)


def test_modpm_division_semantics():
    r = ModPmRing(2, 6)
    # exact division through a shared power of two
    assert r.mul(r.div(12, 4), 4) == 12
    with pytest.raises(ValueError):
        r.div(2, 4)  # val 1 < val 2
    with pytest.raises(ZeroDivisionError):
        r.div(3, 0)


def test_modpm_phi_bounds():
    r = ModPmRing(2, 4)
    assert r.phi(3) == 8
    with pytest.raises(ValueError):
        r.phi(4)
    with pytest.raises(ValueError):
        r.phi(-1)


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_field_axioms_random(field):
    rng = random.Random(f"axioms-{field.label}")
    one = field.one()
    zero = field.zero()
    for _ in range(200):
        a = random_scalar(rng, field, allow_zero=True)
        b = random_scalar(rng, field, allow_zero=True)
        c = random_scalar(rng, field, allow_zero=True)
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(
            field.mul(a, b), field.mul(a, c)
        )
        assert field.add(a, zero) == a
        assert field.mul(a, one) == a
        assert field.is_zero(field.sub(a, a))
        if not field.is_zero(a):
            assert field.mul(a, field.inv(a)) == one


@pytest.mark.parametrize("field", [Qp(2), Qp(3), Qp(5), QQ, Qt()])
def test_valuation_laws_random(field):
    rng = random.Random(f"laws-{field.label}")
    for _ in range(1000):
        a = random_scalar(rng, field)
        b = random_scalar(rng, field)
        assert field.val(field.mul(a, b)) == field.val(a) + field.val(b)
        s = field.add(a, b)
        va, vb = field.val(a), field.val(b)
        if not field.is_zero(s):
            assert field.val(s) >= min(va, vb)
        if va != vb:
            assert field.val(s) == min(va, vb)


def test_modpm_valuation_laws_random():
    r = ModPmRing(2, 8)
    rng = random.Random("modpm-laws")
    for _ in range(1000):
        a = rng.randrange(1, 256)
        b = rng.randrange(1, 256)
        ab = r.mul(a, b)
        if ab != 0:
            assert r.val(ab) == r.val(a) + r.val(b)
        s = r.add(a, b)
        if s != 0:
            assert r.val(s) >= min(r.val(a), r.val(b))


def test_unit_times_inverse_residue():
    for field in (Qp(2), Qp(7), Qt(), QQ, ModPmRing(3, 1)):
        rng = random.Random(f"unit-{field.label}")
        res = field.residue_field()
        for _ in range(50):
            a = random_scalar(rng, field)
            if field.is_zero(a):  # nonzero integers may vanish mod p
                continue
            v = field.val(a)
            unit = field.mul(field.phi(-v), a)
            r1 = field.residue(unit)
            r2 = field.residue(field.inv(unit))
            assert res.mul(r1, r2) == res.one()


def test_initial_residue_is_nonzero():
    for field in (Qp(2), Qp(3), Qt(), ModPmRing(3, 1)):
        rng = random.Random(f"init-{field.label}")
        res = field.residue_field()
        for _ in range(100):
            a = random_scalar(rng, field)
            if field.is_zero(a):  # nonzero integers may vanish mod p
                continue
            assert not res.is_zero(field.initial_residue(a))


def test_modpm_residues_strip_p():
    for r in (ModPmRing(3, 1), ModPmRing(3, 4)):
        assert r.residue(0) == 0
        with pytest.raises(ValueError):
            r.initial_residue(0)
        for a in range(1, r.modulus):
            v = r.val(a)
            assert r.initial_residue(a) == a // 3**v % 3 != 0
            assert r.residue(a) == (a % 3 if v == 0 else 0)


def test_ratfunc_canonical_forms():
    # gcd removed and denominator monic
    a = RatFunc((0, 2), (2, 2))  # 2t / (2 + 2t) -> t/(1+t)
    assert a == RatFunc((0, 1), (1, 1))
    # zero is unique
    z = RatFunc((0,), (5, 3))
    assert z == RatFunc(0)
    assert z.is_zero()
    # division produces canonical results
    b = RatFunc((0, 0, 1)) / RatFunc((0, 1))
    assert b == RatFunc((0, 1))


def test_ratfunc_arithmetic_against_fractions():
    # constants embed Q into Q(t) compatibly
    rng = random.Random("embed")
    qt = Qt()
    for _ in range(100):
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        y = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        rx, ry = qt.coerce(x), qt.coerce(y)
        assert qt.add(rx, ry) == qt.coerce(x + y)
        assert qt.mul(rx, ry) == qt.coerce(x * y)
        if y != 0:
            assert qt.div(rx, ry) == qt.coerce(x / y)


def random_ratfunc_parts(rng, max_deg=4, height=12):
    """(num, den) tuples of int and Fraction coefficients, often with a common
    factor of positive degree and a common content."""
    def poly(deg):
        cs = [rng.randint(-height, height) for _ in range(deg + 1)]
        cs = [Fraction(c, rng.randint(1, 6)) if rng.random() < 0.3 else c for c in cs]
        if not cs[-1]:
            cs[-1] = 1
        return cs

    num, den = poly(rng.randint(0, max_deg)), poly(rng.randint(0, max_deg))
    if rng.random() < 0.1:
        num = [0] * len(num)
    if rng.random() < 0.5:
        common = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 4)]
        num, den = _tp_mul(num, common) or (0,), _tp_mul(den, common)
    return num, den


def test_ratfunc_operations_match_fraction_tuple_oracle():
    rng = random.Random("ratfunc-oracle")
    pairs = [random_ratfunc_parts(rng) for _ in range(120)]
    values = [RatFunc(n, d) for n, d in pairs]
    views = [(x.num, x.den) for x in values]
    assert views == [tp_canonical(n, d) for n, d in pairs]
    for x, (num, den) in zip(values, views):
        assert (-x).num == tuple(-c for c in num) and (-x).den == den
        assert x == RatFunc(num, den) and hash(x) == hash(RatFunc(num, den))
        if num:
            low_n = next(i for i, c in enumerate(num) if c)
            low_d = next(i for i, c in enumerate(den) if c)
            assert x.t_val() == low_n - low_d
            assert x.unit_residue() == num[low_n] / den[low_d]
    for _ in range(300):
        i, j = rng.randrange(len(values)), rng.randrange(len(values))
        x, y, vx, vy = values[i], values[j], views[i], views[j]
        assert ((x + y).num, (x + y).den) == tp_add(vx, vy)
        assert ((x - y).num, (x - y).den) == tp_sub(vx, vy)
        assert ((x * y).num, (x * y).den) == tp_mul(vx, vy)
        if y:
            assert ((x / y).num, (x / y).den) == tp_div(vx, vy)


def test_ratfunc_coeff_bits_read_from_the_integers():
    rng = random.Random("ratfunc-bits")
    seen = 0
    for _ in range(200):
        n, d = random_ratfunc_parts(rng, height=2**40)
        x = RatFunc(n, d)
        seen += x.integer_parts[1][-1] != 1
        assert Qt().bits(x) == _eager_bits(x)
    assert seen > 100  # most integer denominators are not monic


def test_ratfunc_prs_fallback_equals_heuristic_gcd(monkeypatch):
    rng = random.Random("ratfunc-prs")
    pairs = [random_ratfunc_parts(rng, max_deg=6) for _ in range(60)]
    heuristic = [RatFunc(n, d) for n, d in pairs]
    sums = [heuristic[i] + heuristic[i - 1] for i in range(len(pairs))]
    calls = []
    prs = fields._zp_prs_gcd
    monkeypatch.setattr(fields, "_HEU_GCD_TRIES", 0)
    monkeypatch.setattr(fields, "_zp_prs_gcd", lambda f, g: calls.append(1) or prs(f, g))
    assert [RatFunc(n, d) for n, d in pairs] == heuristic
    assert [heuristic[i] + heuristic[i - 1] for i in range(len(pairs))] == sums
    assert len(calls) > 50


def test_padic_valuation_function():
    assert padic_valuation(18, 3) == 2
    assert padic_valuation(-8, 2) == 3
    with pytest.raises(ValueError):
        padic_valuation(0, 2)


def test_padic_valuation_agrees_with_repeated_division():
    def by_division(n, p):
        n, v = abs(n), 0
        while n % p == 0:
            n, v = n // p, v + 1
        return v

    rng = random.Random("padic-valuation")
    for bits in (1, 7, 64, 1000, 12000, 40000):
        for _ in range(12):
            n = (rng.getrandbits(bits) | 1) << rng.randrange(0, 300)
            n *= rng.choice((1, -1))
            for p in (2, 3, 5):
                assert padic_valuation(n, p) == by_division(n, p), (bits, p)


def test_prime_validation():
    with pytest.raises(ValueError):
        Qp(4)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        ModPmRing(6, 2)


def test_qt_text_from_integer_parts_matches_fraction_views():
    from oracles import fraction_format_coefficient, fraction_ratfunc_repr

    qt = Qt()
    rng = random.Random(17)
    samples = [RatFunc((3, 1), (2, 4)), RatFunc((-6,), (4,)), RatFunc((0, 2), (6, 0, 3)),
               RatFunc((Fraction(1, 2), 1)), RatFunc((1,), (-3, 0, 2))]
    for _ in range(600):
        def t_poly():
            return tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                         if rng.random() < 0.3 else rng.randint(-5, 5)
                         for _ in range(rng.randint(1, 4)))
        den = t_poly()
        if any(den):
            samples.append(RatFunc(t_poly(), den))
    for x in samples:
        assert repr(x) == fraction_ratfunc_repr(x), x.integer_parts
        if not x.is_zero():
            assert qt.format_coefficient(x) == fraction_format_coefficient(x), x.integer_parts
