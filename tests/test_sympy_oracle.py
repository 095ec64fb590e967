"""Differential oracles against sympy: reduced bases over Q and GF(p) with
w = 0, and Q(t) scalar arithmetic over Z[t]."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from valgb import GF, LEX, GREVLEX, QQ, RatFunc, buchberger, reduce_basis

from conftest import random_homogeneous, zero_order


def as_sympy(f, gens, modulus=None):
    if modulus is not None:
        return sympy.Poly.from_dict(dict(f.terms), *gens, modulus=modulus)
    return sympy.Poly.from_dict(
        {m: sympy.Rational(c.numerator, c.denominator) for m, c in f.terms.items()},
        *gens, domain="QQ",
    )


def term_set(terms, modulus=None):
    if modulus is not None:  # sympy prints residues symmetric around 0
        return frozenset((tuple(m), int(c) % modulus) for m, c in terms)
    return frozenset((tuple(m), Fraction(int(c.p), int(c.q))) for m, c in terms)


@pytest.mark.parametrize("field, tiebreak", [
    (QQ, GREVLEX), (QQ, LEX), (GF(3), GREVLEX), (GF(3), LEX), (GF(5), GREVLEX),
], ids=["grevlex", "lex", "GF3-grevlex", "GF3-lex", "GF5-grevlex"])
def test_reduced_basis_over_q_matches_sympy(field, tiebreak):
    gens = sympy.symbols("x y z")
    modulus = getattr(field, "p", None)
    seed = f"sympy-oracle-{tiebreak.kind}" + (f"-{modulus}" if modulus else "")
    rng = random.Random(seed)
    for trial in range(40):
        F = [random_homogeneous(rng, field, 3, rng.randint(1, 3))
             for _ in range(rng.randint(2, 3))]
        ours = reduce_basis(buchberger(F, zero_order(3, tiebreak)))
        domain = {"modulus": modulus} if modulus else {"domain": "QQ"}
        theirs = sympy.groebner(
            [as_sympy(f, gens, modulus) for f in F], *gens, order=tiebreak.kind,
            **domain,
        )
        expected = {term_set(g.terms(), modulus) for g in theirs.polys}
        got = {frozenset((m, c if modulus else Fraction(c)) for m, c in g.terms.items())
               for g in ours}
        assert got == expected, f"trial {trial}"


T = sympy.Symbol("t")


def zz_poly(coeffs):
    return sympy.Poly(list(reversed(coeffs)) or [0], T, domain="ZZ")


def zz_tuple(poly):
    return tuple(int(c) for c in reversed(poly.all_coeffs())) if not poly.is_zero else ()


def zz_canonical(P, Q):
    """P/Q over Z[t] divided by sympy's gcd (content included), lc(Q) > 0."""
    g = P.gcd(Q)
    P, Q = P.exquo(g), Q.exquo(g)
    if Q.LC() < 0:
        P, Q = -P, -Q
    return zz_tuple(P), (zz_tuple(Q) if not P.is_zero else (1,))


def random_zz(rng, deg, bits):
    cs = [rng.randint(-2**bits, 2**bits) for _ in range(deg + 1)]
    cs[-1] = cs[-1] or 1
    return cs


def test_ratfunc_arithmetic_matches_sympy():
    rng = random.Random("ratfunc-sympy")
    for trial in range(24):
        parts = []
        for _ in range(2):
            bits = rng.choice((3, 20, 60))
            deg_n, deg_d = rng.randint(0, 40), rng.randint(0, 40)
            n, d = random_zz(rng, deg_n, bits), random_zz(rng, deg_d, bits)
            # a shared factor and shared content, with a power of t now and then
            common = ([0] * rng.randint(0, 2) + random_zz(rng, rng.randint(0, 4), 4))
            k = rng.randint(1, 6)
            n = [k * c for c in zz_tuple(zz_poly(n) * zz_poly(common))]
            d = [k * c for c in zz_tuple(zz_poly(d) * zz_poly(common))]
            parts.append((n, d))
        (a, b), (c, d) = parts
        x, y = RatFunc(a, b), RatFunc(c, d)
        A, B, C, D = map(zz_poly, (a, b, c, d))
        assert x.integer_parts == zz_canonical(A, B), trial
        assert y.integer_parts == zz_canonical(C, D), trial
        assert (x + y).integer_parts == zz_canonical(A * D + C * B, B * D), trial
        assert (x - y).integer_parts == zz_canonical(A * D - C * B, B * D), trial
        assert (x * y).integer_parts == zz_canonical(A * C, B * D), trial
        assert (x / y).integer_parts == zz_canonical(A * D, B * C), trial
        for value, (N, M) in ((x, (A, B)), (y, (C, D))):
            n, m = value.integer_parts
            assert zz_poly(n).gcd(zz_poly(m)) == zz_poly((1,)) and m[-1] > 0
            # t_val and unit_residue from sympy's lowest terms of N and M
            low_n, low_m = min(e for (e,) in N.monoms()), min(e for (e,) in M.monoms())
            assert value.t_val() == low_n - low_m
            residue = sympy.Rational(N.coeff_monomial(T**low_n), M.coeff_monomial(T**low_m))
            assert value.unit_residue() == Fraction(int(residue.p), int(residue.q))
