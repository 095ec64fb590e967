"""Shared fixtures and small builders for the test suite."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from valgb import (
    GREVLEX,
    Polynomial,
    QQ,
    Qp,
    Qt,
    RatFunc,
    WeightedOrder,
    monomials_of_degree,
)
from valgb.parsing import parse_polynomial


def P(field, names, text):
    """Parse a polynomial from text; names is a comma-separated string."""
    return parse_polynomial(text, field, names.split(","))


def polys(field, names, *texts):
    return [P(field, names, t) for t in texts]


def zero_order(nvars, tiebreak=GREVLEX):
    return WeightedOrder((0,) * nvars, tiebreak)


def random_scalar(rng: random.Random, field, height=9, allow_zero=False):
    lo = 0 if allow_zero else 1
    if field == Qt():
        deg = rng.randint(0, 2)
        coeffs = [rng.randint(-height, height) for _ in range(deg + 1)]
        if not any(coeffs):
            coeffs[0] = rng.randint(lo, height)
        return RatFunc(coeffs)
    c = rng.randint(lo, height) * rng.choice([-1, 1])
    if allow_zero and rng.random() < 0.1:
        c = 0
    return field.coerce(c)


def random_homogeneous(
    rng: random.Random, field, nvars, degree, max_terms=4, height=9
) -> Polynomial:
    """A nonzero homogeneous polynomial with small random coefficients.

    Over GF(p) every drawn coefficient may vanish; the first chosen monomial
    is then returned instead, so no further draw changes.
    """
    monos = monomials_of_degree(nvars, degree)
    count = min(len(monos), rng.randint(1, max_terms))
    chosen = rng.sample(monos, count)
    f = Polynomial(field, nvars, {m: random_scalar(rng, field, height) for m in chosen})
    return f if f else Polynomial.term(field, nvars, chosen[0], field.one())


def random_ideal(rng, field, nvars, max_degree=3, max_gens=3, height=9):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        gens.append(
            random_homogeneous(rng, field, nvars, rng.randint(1, max_degree), height=height)
        )
    return gens


def uniformizer(field):
    """A scalar of valuation one (t or p), or 1 for trivially valued Q."""
    if field == Qt():
        return RatFunc((0, 1))
    return field.coerce(getattr(field, "p", 1))


def random_weights(rng, field, nvars, spread=2):
    if field == QQ:
        return (0,) * nvars
    return tuple(rng.randint(-spread, spread) for _ in range(nvars))


def to_oracle(f: Polynomial) -> dict:
    """Package polynomial -> plain dict with Fraction/int coefficients."""
    out = {}
    for m, c in f.terms.items():
        out[m] = Fraction(c) if not isinstance(c, int) else c
    return out


@pytest.fixture
def rng():
    return random.Random(20260808)


# Ten homogeneous generators in nine variables over Q with the 2-adic
# valuation; their completion at w = 0 is criteria-sensitive: one coprime-lead
# S-pair blows up rationally if reduced instead of skipped, yet the ideal's
# basis is the generators themselves up to monic scaling.
NINE_VARIABLE_GENERATORS = [
    "-3x1*x4+6x3*x4+3x1*x5+92x2*x5+2x3*x5-23x2*x6-2x3*x6",
    "x1*x8+7x2*x8-4x3*x8-6x1*x9-3x2*x9",
    "x4*x8+3x5*x8-3x6*x8-24x5*x9-3x6*x9",
    "-x2*x4-4x3*x4+x2*x5+4x3*x5+23x2*x6+2x3*x6",
    "-13x1*x7-4x3*x7+7x2*x8+28x3*x8-65x1*x9-3x2*x9-32x3*x9",
    "x4*x7+27x5*x7-9x6*x8+5x4*x9+135x5*x9-9x6*x9",
    "-4x2*x5-16x3*x5+3x1*x6+x2*x6-2x3*x6",
    "13x2*x7-8x3*x7+x2*x8+4x3*x8+59x2*x9-64x3*x9",
    "8x5*x7+x6*x7-3x6*x8+40x5*x9+5x6*x9",
    "4x2*x5*x8+16x3*x5*x8+20x2*x6*x8-10x3*x6*x8-24x2*x5*x9-96x3*x5*x9"
    "-3x2*x6*x9-12x3*x6*x9",
]

NINE_VARIABLE_BASIS = [
    "3x1*x4-6x3*x4-3x1*x5-92x2*x5-2x3*x5+23x2*x6+2x3*x6",
    "x1*x8+7x2*x8-4x3*x8-6x1*x9-3x2*x9",
    "x4*x8+3x5*x8-3x6*x8-24x5*x9-3x6*x9",
    "x2*x4+4x3*x4-x2*x5-4x3*x5-23x2*x6-2x3*x6",
    "13x1*x7+4x3*x7-7x2*x8-28x3*x8+65x1*x9+3x2*x9+32x3*x9",
    "x4*x7+27x5*x7-9x6*x8+5x4*x9+135x5*x9-9x6*x9",
    "-4x2*x5-16x3*x5+3x1*x6+x2*x6-2x3*x6",
    "13x2*x7-8x3*x7+x2*x8+4x3*x8+59x2*x9-64x3*x9",
    "8x5*x7-3x6*x8+40x5*x9+5x6*x9+x6*x7",
    "-4x2*x5*x8-16x3*x5*x8-20x2*x6*x8+10x3*x6*x8+24x2*x5*x9+3x2*x6*x9"
    "+96x3*x5*x9+12x3*x6*x9",
]


def nine_variable_problem():
    """(generators, printed basis, weighted order) over Qp(2), w = 0."""
    from valgb.parsing import parse_polynomial

    field = Qp(2)
    names = [f"x{i}" for i in range(1, 10)]
    gens = [parse_polynomial(s, field, names) for s in NINE_VARIABLE_GENERATORS]
    printed = [parse_polynomial(s, field, names) for s in NINE_VARIABLE_BASIS]
    return gens, printed, WeightedOrder((0,) * 9, GREVLEX)
