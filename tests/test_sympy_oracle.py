"""Differential oracle: reduced bases over Q with w = 0 against sympy."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from valgb import LEX, GREVLEX, QQ, buchberger, reduce_basis

from conftest import random_homogeneous, zero_order


def as_sympy(f, gens):
    return sympy.Poly.from_dict(
        {m: sympy.Rational(c.numerator, c.denominator) for m, c in f.terms.items()},
        *gens, domain="QQ",
    )


def term_set(terms):
    return frozenset((tuple(m), Fraction(int(c.p), int(c.q))) for m, c in terms)


@pytest.mark.parametrize("tiebreak", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_reduced_basis_over_q_matches_sympy(tiebreak):
    gens = sympy.symbols("x y z")
    rng = random.Random(f"sympy-oracle-{tiebreak.kind}")
    for trial in range(40):
        F = [random_homogeneous(rng, QQ, 3, rng.randint(1, 3))
             for _ in range(rng.randint(2, 3))]
        ours = reduce_basis(buchberger(F, zero_order(3, tiebreak)))
        theirs = sympy.groebner(
            [as_sympy(f, gens) for f in F], *gens, order=tiebreak.kind, domain="QQ"
        )
        expected = {term_set(g.terms()) for g in theirs.polys}
        got = {frozenset((m, Fraction(c)) for m, c in g.terms.items()) for g in ours}
        assert got == expected, f"trial {trial}"
