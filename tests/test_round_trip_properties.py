"""Property test: a printed polynomial parses back to itself."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from valgb import GF, ModPmRing, Polynomial, QQ, Qp, Qt, RatFunc
from valgb import parse_polynomial, poly_to_str

NAMES = ["x", "y", "z"]
FIELDS = [Qp(2), Qp(3), QQ, Qt(), GF(5), GF(7)]

fractions = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
t_polys = st.lists(fractions, min_size=1, max_size=4).map(tuple)


def coefficients(field):
    """Fractions over Q and Qp, residues over GF(p), and rational functions
    with nontrivial denominators over Q(t)."""
    if isinstance(field, ModPmRing):
        return st.integers(-3 * field.p, 3 * field.p).map(field.coerce)
    if field == Qt():
        return st.builds(RatFunc, t_polys, t_polys.filter(any))
    return fractions.map(field.coerce)


@st.composite
def polynomials(draw, field):
    nvars = draw(st.integers(1, 3))
    monos = st.tuples(*[st.integers(0, 3)] * nvars)
    terms = draw(st.dictionaries(monos, coefficients(field), max_size=5))
    return Polynomial(field, nvars, terms)


@pytest.mark.parametrize("field", FIELDS, ids=lambda field: field.label)
def test_print_parse_round_trip(field):
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(polynomials(field))
    def check(f):
        names = NAMES[: f.nvars]
        text = poly_to_str(f, names)
        assert parse_polynomial(text, field, names) == f, text

    check()
