"""Property test of the division certificate f = sum h_i g_i + r."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from valgb import GREVLEX, ModPmRing, Polynomial, QQ, Qp, Qt
from valgb import WeightedOrder, leading_term, monomials_of_degree, normal_form
from valgb.division import CoefficientBlowup
from valgb.polynomials import mono_divides

from conftest import uniformizer

FIELDS = [Qp(2), Qp(3), QQ, Qt(), ModPmRing(3, 7)]


@st.composite
def homogeneous(draw, field):
    """A nonzero homogeneous polynomial in three variables whose terms carry
    up to two extra powers of the uniformizer."""
    monos = monomials_of_degree(3, draw(st.integers(1, 2)))
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
    t = uniformizer(field)
    terms = {}
    for m in chosen:
        c = field.coerce(draw(st.integers(1, 9)) * draw(st.sampled_from([-1, 1])))
        for _ in range(draw(st.integers(0, 2))):
            c = field.mul(c, t)
        terms[m] = c
    f = Polynomial(field, 3, terms)
    assume(not f.is_zero())  # Z/p^m can truncate every term
    return f


@st.composite
def division_input(draw, field):
    divisors = draw(st.lists(homogeneous(field), min_size=1, max_size=3))
    f = draw(homogeneous(field))
    spread = 0 if field == QQ else 1
    weights = tuple(draw(st.integers(-spread, spread)) for _ in range(3))
    return f, divisors, WeightedOrder(weights, GREVLEX)


@pytest.mark.parametrize("field", FIELDS, ids=lambda field: field.label)
def test_division_certificate_holds(field):
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(division_input(field))
    def check(case):
        f, divisors, order = case
        try:
            res = normal_form(f, divisors, order, max_coeff_bits=2000)
        except CoefficientBlowup:
            assume(False)
        except ValueError as exc:
            # Z/p^m cannot always divide by a non-unit leading coefficient
            if not (isinstance(field, ModPmRing) and "inexact" in str(exc)):
                raise
            assume(False)
        acc = res.remainder
        for h, g in zip(res.quotients, divisors):
            acc = acc + h * g
        assert acc == f
        lms = [leading_term(g, order)[1] for g in divisors]
        assert not any(mono_divides(lm, m) for lm in lms for m in res.remainder.terms)

    check()
