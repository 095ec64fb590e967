"""Integer-backed polynomials over Q and Qp: held as their primitive integer
form, with Fraction terms built on first read, they read and compare as the
eagerly built polynomials do."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from valgb import GREVLEX, LEX, Polynomial, Qp, QQ, WeightedOrder, poly_to_str
from valgb.division import _integer_terms
from valgb.groebner import _monic_from_integers, monic
from valgb.polynomials import _IntegerBacked
from valgb.weights import leading_term

FIELDS = [QQ, Qp(2), Qp(3)]
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

nonzero_fractions = st.builds(
    Fraction, st.integers(-60, 60).filter(bool), st.integers(1, 12))


@st.composite
def polynomials(draw, nvars=None, field=None):
    """A nonzero Fraction-backed polynomial over Q or Qp."""
    field = draw(st.sampled_from(FIELDS)) if field is None else field
    nvars = draw(st.integers(1, 3)) if nvars is None else nvars
    monos = st.tuples(*[st.integers(0, 3)] * nvars)
    terms = draw(st.dictionaries(monos, nonzero_fractions, min_size=1, max_size=5))
    return Polynomial(field, nvars, terms)


@st.composite
def pairs(draw):
    """Two polynomials over one field and variable count; the second is
    often a scalar multiple of the first."""
    f = draw(polynomials())
    if draw(st.booleans()):
        return f, f.scale(draw(nonzero_fractions))
    return f, draw(polynomials(f.nvars, f.field))


def backed(f: Polynomial) -> Polynomial:
    """f as an integer-backed polynomial, from its primitive integer form."""
    return _IntegerBacked(f.field, f.nvars, *_integer_terms(f))


def built(f: Polynomial) -> bool:
    """Whether f holds Fraction terms, read without building them."""
    try:
        Polynomial.terms.__get__(f)
    except AttributeError:
        return False
    return True


@SETTINGS
@given(polynomials())
def test_lazy_terms_equal_the_eager_ones(f):
    lazy = backed(f)
    assert not built(lazy)
    assert (lazy.is_zero(), bool(lazy), lazy.degree(), lazy.is_homogeneous()) == (
        f.is_zero(), bool(f), f.degree(), f.is_homogeneous())
    assert not built(lazy)  # read off the integer form
    assert lazy.terms == f.terms and built(lazy)
    assert lazy.terms is lazy.terms
    assert all(type(c) is Fraction for c in lazy.terms.values())
    assert poly_to_str(lazy) == poly_to_str(f)
    assert poly_to_str(lazy, ["a", "b", "c"]) == poly_to_str(f, ["a", "b", "c"])


@SETTINGS
@given(pairs())
def test_equality_and_hash_agree_with_the_eager_polynomials(pair):
    f, g = pair
    lf, lg = backed(f), backed(g)
    assert (lf == lg) == (f == g) == (lf == g) == (g == lf)
    assert lf == f and f == lf and not lf != f
    assert hash(lf) == hash(f)
    if f == g:
        assert hash(lf) == hash(lg)


@SETTINGS
@given(polynomials(), st.lists(st.integers(-2, 2), min_size=3, max_size=3),
       st.sampled_from([GREVLEX, LEX]))
def test_monic_elements_equal_the_eager_monic_ones(f, weights, tiebreak):
    # the loop's seeded leading data (W, lm, lc = 1) is the one computed afresh
    order = WeightedOrder(tuple(weights[:f.nvars]), tiebreak)
    made = _monic_from_integers(f.field, f.nvars, _integer_terms(f)[0], order)
    eager = monic(f, order)
    assert not built(made)
    assert made == eager and hash(made) == hash(eager)
    assert made == backed(eager)
    fresh = Polynomial(f.field, f.nvars, dict(eager.terms), _clean=True)
    assert leading_term(made, order) == leading_term(fresh, order)


def test_different_fields_or_variable_counts_are_unequal():
    f = Polynomial(QQ, 2, {(1, 0): Fraction(1, 2), (0, 1): 3})
    g = Polynomial(Qp(2), 2, f.terms)
    h = Polynomial(QQ, 3, {m + (0,): c for m, c in f.terms.items()})
    assert backed(f) == backed(Polynomial(QQ, 2, dict(f.terms)))
    assert backed(f) != backed(g) and backed(f) != g
    assert backed(f) != backed(h)
