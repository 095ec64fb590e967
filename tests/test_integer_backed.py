"""Integer-backed polynomials over Q and Qp: held as their primitive integer
form, with Fraction terms built on first read, they read and compare as the
eagerly built polynomials do.  The completion loop's maker
(``polynomials.loop_element``) gives, over every ring, the element that the
eager normalization gives, with the leading data that a fresh scan finds."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from valgb import (GF, GREVLEX, LEX, ModPmRing, Polynomial, Qp, QQ, Qt, RatFunc,
                   WeightedOrder, poly_to_str)
from valgb.groebner import monic
from valgb.polynomials import loop_element, loop_form, loop_polynomial
from valgb.weights import leading_term

FIELDS = [QQ, Qp(2), Qp(3)]
RINGS = FIELDS + [ModPmRing(2, 8), ModPmRing(3, 5), GF(5), Qt()]
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


@st.composite
def loop_terms(draw):
    """A ring, a variable count and nonempty terms in the loop's scalars:
    integers of any content and sign over Q and Qp, residues of a drawn
    p-content over Z/p^m, and Q(t) scalars."""
    ring = draw(st.sampled_from(RINGS))
    nvars = draw(st.integers(1, 3))
    if ring == Qt():
        coefficient = st.builds(
            RatFunc, st.lists(st.integers(-5, 5), min_size=1, max_size=3).filter(any))
    elif ring.integral:
        coefficient = st.integers(-60, 60).filter(bool)
    else:
        # every term carries p^k, k up to the noise level m/2; some carry more
        q = ring.p ** draw(st.integers(0, ring.m // 2))
        coefficient = st.integers(1, ring.modulus - 1).map(
            lambda c: c * q % ring.modulus).filter(bool)
    monos = st.tuples(*[st.integers(0, 3)] * nvars)
    return ring, nvars, draw(st.dictionaries(monos, coefficient, min_size=1, max_size=5))


def backed(f: Polynomial) -> Polynomial:
    """f as an integer-backed polynomial, from its primitive integer form."""
    return loop_polynomial(f.field, f.nvars, *loop_form(f))


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
@given(loop_terms(), st.lists(st.integers(-2, 2), min_size=3, max_size=3),
       st.sampled_from([GREVLEX, LEX]))
def test_monic_elements_equal_the_eager_monic_ones(drawn, weights, tiebreak):
    # the maker's element is the eager monic one, after the p-content is
    # stripped over Z/p^m, where content at m/2 or above is noise and reads
    # as zero; its recorded leading data (W, lm, lc = 1) is the one computed
    # afresh, and over Q and Qp it is integer-backed
    ring, nvars, terms = drawn
    order = WeightedOrder(tuple(weights[:nvars]), tiebreak)
    f = Polynomial(ring, nvars, terms)
    if not ring.is_field:
        s = min(map(ring.val, terms.values()))
        if s >= max(1, ring.m // 2):
            assert loop_element(ring, nvars, terms, order).is_zero()
            return
        f = Polynomial(ring, nvars, {m: c // ring.p**s for m, c in terms.items()})
    try:
        eager = monic(f, order)
    except ValueError:  # over Z/p^m a leading coefficient need not be a unit
        with pytest.raises(ValueError, match="inexact division"):
            loop_element(ring, nvars, terms, order)
        return
    made = loop_element(ring, nvars, terms, order)
    if ring.integral:
        assert not built(made)
        assert made == backed(eager)
    assert made == eager and hash(made) == hash(eager)
    fresh = Polynomial(ring, nvars, dict(eager.terms), _clean=True)
    assert leading_term(made, order) == leading_term(fresh, order)


def test_different_fields_or_variable_counts_are_unequal():
    f = Polynomial(QQ, 2, {(1, 0): Fraction(1, 2), (0, 1): 3})
    g = Polynomial(Qp(2), 2, f.terms)
    h = Polynomial(QQ, 3, {m + (0,): c for m, c in f.terms.items()})
    assert backed(f) == backed(Polynomial(QQ, 2, dict(f.terms)))
    assert backed(f) != backed(g) and backed(f) != g
    assert backed(f) != backed(h)
