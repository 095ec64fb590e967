"""The lift's elimination does only the work its result reads.

* ``rref(rows, field, wanted)`` back-substitutes only the pivot rows in
  ``wanted``; each of them is the full RREF's row, whatever else is reduced.
* The lift leaves out the Koszul rows x^v*f_i with lm(f_j) | x^v for some
  j < i (``lifting._lift_rows``); the kept rows span the same space as all
  the degree-d multiples, so the pivots and the target rows are unchanged.
"""

import random
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from valgb import GF, GREVLEX, QQ, Qp, Qt, RatFunc, WeightedOrder, buchberger, gb_mod_pm
from valgb.division import _integer_terms
from valgb.groebner import _reduced_rows
from valgb.hilbert import multiples
from valgb.lifting import _lift_rows, lift_groebner
from valgb.linalg import rref
from valgb.polynomials import compositions, minimal_generators, mono_degree, mono_mul

from conftest import random_ideal, random_weights

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# (field, entry strategy): integers (no field), GF(p) scalars, Q(t) scalars
SCALARS = [
    (None, st.integers(-12, 12)),
    (GF(2), st.integers(0, 1)),
    (GF(5), st.integers(0, 4)),
    (Qt(), st.builds(lambda n, d: RatFunc(n, d),
                     st.lists(st.integers(-3, 3), min_size=1, max_size=3),
                     st.sampled_from([(1,), (2,), (1, 1), (-1, 0, 1)]))),
]


@st.composite
def matrices(draw):
    """(field, sparse rows, wanted columns): random rows with repeated and
    combined ones for rank deficiency, and unit rows, which are their own
    RREF rows."""
    field, entries = draw(st.sampled_from(SCALARS))
    ncols = draw(st.integers(1, 9))
    cols = st.integers(0, ncols - 1)
    rows = draw(st.lists(st.dictionaries(cols, entries, max_size=5), max_size=9))
    zero, one = (0, 1) if field is None else (field.zero(), field.one())
    add = int.__add__ if field is None else field.add
    if rows and draw(st.booleans()):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows.append({c: add(a.get(c, zero), b.get(c, zero)) for c in a.keys() | b.keys()})
    rows += [{c: one} for c in draw(st.lists(cols, max_size=3))]
    wanted = set(draw(st.lists(cols, max_size=ncols)))
    return field, draw(st.permutations(rows)), wanted


@SETTINGS
@given(matrices())
def test_wanted_rows_are_the_full_rref_rows(case):
    field, rows, wanted = case
    copies = [dict(r) for r in rows]
    full, pivots = rref(rows, field)
    got, got_pivots = rref(rows, field, wanted)
    assert rows == copies  # the input rows are not changed
    assert got_pivots == pivots
    for row, reduced, p in zip(got, full, pivots):
        if p in wanted:
            assert row == reduced
        else:  # a forward echelon row, normalized at its pivot
            assert min(row) == p and all(row.values())
            if field is None:
                assert gcd(*row.values()) == 1 and row[p] > 0
            else:
                assert row[p] == field.one()
    assert rref(rows, field, set())[1] == pivots


def _all_rows(gens, nvars, d):
    """Every degree-d multiple x^v*f_i, as a term dict."""
    return [{mono_mul(m, v): c for m, c in terms.items()}
            for degree, terms, _ in gens if degree <= d
            for v in compositions(nvars, d - degree)]


def _columns(rows, rng):
    """The rows over one shuffled column numbering of their monomials."""
    monos = sorted(set().union(*rows))
    rng.shuffle(monos)
    index = {m: i for i, m in enumerate(monos)}
    return [{index[m]: c for m, c in r.items()} for r in rows]


@pytest.mark.parametrize("field", [QQ, Qp(2), Qp(3)])
def test_koszul_rows_span_all_the_rows(field):
    rng = random.Random(f"koszul-rows-{field.label}")
    pruned = 0
    for trial in range(60):
        nvars = rng.choice([2, 3, 3, 4])
        F = random_ideal(rng, field, nvars, max_degree=3, max_gens=4)
        order = WeightedOrder(random_weights(rng, field, nvars), GREVLEX)
        gens = [(f.homogeneous_degree(), _integer_terms(f)[0],
                 max(_integer_terms(f)[0], key=GREVLEX.sort_key)) for f in F]
        # the direct Qp run can blow up on these; the certified one cannot
        basis = (buchberger(F, order) if field == QQ
                 else gb_mod_pm(F, order, retry_budget=8, max_coeff_bits=4096))
        targets = minimal_generators(basis.leading_monomials())
        lowest = min(g[0] for g in gens)
        for d in sorted({mono_degree(t) for t in targets} | {lowest + 1, lowest + 2}):
            kept, skipped = _lift_rows(gens, nvars, d)
            every = _all_rows(gens, nvars, d)
            assert len(kept) + skipped == len(every), trial
            pruned += skipped
            # equal row spaces: equal full RREFs under any column numbering
            seed = rng.random()
            assert (rref(_columns(kept, random.Random(seed)))
                    == rref(_columns(every, random.Random(seed)))), trial
            # and the lift's pivot check and target rows agree
            block = list(multiples(targets, nvars, d))
            of_degree = [t for t in targets if mono_degree(t) == d]
            assert (_reduced_rows(field, nvars, kept, block, of_degree, order)
                    == _reduced_rows(field, nvars, every, block, of_degree, order)), trial
        lifted = lift_groebner(F, order, targets)
        for d, shape in lifted.stats["degrees"].items():
            assert shape["rank"] == len(multiples(targets, nvars, d))
            assert shape["rows"] + shape["pruned"] == len(_all_rows(gens, nvars, d))
    assert pruned > 0
