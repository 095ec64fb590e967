"""Weighted valuation orders: tropical weights, initial forms, leading data.

The weight of a term c*x^u is val(c) + w.u; the polynomial weight W is the
minimum over terms.  Initial forms collect the weight-minimal terms with
coefficients pushed into the residue field, and the leading monomial is the
tiebreak-largest monomial of the initial form.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .fields import ExtInt
from .polynomials import GREVLEX, Monomial, Polynomial, TermOrder, _leading

LESS = -1
EQUAL_RANK = 0
GREATER = 1


@dataclass(frozen=True)
class WeightedOrder:
    """A weight vector plus a classical term order for breaking ties.

    ``_ranks`` caches (w.m, tiebreak sort key) per monomial and ``_hash``
    the hash of (weights, tiebreak), which polynomials' leading-term memos
    look up on every read; neither takes part in equality.  Like the hash of
    a str, the hash holds for one process only.
    """

    weights: tuple
    tiebreak: TermOrder = GREVLEX
    _ranks: dict = dc_field(init=False, repr=False, compare=False)
    _hash: int = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        object.__setattr__(self, "_ranks", _RankTable(self.weights, self.tiebreak))
        object.__setattr__(self, "_hash", hash((self.weights, self.tiebreak)))

    def __hash__(self):
        return self._hash

    @property
    def nvars(self) -> int:
        return len(self.weights)


def weight_dot(weights, mono: Monomial) -> int:
    return sum(w * e for w, e in zip(weights, mono))


class _RankTable(dict):
    """Monomial -> (w.m, tiebreak sort key), filled on first lookup from the
    tiebreak's shared key table and the nonzero weights."""

    __slots__ = ("weighted", "keys")

    def __init__(self, weights, tiebreak: TermOrder):
        super().__init__()
        self.weighted = [(i, w) for i, w in enumerate(weights) if w]
        self.keys = tiebreak._keys

    def __missing__(self, m):
        wm = 0
        for i, w in self.weighted:
            wm += w * m[i]
        rank = self[m] = (wm, self.keys[m])
        return rank


def trop_weight(f: Polynomial, weights) -> ExtInt:
    """min over terms of val(coefficient) + w.exponent."""
    if f.is_zero():
        raise ValueError("tropical weight of the zero polynomial is undefined")
    val = f.field.val
    return min(val(c) + weight_dot(weights, m) for m, c in f.terms.items())


def leading_term(f: Polynomial, order: WeightedOrder):
    """(W, lm, lc): weight, leading monomial, leading coefficient (in K).

    The result is memoized per order on the (immutable) polynomial.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no leading term")
    cached = f._cache.get(order)
    if cached is not None:
        return cached
    best_w, best_m = _leading(f.terms, f.field, order)
    result = (best_w, best_m, f.terms[best_m])
    f._cache[order] = result
    return result


def initial_form(f: Polynomial, weights) -> Polynomial:
    """Weight-minimal part of f over the residue field, units rescaled away."""
    if f.is_zero():
        raise ValueError("initial form of the zero polynomial is undefined")
    field = f.field
    val = field.val
    keys = {m: val(c) + weight_dot(weights, m) for m, c in f.terms.items()}
    w_min = min(keys.values())
    res_field = field.residue_field()
    terms = {
        m: field.initial_residue(c) for m, c in f.terms.items() if keys[m] == w_min
    }
    return Polynomial(res_field, f.nvars, terms, _clean=True)


@dataclass
class LeadingData:
    """Weight, initial form, leading monomial, leading coefficient of f."""

    weight: ExtInt
    initial: Polynomial
    lm: Monomial
    lc: object


def leading_data(f: Polynomial, order: WeightedOrder) -> LeadingData:
    w, lm, lc = leading_term(f, order)
    return LeadingData(w, initial_form(f, order.weights), lm, lc)


def compare(f: Polynomial, g: Polynomial, order: WeightedOrder) -> int:
    """-1 if f < g, +1 if f > g, 0 for equal rank.

    Smaller means smaller key val(lc) + w.lm, with the tiebreak reversed:
    on equal keys the polynomial with the larger leading monomial is smaller.
    Every nonzero polynomial is smaller than zero.
    """
    zf, zg = f.is_zero(), g.is_zero()
    if zf and zg:
        return EQUAL_RANK
    if zg:
        return LESS
    if zf:
        return GREATER
    wf, lmf, _ = leading_term(f, order)
    wg, lmg, _ = leading_term(g, order)
    if wf != wg:
        return LESS if wf < wg else GREATER
    c = order.tiebreak.compare(lmf, lmg)
    if c == 0:
        return EQUAL_RANK
    return LESS if c > 0 else GREATER
