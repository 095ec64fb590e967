"""Buchberger loop over valued fields: S-polynomials, skip criteria, reduction.

A finite set G is a basis for the ideal it generates when the initial forms
of its elements generate the full initial ideal; equivalently every
S-polynomial of two elements divides to zero against G.  The reduced basis
(minimal, monic, tail-reduced) is unique for a fixed ideal and order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dc_field

from .division import normal_form
from .polynomials import (
    Monomial,
    Polynomial,
    mono_degree,
    mono_divides,
    mono_div,
    mono_lcm,
    mono_mul,
)
from .weights import WeightedOrder, leading_term


@dataclass
class GroebnerBasis:
    elements: list
    order: WeightedOrder
    stats: dict = dc_field(default_factory=dict)

    def leading_monomials(self) -> list[Monomial]:
        return [leading_term(g, self.order)[1] for g in self.elements]

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


@dataclass(frozen=True)
class CriticalPair:
    i: int
    j: int
    lm_i: Monomial
    lm_j: Monomial
    lcm: Monomial

    @property
    def degree(self) -> int:
        return mono_degree(self.lcm)


def s_polynomial(f: Polynomial, g: Polynomial, order: WeightedOrder) -> Polynomial:
    """lc(g) * (lcm/lm(f)) * f  -  lc(f) * (lcm/lm(g)) * g, computed exactly."""
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial of a zero polynomial is undefined")
    _, lmf, lcf = leading_term(f, order)
    _, lmg, lcg = leading_term(g, order)
    lcm = mono_lcm(lmf, lmg)
    return f.mono_mul(mono_div(lcm, lmf), lcg) - g.mono_mul(mono_div(lcm, lmg), lcf)


def criterion_b1(pair: CriticalPair) -> bool:
    """Leading monomials coprime: the S-polynomial reduces to zero a priori."""
    return mono_mul(pair.lm_i, pair.lm_j) == pair.lcm


def criterion_b2(pair: CriticalPair, lms: list, pending: set) -> bool:
    """Chain criterion: some third leading monomial divides the pair's lcm
    and both cross pairs have already been handled."""
    for k, lmk in enumerate(lms):
        if k == pair.i or k == pair.j:
            continue
        if not mono_divides(lmk, pair.lcm):
            continue
        if _key(pair.i, k) in pending or _key(pair.j, k) in pending:
            continue
        return True
    return False


def _key(i: int, j: int) -> tuple:
    return (i, j) if i < j else (j, i)


def monic(f: Polynomial, order: WeightedOrder) -> Polynomial:
    """Scale so the leading coefficient is one."""
    _, _, lc = leading_term(f, order)
    return f.scale(f.field.inv(lc))


def buchberger(
    generators: list,
    order: WeightedOrder,
    *,
    use_criteria: bool = True,
    max_steps: int = 1_000_000,
    max_coeff_bits: int | None = None,
    normalize=None,
    progress=None,
    stats: dict | None = None,
) -> GroebnerBasis:
    """Complete homogeneous generators to a basis under a weighted order.

    Pairs are processed lowest lcm degree first (ties by the tiebreak order
    on the lcm, then index).  New remainders are normalized before joining
    the basis; the default normalization is monic scaling.
    """
    if normalize is None:
        normalize = monic
    G: list[Polynomial] = []
    for idx, f in enumerate(generators):
        if f.nvars != order.nvars:
            raise ValueError("order/variable mismatch")
        if f.is_zero():
            continue
        if not f.is_homogeneous():
            raise ValueError(
                f"generator {idx} is not homogeneous; bases over valued fields "
                "require homogeneous input"
            )
        nf = normalize(f, order)
        if nf.is_zero() or any(nf == g for g in G):
            continue
        G.append(nf)
    if not G:
        raise ValueError("need at least one nonzero generator")

    lms: list[Monomial] = [leading_term(g, order)[1] for g in G]
    heap: list = []
    pending: set = set()

    def push_pairs(j: int):
        lmj = lms[j]
        for i in range(j):
            lcm = mono_lcm(lms[i], lmj)
            heapq.heappush(
                heap,
                (mono_degree(lcm), order.tiebreak.sort_key(lcm), i, j),
            )
            pending.add((i, j))

    for j in range(len(G)):
        push_pairs(j)

    counters = {"pairs": 0, "b1": 0, "b2": 0, "reductions_to_zero": 0, "new_elements": 0}
    while heap:
        _, _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        counters["pairs"] += 1
        pair = CriticalPair(i, j, lms[i], lms[j], mono_lcm(lms[i], lms[j]))
        if use_criteria and criterion_b1(pair):
            counters["b1"] += 1
            continue
        if use_criteria and criterion_b2(pair, lms, pending):
            counters["b2"] += 1
            continue
        s = s_polynomial(G[i], G[j], order)
        if s.is_zero():
            counters["reductions_to_zero"] += 1
            continue
        result = normal_form(
            s, G, order, max_steps=max_steps, max_coeff_bits=max_coeff_bits
        )
        r = result.remainder
        if not r.is_zero():
            r = normalize(r, order)  # may declare the remainder negligible
        if r.is_zero():
            counters["reductions_to_zero"] += 1
        else:
            G.append(r)
            lms.append(leading_term(r, order)[1])
            counters["new_elements"] += 1
            push_pairs(len(G) - 1)
        if progress is not None:
            progress(counters["pairs"], len(heap))
    if stats is not None:
        stats.update(counters)
    return GroebnerBasis(G, order, stats=counters)


def minimal_generators(monomials: list) -> list[Monomial]:
    """Minimal generating set of the monomial ideal spanned by the input."""
    distinct = sorted(set(monomials), key=lambda m: (mono_degree(m), m))
    out = []
    for m in distinct:
        if not any(mono_divides(other, m) for other in out):
            out.append(m)
    return out


def sort_basis(elements: list, order: WeightedOrder) -> list:
    """Canonical basis order: ascending degree, then descending leading monomial."""
    out = sorted(
        elements,
        key=lambda g: order.tiebreak.sort_key(leading_term(g, order)[1]),
        reverse=True,
    )
    out.sort(key=lambda g: g.degree())
    return out


def reduce_basis(gb: GroebnerBasis, *, max_steps: int = 1_000_000) -> GroebnerBasis:
    """The unique reduced basis: minimal leading monomials, monic, tail-reduced.

    For each minimal leading monomial x^u the element x^u - r is emitted,
    where r is the normal form of x^u against the full basis; its support
    therefore avoids every other leading monomial.
    """
    elements = [g for g in gb.elements if not g.is_zero()]
    if not elements:
        raise ValueError("cannot reduce an empty basis")
    order = gb.order
    fld = elements[0].field
    n = elements[0].nvars
    targets = minimal_generators([leading_term(g, order)[1] for g in elements])
    out = []
    for m in targets:
        target = Polynomial.term(fld, n, m, fld.one())
        r = normal_form(target, elements, order, max_steps=max_steps).remainder
        out.append(target - r)
    return GroebnerBasis(sort_basis(out, order), order)


def is_basis_of(gb: GroebnerBasis, generators: list, *,
                max_steps: int = 1_000_000,
                max_coeff_bits: int | None = None) -> bool:
    """Verify the basis property over the field: all surviving S-pairs and all
    original generators divide to zero against the basis."""
    G = gb.elements
    order = gb.order
    for f in generators:
        if f.is_zero():
            continue
        r = normal_form(
            f, G, order, max_steps=max_steps, max_coeff_bits=max_coeff_bits
        ).remainder
        if not r.is_zero():
            return False
    lms = [leading_term(g, order)[1] for g in G]
    for j in range(len(G)):
        for i in range(j):
            pair = CriticalPair(i, j, lms[i], lms[j], mono_lcm(lms[i], lms[j]))
            if criterion_b1(pair):
                continue
            s = s_polynomial(G[i], G[j], order)
            if s.is_zero():
                continue
            r = normal_form(
                s, G, order, max_steps=max_steps, max_coeff_bits=max_coeff_bits
            ).remainder
            if not r.is_zero():
                return False
    return True
