"""Buchberger loop over valued fields: S-polynomials, skip criteria, reduction.

A finite set G is a basis for the ideal it generates when the initial forms
of its elements generate the full initial ideal; equivalently every
S-polynomial of two elements divides to zero against G.  The reduced basis
(minimal, monic, tail-reduced) is unique for a fixed ideal and order.

Valued division reduces S-polynomials.  Over Q and Qp the completion loop
works on integers: each element is read as its memoized primitive integer
form, ``s_polynomial`` forms each S-polynomial on those forms and hands it
to the division as an integer-backed polynomial
(``polynomials._IntegerBacked``), and a new element is made monic once,
from the division's integer remainder, as an integer-backed polynomial
whose leading data (W = w.lm, lm, lc = 1) is seeded.  So the loop reads
emptiness, degrees, leading data and equality off integers, and builds no
Fraction unless a caller reads an element's terms.  The ring picks how a
new element is normalized: Q(t) and GF(p) scale it to be monic, and Z/p^m
(m > 1) first strips its p-content and reads truncation noise as zero.

One normal-form rule serves every field.  Buchberger's criterion reads only
whether a remainder is zero and, if not, its leading monomial, so the loop
asks for the weak normal form (``normal_form(..., weak=True)``;
Greuel-Pfister).  When G is a basis and the dividend lies in <G>, the
running q stays in <G> while the remainder is empty, so lm(q) always has a
divisor and the weak division takes the strong one's steps.  A strong
remainder is nonzero only after a remainder step, and that is exactly where
the weak division stops, so the two give the same verdicts; they differ
only where the strong one carries the tail on past that step into the bit
breaker.  That tail work is where the strong form blew up on random
quadrics over Qp, and ``reduce_basis`` reads tails off its RREF anyway.
The exception is Z/p^m (m > 1), the modular run of ``lifting.gb_mod_pm``:
``_modpm_normalize`` reads the p-content of the whole remainder to tell
truncation noise from a new element, so the loop keeps strong forms there.

Over Qp the valued division may divide by its own recorded states, and
against an unreduced basis its rationals can grow far beyond the basis it
finds (W1's 85-step division reached a 128,600-bit remainder).  So the loop
interreduces each closed degree once an element has joined, as homogeneous
Buchberger implementations do, and later pairs divide by a truncated
reduced basis.

The Hilbert skip spares the loop divisions that cannot change its basis.
With the criteria on and r <= n distinct generators over a field, it drops
a pair of degree d once dim <lm G>_d reaches c_d, the dimension of the
degree-d slice of r generic forms of the generators' degrees
(``hilbert.generic_dims``).  Macaulay rank is lower semicontinuous and
generic forms are a regular sequence, so dim <lm G>_d <= dim in_w(I)_d =
dim I_d <= c_d; equality makes <lm G>_d all of in_w(I)_d, and every
remainder of degree d is zero (Traverso, "Hilbert functions and the
Buchberger algorithm", 1996).  It never applies past n generators, where
the generic count is Froberg's unproven conjecture, nor over Z/p^m.

The reduced basis is never tail-reduced by division.  Over every field it
is read off one sparse RREF per degree (F4's symbolic preprocessing,
Faugere 1999; ``linalg.rref``), on primitive integer rows over Q and Qp, so
its entries are ratios of minors, and on rows of field scalars over GF(p)
and Q(t).  Over Q and Qp each returned row is integer-backed, with its
leading data seeded once a scan of its integers confirms the leading
monomial.  The lift (``lifting.lift_groebner``) reads its rows with the
same routine.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dc_field
from math import gcd

from .division import _combine, _integer_terms, normal_form
from .fields import INF
from .hilbert import generic_dims, multiples
from .linalg import rref
from .polynomials import (
    Monomial,
    Polynomial,
    _IntegerBacked,
    minimal_generators,
    mono_degree,
    mono_divides,
    mono_div,
    mono_lcm,
    mono_mul,
)
from .weights import WeightedOrder, _leading, leading_term


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
    """lc(g) * (lcm/lm(f)) * f  -  lc(f) * (lcm/lm(g)) * g, computed exactly.

    Over Q and Qp it is formed on the memoized primitive integer forms of f
    and g and returned integer-backed."""
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial of a zero polynomial is undefined")
    _, lmf, lcf = leading_term(f, order)
    _, lmg, lcg = leading_term(g, order)
    lcm = mono_lcm(lmf, lmg)
    xf, xg = mono_div(lcm, lmf), mono_div(lcm, lmg)
    if not f.field.integral:
        return f.mono_mul(xf, lcg) - g.mono_mul(xg, lcf)
    (F, nf, df), (G, ng, dg) = _integer_terms(f), _integer_terms(g)
    a, b = F[lmf], G[lmg]
    d = gcd(a, b)
    # (b/d)*x^xf*F - (a/d)*x^xg*G = (sf*sg/d)*S, as F = sf*f and a = sf*lc(f)
    S = {mono_mul(m, xf): b // d * c for m, c in F.items()}
    S = _combine(None, S, a // d, G, xg if any(xg) else None, None)
    if not S:
        return Polynomial.zero(f.field, f.nvars)
    c = gcd(*S.values())
    num, den = nf * ng, df * dg * d * c  # the scale sf*sg/(d*c)
    e = gcd(num, den)
    return _IntegerBacked(f.field, f.nvars, {m: v // c for m, v in S.items()},
                          num // e, den // e)


def _monic(fld, n: int, terms: dict, lm: Monomial, order: WeightedOrder) -> Polynomial:
    """terms/terms[lm], integer-backed, for a primitive integer term dict
    whose leading monomial under the order is lm and whose entry there is
    positive; its leading data (W = w.lm, lm, lc = 1) is seeded."""
    f = _IntegerBacked(fld, n, terms, terms[lm], 1)
    f._cache[order] = (order._ranks[lm][0], lm, fld.one())
    return f


def _monic_from_integers(fld, n: int, terms: dict, order: WeightedOrder) -> Polynomial:
    """The monic multiple of a nonzero integer term dict over Q or Qp."""
    _, lm = _leading(terms, fld, order)
    c = gcd(*terms.values())
    if terms[lm] < 0:
        c = -c
    return _monic(fld, n, {m: v // c for m, v in terms.items()}, lm, order)


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


def _modpm_normalize(f: Polynomial, order: WeightedOrder) -> Polynomial:
    """Strip p-content; declare noise-level elements zero.

    A reduction that vanishes over Q shows up mod p^m as a polynomial whose
    every coefficient carries at least m minus a bounded number of p-powers,
    so stripping would promote pure truncation noise to a fake basis element.
    Anything with content at m/2 or above is treated as a reduction to zero;
    false zeros are caught by the lift or its certificate and a larger m.
    """
    ring = f.field
    s = min(ring.val(c) for c in f.terms.values())
    if s is INF or s >= max(1, ring.m // 2):
        return Polynomial.zero(ring, f.nvars)
    if s:
        q = ring.p**s
        f = Polynomial(
            ring, f.nvars, {m: c // q for m, c in f.terms.items()}, _clean=True
        )
    return monic(f, order)


def buchberger(
    generators: list,
    order: WeightedOrder,
    *,
    use_criteria: bool = True,
    max_steps: int = 1_000_000,
    max_coeff_bits: int | None = None,
    progress=None,
) -> GroebnerBasis:
    """Complete homogeneous generators to a basis under a weighted order.

    Pairs are processed lowest lcm degree first (ties by the tiebreak order
    on the lcm, then index).  New remainders are normalized before joining
    the basis, and the ring picks the normalization.  Over Q and Qp the
    S-polynomials are formed on the elements' primitive integer forms, and
    a remainder is made monic from the division's integer remainder.  Over
    Z/p^m with m > 1 its p-content is stripped first, and a remainder whose
    content reaches m/2 reads as zero (``_modpm_normalize``).  Over Q(t) and
    GF(p) it is scaled to be monic.

    Over Qp the closed degrees are interreduced: before the first pair of
    degree d is popped, if an element has joined since the last such step,
    the elements of each degree below d not yet reduced are replaced by that
    degree's reduced elements, and the pairs of degree d and above are
    queued afresh.  The elements below d are then a truncated basis through
    degree d-1, so the later divisions run against small tails.  Stats count
    these steps as ``interreductions``.  The elements come out as the
    reduced ones in ascending degree, each degree in ``minimal_generators``
    order, then the input generators not yet reached, in input order.  The
    rule stays off elsewhere: over Q and GF(p) the division never records a
    state, and over Q(t) it slowed the bases tried and mended no known
    blow-up.

    Over every field each new element is a weak normal form, so its tail
    stays unreduced; over Z/p^m with m > 1 it is a strong one, whose
    p-content ``_modpm_normalize`` reads (see the module docstring).  Over a
    field, with at most n distinct generators in n variables, a pair that
    survives B1 and B2 is skipped when the leading monomials already fill
    its degree d up to c_d (see the module docstring); stats count these as
    ``hilbert``.  c_d is set up when the
    first pair survives the criteria, and each degree's leading-ideal
    monomials are listed once and extended as elements join.
    ``use_criteria=False`` turns off B1, B2 and the Hilbert skip, so every
    pair is divided.  ``progress(done, remaining)`` is called once per popped
    pair, divided or skipped, with the pairs popped so far and still queued.
    """

    def normalized(f):
        if f.field.integral:
            return _monic_from_integers(f.field, f.nvars, _integer_terms(f)[0], order)
        if not f.field.is_field:
            return _modpm_normalize(f, order)
        return monic(f, order)

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
        nf = normalized(f)
        if nf.is_zero() or any(nf == g for g in G):
            continue
        G.append(nf)
    if not G:
        raise ValueError("need at least one nonzero generator")
    fld, n = G[0].field, G[0].nvars
    integral = fld.integral
    weak = fld.is_field  # the loop reads only a remainder's leading monomial

    lms: list[Monomial] = [leading_term(g, order)[1] for g in G]
    heap: list = []
    pending: set = set()
    keys = order.tiebreak._keys

    def push_pairs(j: int, lowest: int = 0):
        lmj = lms[j]
        for i in range(j):
            lcm = mono_lcm(lms[i], lmj)
            d = mono_degree(lcm)
            if d >= lowest:
                heapq.heappush(heap, (d, keys[lcm], i, j))
                pending.add((i, j))

    for j in range(len(G)):
        push_pairs(j)

    interreducing = integral and not fld.trivially_valued  # Qp
    reduced_below = 0  # the elements of lower degree are reduced and come first
    joined = None  # the degree of the elements that joined since then
    counters = {"pairs": 0, "b1": 0, "b2": 0, "hilbert": 0, "reductions_to_zero": 0,
                "new_elements": 0, "interreductions": 0}

    # the Hilbert skip, set up when a pair first survives B1 and B2
    skipping = use_criteria and fld.is_field and len(G) <= n
    generic = None  # d -> c_d
    # d -> [c_d, |lms| read, the degree-d monomials of <lm G>]; interreduction
    # reorders lms only on the way to a degree above every slice made so far
    slices: dict = {}

    def closed_by_count(d: int) -> bool:
        nonlocal generic
        if generic is None:  # nothing has joined yet: lms are the generators'
            generic = generic_dims(n, [mono_degree(lm) for lm in lms])
        got = slices.get(d)
        if got is None:
            got = slices[d] = [generic(d), 0, set()]
        if got[1] < len(lms):
            got[2] |= multiples(lms[got[1]:], n, d)
            got[1] = len(lms)
        return len(got[2]) == got[0]

    def interreduce(d: int):
        nonlocal reduced_below
        closed = [k for k, lm in enumerate(lms) if mono_degree(lm) < d]
        closed_lms = [lms[k] for k in closed]
        kept = [G[k] for k in closed if mono_degree(lms[k]) < reduced_below]
        kept += _reduce_by_elimination([G[k] for k in closed], closed_lms,
                                       minimal_generators(closed_lms), order, reduced_below)
        G[:] = kept + [g for g, lm in zip(G, lms) if mono_degree(lm) >= d]
        lms[:] = [leading_term(g, order)[1] for g in G]
        reduced_below = d
        heap.clear()
        pending.clear()
        for j in range(len(G)):
            push_pairs(j, d)
        counters["interreductions"] += 1

    while heap:
        if interreducing and joined is not None and heap[0][0] > joined:
            interreduce(heap[0][0])
            joined = None
        d, _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        counters["pairs"] += 1
        pair = CriticalPair(i, j, lms[i], lms[j], mono_lcm(lms[i], lms[j]))
        if use_criteria and criterion_b1(pair):
            counters["b1"] += 1
        elif use_criteria and criterion_b2(pair, lms, pending):
            counters["b2"] += 1
        elif skipping and closed_by_count(d):
            counters["hilbert"] += 1
        else:
            s = s_polynomial(G[i], G[j], order)
            r = None
            if s:
                result = normal_form(s, G, order, max_steps=max_steps,
                                     max_coeff_bits=max_coeff_bits, weak=weak)
                if result._r:  # u*remainder in the division's scalars
                    if integral:
                        r = _monic_from_integers(fld, n, result._r, order)
                    else:  # may declare the remainder negligible
                        r = normalized(result.remainder)
            if not r:
                counters["reductions_to_zero"] += 1
            else:
                G.append(r)
                lms.append(leading_term(r, order)[1])
                counters["new_elements"] += 1
                joined = mono_degree(lms[-1])
                push_pairs(len(G) - 1)
        if progress is not None:
            progress(counters["pairs"], len(heap))
    return GroebnerBasis(G, order, stats=counters)


def sort_basis(elements: list, order: WeightedOrder) -> list:
    """Canonical basis order: ascending degree, then descending leading monomial."""
    ranks = order._ranks
    out = sorted(elements, key=lambda g: ranks[leading_term(g, order)[1]][1], reverse=True)
    out.sort(key=lambda g: g.degree())
    return out


def _reduced_rows(field, nvars: int, rows: list, block: list, targets: list,
                  order: WeightedOrder):
    """The reduced element of each target monomial, read off the RREF of
    term-dict rows whose columns put the block monomials first.

    The rows hold integers over Q and Qp and the field's scalars otherwise
    (``linalg.rref`` takes the row operation from the field).  Returns None
    unless the pivots are exactly the block; otherwise row t of the RREF,
    divided by its pivot entry, is the element for target t (the targets
    lie in the block).  Over Q and Qp it is integer-backed, and its leading
    data under the order is seeded when a scan of the row confirms t as its
    leading monomial (the lift's certificate reads it, so it is never
    assumed).  The RREF is unique, so neither the row order nor the order
    of the columns within and after the block matters.
    """
    index = {m: i for i, m in enumerate(block)}
    for terms in rows:
        for m in terms:
            if m not in index:
                index[m] = len(index)
    columns = list(index)
    dense = []
    for terms in rows:
        row = [0] * len(columns)
        for m, c in terms.items():
            row[index[m]] = c
        dense.append(row)
    reduced, pivots = rref(dense, field)
    if pivots != list(range(len(block))):
        return None
    out = []
    for t in targets:
        row = reduced[index[t]]
        terms = {columns[c]: v for c, v in row.items()}
        if field.integral:  # a primitive row with a positive pivot entry
            if _leading(terms, field, order)[1] == t:
                out.append(_monic(field, nvars, terms, t, order))
            else:  # a wrong claim of the lift, which its certificate reads
                out.append(_IntegerBacked(field, nvars, terms, terms[t], 1))
        else:  # the pivot entry is already one
            out.append(Polynomial(field, nvars, terms, _clean=True))
    return out


def _reduce_by_elimination(elements: list, lms: list, targets: list, order: WeightedOrder,
                           lowest: int = 0) -> list:
    """Reduced elements for the targets of degree ``lowest`` or more, one
    degree at a time; targets of lower degree only serve as divisors.

    The rows start with the element whose leading monomial is each target;
    every leading-ideal monomial met in a row that has no row yet gets one
    multiple x^v*g with x^v*lm(g) equal to it (symbolic preprocessing).  The
    rows' leading monomials are pairwise distinct, so the rows are
    independent under any weighted order, and on a basis no nonzero
    combination avoids the leading ideal: the pivots are exactly the block.
    A degree needs no elimination when its rows are its monic elements and
    none holds another row's leading monomial; those elements are returned.
    """
    field, nvars = elements[0].field, elements[0].nvars
    owner = {}
    for g, lm in zip(elements, lms):
        owner.setdefault(lm, g)
    if field.integral:
        forms = {lm: _integer_terms(g) for lm, g in owner.items()}
        reducer = {lm: terms for lm, (terms, _, _) in forms.items()}
        # terms/s is monic at lm when terms[lm] = s = num/den
        monic_at = {lm for lm, (terms, num, den) in forms.items() if terms[lm] * den == num}
    else:
        reducer = {lm: g.terms for lm, g in owner.items()}
        one = field.one()
        monic_at = {lm for lm, g in owner.items() if g.terms[lm] == one}
    out = []
    for d in sorted({mono_degree(t) for t in targets}):
        if d < lowest:
            continue
        of_degree = [t for t in targets if mono_degree(t) == d]
        divisors = [t for t in targets if mono_degree(t) <= d]
        block = list(of_degree)  # the rows' leading monomials, in row order
        source = {t: t for t in of_degree}  # the target whose multiple is m's row
        outside = set()
        rows = []
        for m in block:  # grows while it is read
            v = mono_div(m, source[m])
            terms = reducer[source[m]]
            if any(v):
                terms = {mono_mul(u, v): c for u, c in terms.items()}
            rows.append(terms)
            for u in terms:
                if u in source or u in outside:
                    continue
                divisor = next((t for t in divisors if mono_divides(t, u)), None)
                if divisor is None:
                    outside.add(u)
                else:
                    source[u] = divisor
                    block.append(u)
        if len(block) == len(of_degree) and all(
                t in monic_at and len(source.keys() & row.keys()) == 1
                for t, row in zip(of_degree, rows)):
            out.extend(owner[t] for t in of_degree)
            continue
        got = _reduced_rows(field, nvars, rows, block, of_degree, order)
        if got is None:
            raise AssertionError(
                f"distinct leading monomials gave a singular block in degree {d}"
            )
        out.extend(got)
    return out


def reduce_basis(gb: GroebnerBasis) -> GroebnerBasis:
    """The unique reduced basis: minimal leading monomials, monic, tail-reduced.

    The input must be a homogeneous Groebner basis over a field.  For each
    minimal leading monomial x^u the element x^u - r is emitted, where r is
    the unique combination of monomials outside the leading ideal with
    x^u - r in the ideal.  It is read off one sparse RREF per degree
    (``_reduce_by_elimination``); over Q and Qp its rows are primitive
    integers, so its entries are bounded by minors.  Z/p^m with m > 1 is not
    a field and raises ``ValueError``.
    """
    elements = [g for g in gb.elements if not g.is_zero()]
    if not elements:
        raise ValueError("cannot reduce an empty basis")
    order = gb.order
    fld = elements[0].field
    n = elements[0].nvars
    if any(g.field != fld or g.nvars != n for g in elements):
        raise ValueError("basis field/variable mismatch")
    if order.nvars != n:
        raise ValueError("order/variable mismatch")
    if not fld.is_field:
        raise ValueError(f"{fld.label} is not a field; reduced bases need one")
    if not all(g.is_homogeneous() for g in elements):
        raise ValueError("basis elements must be homogeneous")
    lms = [leading_term(g, order)[1] for g in elements]
    out = _reduce_by_elimination(elements, lms, minimal_generators(lms), order)
    return GroebnerBasis(sort_basis(out, order), order)


def is_basis_of(gb: GroebnerBasis, generators: list, *,
                max_steps: int = 1_000_000,
                max_coeff_bits: int | None = None) -> bool:
    """Whether every generator and every S-pair not skipped by B1 has a zero
    weak normal form against the basis; the weak form gives the strong
    one's verdicts (see the module docstring).

    This shows that G is a basis of <G> and that F lies in <G>, but not that
    <G> lies in <F>: over Qp(2), G = [x, y] passes for F = [x].  No library
    code calls it, since ``lifting._certified_by_lift`` shows <G> = <F> over
    every field and divides nothing.  The tests use it as an oracle; it
    moves to ``tests/oracles.py`` once the benchmark's tracing
    (``perfbench/tracing.py``) no longer wraps it by name.
    """
    G = gb.elements
    order = gb.order
    for f in generators:
        if f.is_zero():
            continue
        if normal_form(f, G, order, max_steps=max_steps, max_coeff_bits=max_coeff_bits,
                       weak=True)._r:
            return False
    lms = [leading_term(g, order)[1] for g in G]
    for j in range(len(G)):
        for i in range(j):
            pair = CriticalPair(i, j, lms[i], lms[j], mono_lcm(lms[i], lms[j]))
            if criterion_b1(pair):
                continue
            s = s_polynomial(G[i], G[j], order)
            if s and normal_form(s, G, order, max_steps=max_steps,
                                 max_coeff_bits=max_coeff_bits, weak=True)._r:
                return False
    return True
