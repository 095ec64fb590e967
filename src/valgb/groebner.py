"""Buchberger loop over valued fields: S-polynomials, skip criteria, reduction.

A finite set G is a basis for the ideal it generates when the initial forms
of its elements generate the full initial ideal; equivalently every
S-polynomial of two elements divides to zero against G.  The reduced basis
(minimal, monic, tail-reduced) is unique for a fixed ideal and order.

Valued division reduces S-polynomials.  The loop computes on the loop
form that ``polynomials`` owns (``loop_form``): over Q and Qp each element
is read as its primitive integer form, which it holds from the start, and
over every other ring as its terms.  ``s_polynomial`` forms each
S-polynomial on those forms and hands it to the division in its own loop
form, and every element joins through one maker, ``loop_element``: the
generators, each remainder (the division's own scalars, u*r for a unit u)
and each row that an elimination reduces.  The maker scans the terms once
for the leading monomial and records the element's leading data
(W = w.lm, lm, lc = 1); the ring picks the normalization: over a field the
element is made monic, integer-backed over Q and Qp, and Z/p^m (m > 1)
first strips its p-content and reads truncation noise as zero.  So over Q
and Qp the loop reads emptiness, degrees, leading data and equality off
integers, and builds no Fraction unless a caller reads an element's terms.

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
the maker reads the p-content of the whole remainder to tell truncation
noise from a new element, so the loop keeps strong forms there.

Over Qp and Q(t) the valued division may divide by its own recorded
states, and against an unreduced basis its scalars can grow far beyond the
basis it finds: W1's 85-step division reached a 128,600-bit remainder, and
a Q(t) ideal in three variables left 27,997-bit scalars for a reduced basis
with none above 560.  So the loop interreduces each closed degree there
once an element has joined, as homogeneous Buchberger implementations do,
and later pairs divide by the reduced basis of the closed degrees.

The Hilbert skip spares the loop divisions that cannot change its basis.
With the criteria on and r <= n distinct generators, it drops a pair of
degree d once dim <lm G>_d reaches c_d, the dimension of the degree-d slice
of r generic forms of the generators' degrees (``hilbert.generic_dims``).
Over a field, Macaulay rank is lower semicontinuous and generic forms are a
regular sequence, so dim <lm G>_d <= dim in_w(I)_d = dim I_d <= c_d;
equality makes <lm G>_d all of in_w(I)_d, and every remainder of degree d
is zero (Traverso, "Hilbert functions and the Buchberger algorithm", 1996).
It never applies past n generators, where the generic count is Froberg's
unproven conjecture.  Over Z/p^m it is sound because every claim of the
modular run is certified afterwards (``lifting.gb_mod_pm``): if the run
without the skip claims correctly, every leading monomial it ever holds
lies in in_w(I), so once dim <lm G>_d reaches c_d >= dim in_w(I)_d every
later pair of degree d reads as zero, and skipping it changes nothing;
where that run would claim wrongly, the lift or the certificate rejects
either run.

The reduced basis is never tail-reduced by division.  Over every field it
is read off one sparse RREF per degree (F4's symbolic preprocessing,
Faugere 1999; ``linalg.rref``), on primitive integer rows over Q and Qp, so
its entries are ratios of minors, and on rows of field scalars over GF(p)
and Q(t).  The rows go to ``rref`` as dicts column -> entry, and only the
target rows are back-substituted; the other pivot rows only serve the
elimination.  Each returned row joins through the maker, integer-backed
over Q and Qp, with its leading data recorded from a scan of the row.  The
lift (``lifting.lift_groebner``) reads its rows with the same routine.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dc_field

from .division import _combine, normal_form
from .hilbert import generic_dims, multiples
from .linalg import rref
from .polynomials import (
    Monomial,
    Polynomial,
    loop_element,
    loop_form,
    loop_polynomial,
    minimal_generators,
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
    """lc(g) * (lcm/lm(f)) * f  -  lc(f) * (lcm/lm(g)) * g, computed exactly.

    It is formed on the loop forms of f and g (``polynomials.loop_form``),
    with the products reduced mod p^m over Z/p^m and GF(p), and returned
    with its own loop form: integer-backed over Q and Qp."""
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial of a zero polynomial is undefined")
    _, lmf, _ = leading_term(f, order)
    _, lmg, _ = leading_term(g, order)
    lcm = mono_lcm(lmf, lmg)
    xf, xg = mono_div(lcm, lmf), mono_div(lcm, lmg)
    (F, nf, df), (G, ng, dg) = loop_form(f), loop_form(g)
    a, b = F[lmf], G[lmg]
    mod = f.field.modulus
    S = {}
    for m, c in F.items():
        c = b * c if mod is None else b * c % mod
        if c:  # a product can vanish mod p^m
            S[mono_mul(m, xf)] = c
    S = _combine(None, S, a, G, xg if any(xg) else None, mod)
    if nf is not None:  # b*x^xf*F - a*x^xg*G is sf*sg times the S-polynomial
        nf, df = nf * ng, df * dg
    return loop_polynomial(f.field, f.nvars, S, nf, df)


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
    progress=None,
) -> GroebnerBasis:
    """Complete homogeneous generators to a basis under a weighted order.

    Pairs are processed lowest lcm degree first (ties by the tiebreak order
    on the lcm, then index).  The generators and the remainders, a
    remainder as the division's u*r, join the basis through one maker,
    ``polynomials.loop_element``, and the ring picks the normalization.
    Over a field the element is made monic: over Q and Qp the S-polynomials
    are formed on the elements' primitive integer forms, and a remainder is
    made monic from the division's integer remainder.  Over Z/p^m with
    m > 1 its p-content is stripped first, and a remainder whose content
    reaches m/2 reads as zero.

    Wherever the division records states, over Qp and Q(t), the closed
    degrees are interreduced: before the first pair of degree d is popped,
    if an element has joined since the last such step, the elements below
    d are replaced by the reduced basis of the degrees below d, and the
    pairs of degree d and above are queued afresh.  The elements below d
    are then a truncated basis through degree d-1, so the later divisions
    run against small tails.  Stats count these steps as
    ``interreductions``.  The elements come out as the reduced ones in
    ascending degree, each degree in ``minimal_generators`` order, then the
    input generators not yet reached, in input order.  Over Q and GF(p) the
    division never records a state, and the rule stays off.

    Over every field each new element is a weak normal form, so its tail
    stays unreduced; over Z/p^m with m > 1 it is a strong one, whose
    p-content the maker reads (see the module docstring).  With
    at most n distinct generators in n variables, a pair that survives B1
    and B2 is skipped when the leading monomials already fill its degree d
    up to c_d; over Z/p^m too, where the certificate of the modular run's
    claim makes it sound (see the module docstring).  Stats count these as
    ``hilbert``.  c_d is set up when the first pair survives the criteria,
    and each degree's leading-ideal monomials are listed once and extended
    as elements join.
    ``use_criteria=False`` turns off B1, B2 and the Hilbert skip, so every
    pair is divided.  ``progress(done, remaining)`` is called once per popped
    pair, divided or skipped, with the pairs popped so far and still queued.
    """
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
        nf = loop_element(f.field, f.nvars, loop_form(f)[0], order)
        if nf.is_zero() or any(nf == g for g in G):
            continue
        G.append(nf)
    if not G:
        raise ValueError("need at least one nonzero generator")
    fld, n = G[0].field, G[0].nvars
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

    interreducing = fld.is_field and not fld.trivially_valued  # Qp and Q(t)
    joined = None  # the degree of the elements that joined since the last one
    counters = {"pairs": 0, "b1": 0, "b2": 0, "hilbert": 0, "reductions_to_zero": 0,
                "new_elements": 0, "interreductions": 0}

    # the Hilbert skip, set up when a pair first survives B1 and B2
    skipping = use_criteria and len(G) <= n
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
        closed = [k for k, lm in enumerate(lms) if mono_degree(lm) < d]
        closed_lms = [lms[k] for k in closed]
        above = [g for g, lm in zip(G, lms) if mono_degree(lm) >= d]
        G[:] = _reduce_by_elimination([G[k] for k in closed], closed_lms,
                                      minimal_generators(closed_lms), order) + above
        lms[:] = [leading_term(g, order)[1] for g in G]
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
            if s:  # u*remainder in the division's scalars
                r = normal_form(s, G, order, max_steps=max_steps,
                                max_coeff_bits=max_coeff_bits, weak=weak)._r
            if r:
                r = loop_element(fld, n, r, order)  # Z/p^m may read it as zero
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
    (``linalg.rref`` takes the row operation from the field); they go to
    ``rref`` as sparse rows, and only the target rows are back-substituted.
    Returns None unless the pivots are exactly the block; otherwise the
    element for target t (the targets lie in the block) is the maker's
    element of row t of the RREF (``polynomials.loop_element``): row t
    divided by its pivot entry when t is its leading monomial.  The maker
    scans the row for its leading monomial, so a wrong claim of the lift
    shows there, where its certificate reads it.  The RREF is unique, so
    neither the row order nor the order of the columns within and after the
    block matters.
    """
    index = {m: i for i, m in enumerate(block)}
    sparse = []
    for terms in rows:
        row = {}
        for m, c in terms.items():
            i = index.get(m)
            if i is None:
                i = index[m] = len(index)
            row[i] = c
        sparse.append(row)
    columns = list(index)
    reduced, pivots = rref(sparse, field, {index[t] for t in targets})
    if pivots != list(range(len(block))):
        return None
    return [loop_element(field, nvars, {columns[c]: v for c, v in reduced[index[t]].items()},
                         order) for t in targets]


def _reduce_by_elimination(elements: list, lms: list, targets: list,
                           order: WeightedOrder) -> list:
    """The reduced element of each target, one degree at a time.

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
    reducer = {lm: loop_form(g)[0] for lm, g in owner.items()}
    one = field.one()
    monic_at = {lm for lm, g in owner.items() if leading_term(g, order)[2] == one}
    out = []
    for d in sorted({mono_degree(t) for t in targets}):
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
