"""Independent reference implementations used only to check the package.

Everything here is deliberately self-contained: plain dict polynomials with
Fraction or mod-p arithmetic, classical long division by leading terms, and
an unoptimized completion loop without skip criteria.  None of it imports
the package's own division, basis or elimination machinery, except the
earlier package algorithms kept as references for their replacements: the
eager tangent-cone division uses only the package's polynomials and leading
terms, the division tail reduction and the Fraction completion loop use the
package's division, and the Polynomial-product expression parser and the
cardinality sampler use only the package's polynomials and fields.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm


# -- tiny coefficient helpers -------------------------------------------------


class OracleField:
    """Fractions when p is None, integers mod p otherwise."""

    def __init__(self, p=None):
        self.p = p

    def norm(self, c):
        return c % self.p if self.p else Fraction(c)

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def div(self, a, b):
        if self.p:
            return a * pow(b, -1, self.p) % self.p
        return a / b

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    def is_zero(self, a):
        return (a % self.p == 0) if self.p else a == 0


# -- monomial orders ----------------------------------------------------------


def lex_greater(a, b, priority):
    pa = tuple(a[i] for i in priority)
    pb = tuple(b[i] for i in priority)
    return pa > pb


def grevlex_greater(a, b, priority):
    pa = tuple(a[i] for i in priority)
    pb = tuple(b[i] for i in priority)
    if sum(pa) != sum(pb):
        return sum(pa) > sum(pb)
    for x, y in zip(reversed(pa), reversed(pb)):
        if x != y:
            return x < y
    return False


def make_greater(kind, priority):
    if kind == "lex":
        return lambda a, b: lex_greater(a, b, priority)
    return lambda a, b: grevlex_greater(a, b, priority)


# -- dict polynomials ---------------------------------------------------------


def clean(terms, field):
    return {m: c for m, c in terms.items() if not field.is_zero(c)}


def leading_monomial(f, greater):
    best = None
    for m in f:
        if best is None or greater(m, best):
            best = m
    return best


def sub_scaled(f, g, coeff, shift, field):
    """f - coeff * x^shift * g."""
    out = dict(f)
    for m, c in g.items():
        key = tuple(a + b for a, b in zip(m, shift))
        out[key] = field.sub(out.get(key, field.norm(0)), field.mul(coeff, c))
    return clean(out, field)


def divide(f, basis, greater, field):
    """Classical multivariate long division; remainder only."""
    rem = {}
    work = dict(f)
    while work:
        lm = leading_monomial(work, greater)
        lc = work[lm]
        hit = None
        for g in basis:
            lmg = leading_monomial(g, greater)
            if all(x <= y for x, y in zip(lmg, lm)):
                hit = (g, lmg)
                break
        if hit is None:
            rem[lm] = lc
            del work[lm]
        else:
            g, lmg = hit
            shift = tuple(a - b for a, b in zip(lm, lmg))
            work = sub_scaled(work, g, field.div(lc, g[lmg]), shift, field)
    return rem


def s_poly(f, g, greater, field):
    lmf = leading_monomial(f, greater)
    lmg = leading_monomial(g, greater)
    lcm = tuple(max(a, b) for a, b in zip(lmf, lmg))
    sf = tuple(a - b for a, b in zip(lcm, lmf))
    sg = tuple(a - b for a, b in zip(lcm, lmg))
    left = {tuple(a + b for a, b in zip(m, sf)): field.mul(c, g[lmg]) for m, c in f.items()}
    return sub_scaled(left, g, field.mul(f[lmf], field.norm(1)), sg, field)


def buchberger_reference(gens, kind="grevlex", priority=None, p=None):
    """Unoptimized completion loop, then minimal monic tail-reduced basis."""
    field = OracleField(p)
    gens = [clean(dict(g), field) for g in gens]
    gens = [g for g in gens if g]
    if not gens:
        return []
    nvars = len(next(iter(gens[0])))
    priority = tuple(priority) if priority is not None else tuple(range(nvars))
    greater = make_greater(kind, priority)

    basis = list(gens)
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop(0)
        s = s_poly(basis[i], basis[j], greater, field)
        if not s:
            continue
        r = divide(s, basis, greater, field)
        if r:
            basis.append(r)
            pairs.extend((i, len(basis) - 1) for i in range(len(basis) - 1))

    # minimalize
    lms = [leading_monomial(g, greater) for g in basis]
    keep = []
    for i, lm in enumerate(lms):
        if any(
            k != i and all(x <= y for x, y in zip(lms[k], lm))
            and (lms[k] != lm or k < i)
            for k in range(len(basis))
        ):
            continue
        keep.append(i)
    minimal = [basis[i] for i in keep]
    # tail-reduce and make monic
    reduced = []
    for i, g in enumerate(minimal):
        others = [h for k, h in enumerate(minimal) if k != i]
        lm = leading_monomial(g, greater)
        tail = {m: c for m, c in g.items() if m != lm}
        rest = divide(tail, others, greater, field) if others else tail
        full = dict(rest)
        full[lm] = g[lm]
        lc = full[lm]
        reduced.append({m: field.div(c, lc) for m, c in full.items()})
    reduced.sort(key=lambda g: sorted(g))
    return reduced


def reference_leading_monomials(gens, kind="grevlex", priority=None, p=None):
    field = OracleField(p)
    out = buchberger_reference(gens, kind, priority, p)
    nvars = len(next(iter(out[0]))) if out else 0
    greater = make_greater(kind, tuple(priority) if priority else tuple(range(nvars)))
    return sorted(leading_monomial(g, greater) for g in out)


def brute_force_contains_monomial(gens, p=None, kind="grevlex"):
    """Enumerate monomials up to twice the max generator degree and test
    membership by long division against a reference basis."""
    field = OracleField(p)
    gens = [clean(dict(g), field) for g in gens]
    gens = [g for g in gens if g]
    if not gens:
        return False
    nvars = len(next(iter(gens[0])))
    maxdeg = max(sum(m) for g in gens for m in g)
    basis = buchberger_reference(gens, kind, None, p)
    greater = make_greater(kind, tuple(range(nvars)))
    for d in range(0, 2 * maxdeg + 1):
        for mono in _monomials(nvars, d):
            f = {mono: field.norm(1)}
            if not divide(f, basis, greater, field):
                return True
    return False


def _monomials(nvars, d):
    if nvars == 1:
        if d >= 0:
            yield (d,)
        return
    for first in range(d + 1):
        for rest in _monomials(nvars - 1, d - first):
            yield (first,) + rest


# -- truncated Taylor series over Q -------------------------------------------


def series_valuation(num_coeffs, den_coeffs, order=50):
    """t-adic valuation of num/den read off a truncated power series.

    Inputs are low-to-high coefficient sequences.  The denominator's t-power
    is stripped first; the rest is inverted as a power series, multiplied by
    the numerator, and the index of the first nonzero coefficient (shifted
    back by the stripped power) is the valuation.  None if everything within
    the truncation order vanishes.
    """
    num = [Fraction(c) for c in num_coeffs]
    den = [Fraction(c) for c in den_coeffs]
    stripped = 0
    while den and den[0] == 0:
        den.pop(0)
        stripped += 1
    if not den:
        raise ZeroDivisionError("zero denominator")
    inv = [Fraction(0)] * order
    inv[0] = 1 / den[0]
    for k in range(1, order):
        acc = Fraction(0)
        for i in range(1, min(k, len(den) - 1) + 1):
            acc -= den[i] * inv[k - i]
        inv[k] = acc / den[0]
    prod = [Fraction(0)] * order
    for i, c in enumerate(num):
        if c == 0 or i >= order:
            continue
        for j in range(order - i):
            prod[i + j] += c * inv[j]
    for k, c in enumerate(prod):
        if c != 0:
            return k - stripped
    return None


# -- rational functions over Q as Fraction tuples --------------------------------
#
# The package's earlier Q(t) arithmetic, kept as the reference for RatFunc:
# dense tuples of Fraction (low degree first), Euclid over Q for the gcd, and
# the canonical pair (num, den) with gcd 1 and den monic.


def _tp(coeffs) -> tuple:
    """Trim trailing zeros; canonical tuple form of a t-polynomial."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _tp_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _tp(out)


def _tp_neg(a):
    return tuple(-c for c in a)


def _tp_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _tp(out)


def _tp_divmod(a, b):
    rem = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    db = len(b) - 1
    for k in range(len(rem) - 1, db - 1, -1):
        if rem[k] == 0:
            continue
        c = rem[k] / b[-1]
        quo[k - db] = c
        for i in range(db + 1):
            rem[k - db + i] -= c * b[i]
    return _tp(quo), _tp(rem)


def _tp_gcd(a, b):
    while b:
        a, b = b, _tp_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a)  # monic


def tp_canonical(num, den=(1,)):
    """(num, den) over Q with gcd 1 and den monic; zero is ((), (1,))."""
    num, den = _tp(num), _tp(den)
    if not den:
        raise ZeroDivisionError("rational function with zero denominator")
    if not num:
        return (), (Fraction(1),)
    g = _tp_gcd(num, den)
    if len(g) > 1:
        num, den = _tp_divmod(num, g)[0], _tp_divmod(den, g)[0]
    lead = den[-1]
    return tuple(c / lead for c in num), tuple(c / lead for c in den)


def tp_add(x, y):
    return tp_canonical(_tp_add(_tp_mul(x[0], y[1]), _tp_mul(y[0], x[1])),
                        _tp_mul(x[1], y[1]))


def tp_sub(x, y):
    return tp_add(x, (_tp_neg(y[0]), y[1]))


def tp_mul(x, y):
    return tp_canonical(_tp_mul(x[0], y[0]), _tp_mul(x[1], y[1]))


def tp_div(x, y):
    return tp_canonical(_tp_mul(x[0], y[1]), _tp_mul(x[1], y[0]))


# -- linear algebra -----------------------------------------------------------


def gauss_jordan(rows, prime=None):
    """Textbook Gauss-Jordan with the first nonzero entry as pivot.

    Entries are Fractions (ints are converted) or Q(t) elements; only
    + - * / and truth tests are used.  With ``prime`` the entries are ints
    read in GF(prime), and each result entry is reduced into [0, prime).
    Returns (nonzero reduced rows in pivot order, pivot column indices).
    """
    if prime is None:
        m = [[c if hasattr(c, "num") else Fraction(c) for c in r] for r in rows]
    else:
        m = [[c % prime for c in r] for r in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        k = len(pivots)
        r = next((i for i in range(k, len(m)) if m[i][col]), None)
        if r is None:
            continue
        m[k], m[r] = m[r], m[k]
        if prime is None:
            m[k] = [c / m[k][col] for c in m[k]]
        else:
            inv = pow(m[k][col], -1, prime)
            m[k] = [c * inv % prime for c in m[k]]
        for i in range(len(m)):
            factor = m[i][col]
            if i != k and factor:
                m[i] = [a - factor * b for a, b in zip(m[i], m[k])]
                if prime is not None:
                    m[i] = [c % prime for c in m[i]]
        pivots.append(col)
    return m[: len(pivots)], pivots


def bareiss_rank(rows):
    """Rank of integer rows by forward fraction-free elimination (Bareiss
    1968): row r becomes (pivot * r - r[col] * pivot_row) / previous pivot,
    an exact division; rows above a pivot are left alone."""
    m = [list(r) for r in rows if any(r)]
    rank, prev = 0, 1
    for col in range(len(m[0]) if m else 0):
        found = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if found is None:
            continue
        m[rank], m[found] = m[found], m[rank]
        top, pivot = m[rank], m[rank][col]
        for mr in m[rank + 1:]:
            f = mr[col]
            for c in range(col, len(mr)):
                mr[c] = (pivot * mr[c] - f * top[c]) // prev
        rank += 1
        prev = pivot
    return rank


def macaulay_dim(F, d):
    """dim <F>_d as the rank of the coefficient matrix of F's degree-d multiples.

    F holds homogeneous polynomials with Fraction (Q, Qp) or Q(t)
    coefficients; only their term dicts are read.  Rational rows are scaled
    to integers and ranked by ``bareiss_rank``, Q(t) rows by ``gauss_jordan``.
    """
    gens = [dict(f.terms) for f in F if f.terms]
    if not gens:
        return 0
    sample = next(iter(gens[0].values()))
    rational = not hasattr(sample, "num")
    nvars = len(next(iter(gens[0])))
    index = {m: i for i, m in enumerate(_monomials(nvars, d))}
    zero = 0 if rational else sample - sample
    rows = []
    for terms in gens:
        shift = d - sum(next(iter(terms)))
        if shift < 0:
            continue
        if rational:
            k = lcm(*(c.denominator for c in terms.values()))
            terms = {m: int(c * k) for m, c in terms.items()}
        for v in _monomials(nvars, shift):
            row = [zero] * len(index)
            for m, c in terms.items():
                row[index[tuple(a + b for a, b in zip(m, v))]] = c
            rows.append(row)
    if not rows:
        return 0
    return bareiss_rank(rows) if rational else len(gauss_jordan(rows)[1])


# -- eager division -------------------------------------------------------------


class EagerBlowup(RuntimeError):
    """The eager division's leading coefficient outgrew its bit budget."""


def _eager_bits(c):
    if isinstance(c, int):
        return c.bit_length()
    if hasattr(c, "numerator"):
        return c.numerator.bit_length() + c.denominator.bit_length()
    if hasattr(c, "num"):  # rational function: all coefficients of the
        # primitive integer numerator and denominator, at least 1 bit each
        parts = c.num + c.den
        common = lcm(*(fr.denominator for fr in parts))
        ints = [fr.numerator * (common // fr.denominator) for fr in parts]
        content = gcd(*ints)
        return sum((x // content).bit_length() or 1 for x in ints)
    return 0


def eager_normal_form(f, divisors, order, max_coeff_bits=None):
    """The tangent-cone division that inverts at every recorded-state step.

    This is the package's earlier division loop, kept as the reference for
    the lazy-unit one: after dividing by a recorded state with coefficient c
    it rescales q, r and every quotient by 1/(1 - c), so the state always
    satisfies f = sum h_i g_i + q + r.  It uses only the package's polynomial
    and leading-term layers, with the support-count ecart.

    Returns (quotients, remainder, step count, trace), where trace lists
    (q, r, action, |T|) per step; raises EagerBlowup with the package's
    message when max_coeff_bits is exceeded.
    """
    from valgb.fields import INF
    from valgb.polynomials import Polynomial, mono_div, mono_divides
    from valgb.weights import leading_term

    fld, n = f.field, f.nvars
    # entries: [poly, lm, lc, support, original index, h snapshot, r snapshot]
    T = []
    for i, g in enumerate(divisors):
        _, lm, lc = leading_term(g, order)
        T.append((g, lm, lc, frozenset(g.terms), i, None, None))
    h = [Polynomial.zero(fld, n) for _ in divisors]
    r = Polynomial.zero(fld, n)
    q = f
    steps = 0
    log = []
    while not q.is_zero():
        q_start, r_start = q, r
        _, lmq, lcq = leading_term(q, order)
        if max_coeff_bits is not None and _eager_bits(lcq) > max_coeff_bits:
            raise EagerBlowup(
                f"leading coefficient exceeded {max_coeff_bits} bits after {steps} steps"
            )
        best, best_key = None, None
        for idx, entry in enumerate(T):
            if not mono_divides(entry[1], lmq):
                continue
            key = (len(entry[3] - q.terms.keys()), 0 if entry[4] is not None else 1, idx)
            if best_key is None or key < best_key:
                best, best_key = entry, key
        state = (q, lmq, lcq, frozenset(q.terms), None, list(h), r)
        if best is None:
            T.append(state)
            lead = Polynomial.term(fld, n, lmq, lcq)
            r, q = r + lead, q - lead
            action = "remainder"
        else:
            if best_key[0] > 0:
                T.append(state)
            poly, lm, lc, _, i, snap_h, snap_r = best
            xv = mono_div(lmq, lm)
            c = fld.div(lcq, lc)
            if i is not None:
                q = q - poly.mono_mul(xv, c)
                h[i] = h[i] + Polynomial.term(fld, n, xv, c)
                action = "divide"
            else:
                v = fld.val(c)
                assert not any(xv) and v is not INF and v > 0
                inv = fld.inv(fld.sub(fld.one(), c))
                q = (q - poly.scale(c)).scale(inv)
                h = [(a - b.scale(c)).scale(inv) for a, b in zip(h, snap_h)]
                r = (r - snap_r.scale(c)).scale(inv)
                action = "divide-recorded"
        log.append((q_start, r_start, action, len(T)))
        steps += 1
    return h, r, steps, log


# -- tail reduction by division ---------------------------------------------------


def division_reduce_basis(gb, *, max_steps=1_000_000, max_coeff_bits=None):
    """The unique reduced basis: minimal leading monomials, monic, tail-reduced.

    This is the package's earlier ``reduce_basis``, kept as the reference for
    the elimination one; only ``max_coeff_bits`` is new, and it is passed to
    every division.  For each minimal leading monomial x^u the element
    x^u - r is emitted, where r is the normal form of x^u against the full
    basis; its support therefore avoids every other leading monomial.
    """
    from valgb.division import normal_form
    from valgb.groebner import GroebnerBasis, minimal_generators, sort_basis
    from valgb.polynomials import Polynomial
    from valgb.weights import leading_term

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
        r = normal_form(target, elements, order, max_steps=max_steps,
                        max_coeff_bits=max_coeff_bits).remainder
        out.append(target - r)
    return GroebnerBasis(sort_basis(out, order), order)


# -- Fraction completion loop ---------------------------------------------------


def _oracle_reduced_degree(elements, lms, targets, e):
    """The reduced elements of degree e for the targets of degree e, read off
    the Gauss-Jordan form of every degree-e multiple of the elements (a
    truncated basis through degree e), with the leading-ideal monomials as
    the first columns: each target's row is the target plus standard
    monomials only."""
    from valgb.polynomials import Polynomial

    field, n = elements[0].field, elements[0].nvars
    monos = list(_monomials(n, e))
    in_ideal = [m for m in monos
                if any(all(a <= b for a, b in zip(lm, m)) for lm in lms)]
    columns = in_ideal + [m for m in monos if m not in in_ideal]
    index = {m: c for c, m in enumerate(columns)}
    rows = []
    for g in elements:
        for v in _monomials(n, e - g.degree()):
            row = [0] * len(columns)
            for u, c in g.terms.items():
                row[index[tuple(x + y for x, y in zip(u, v))]] = c
            rows.append(row)
    reduced, pivots = gauss_jordan(rows)
    assert pivots == list(range(len(in_ideal))), "not a truncated basis"
    return [Polynomial(field, n, {columns[c]: x for c, x in enumerate(reduced[index[t]]) if x})
            for t in targets if sum(t) == e]


def _oracle_generic_dim(degrees, n, d):
    """dim S_d minus the t^d coefficient of prod(1 - t^e) / (1 - t)^n, the
    series truncated after t^d and divided by 1 - t as n prefix sums."""
    series = [1] + [0] * d
    for e in degrees:
        series = [c - (series[k - e] if k >= e else 0) for k, c in enumerate(series)]
    for _ in range(n):
        series = list(accumulate(series))
    return len(list(_monomials(n, d))) - series[d]


def _oracle_leading_dim(lms, n, d):
    """The degree-d monomials some leading monomial divides, enumerated."""
    return sum(any(all(a <= b for a, b in zip(lm, m)) for lm in lms)
               for m in _monomials(n, d))


def _oracle_top_reduction(f, G, order, max_steps, max_coeff_bits):
    """Cancel the leading term of f against G while some leading monomial
    divides it, on Fraction polynomials: the weak normal form.  The divisor
    has the fewest monomials outside f's support, then the lowest index;
    the budgets raise the package's exceptions with its messages."""
    from valgb.division import CoefficientBlowup, StepBudgetExceeded
    from valgb.weights import leading_term

    heads = [leading_term(g, order)[1:] for g in G]
    q, steps = f, 0
    while not q.is_zero():
        if steps >= max_steps:
            raise StepBudgetExceeded(f"division did not finish within {max_steps} steps")
        _, lm, lc = leading_term(q, order)
        if (max_coeff_bits is not None
                and lc.numerator.bit_length() + lc.denominator.bit_length() > max_coeff_bits):
            raise CoefficientBlowup(
                f"leading coefficient exceeded {max_coeff_bits} bits after {steps} steps")
        choices = [(len(g.terms.keys() - q.terms.keys()), k) for k, g in enumerate(G)
                   if all(a <= b for a, b in zip(heads[k][0], lm))]
        if not choices:
            return q
        k = min(choices)[1]
        g_lm, g_lc = heads[k]
        q = q - G[k].mono_mul(tuple(a - b for a, b in zip(lm, g_lm)), lc / g_lc)
        steps += 1
    return q


def fraction_s_polynomial(f, g, order):
    """lc(g) * (lcm/lm(f)) * f  -  lc(f) * (lcm/lm(g)) * g on the Fraction
    polynomials: the package's earlier ``s_polynomial``."""
    from valgb.polynomials import mono_div, mono_lcm
    from valgb.weights import leading_term

    _, lmf, lcf = leading_term(f, order)
    _, lmg, lcg = leading_term(g, order)
    lcm = mono_lcm(lmf, lmg)
    return f.mono_mul(mono_div(lcm, lmf), lcg) - g.mono_mul(mono_div(lcm, lmg), lcf)


def fraction_buchberger(generators, order, *, use_criteria=True,
                        max_steps=1_000_000, max_coeff_bits=None):
    """The package's earlier completion loop, kept as the reference for the
    integer one over Q and Qp: Fraction S-polynomials
    (``fraction_s_polynomial``), a weak normal form of each, and ``monic``.
    Over Qp the remainder is the Fraction remainder of the package's division
    with ``weak=True``; over Q it is ``_oracle_top_reduction``'s.

    Over Qp it interreduces the closed degrees as ``buchberger`` does, each
    degree by ``_oracle_reduced_degree``: before the first pair of degree d,
    if an element joined since the last such step, the elements of degree
    below d become the reduced ones (ascending degree, then exponent tuple)
    and the pairs of degree d and above are queued afresh.

    With the criteria on and at most n distinct generators in n variables,
    a pair that survives B1 and B2 is skipped (counted as ``hilbert``) when
    the leading monomials fill its degree d up to the count c_d of generic
    forms of the generators' degrees (``_oracle_generic_dim``).

    Returns (elements, stats) as ``buchberger`` returns them in its
    ``GroebnerBasis``.
    """
    import heapq

    from valgb.division import normal_form
    from valgb.fields import QpField
    from valgb.groebner import CriticalPair, criterion_b1, criterion_b2, monic
    from valgb.polynomials import mono_degree, mono_lcm
    from valgb.weights import leading_term

    G = []
    for f in generators:
        if f.is_zero():
            continue
        nf = monic(f, order)
        if not any(nf == g for g in G):
            G.append(nf)
    lms = [leading_term(g, order)[1] for g in G]
    heap, pending = [], set()

    def push_pairs(j, lowest=0):
        for i in range(j):
            lcm = mono_lcm(lms[i], lms[j])
            if mono_degree(lcm) >= lowest:
                heapq.heappush(heap, (mono_degree(lcm), order.tiebreak.sort_key(lcm), i, j))
                pending.add((i, j))

    for j in range(len(G)):
        push_pairs(j)
    stats = {"pairs": 0, "b1": 0, "b2": 0, "hilbert": 0, "reductions_to_zero": 0,
             "new_elements": 0, "interreductions": 0}
    qp = isinstance(G[0].field, QpField)
    n = order.nvars
    degrees = [g.degree() for g in G] if use_criteria and len(G) <= n else None
    reduced_below, joined = 0, None
    while heap:
        d = heap[0][0]
        if qp and joined is not None and d > joined:
            closed = [(g, lm) for g, lm in zip(G, lms) if sum(lm) < d]
            closed_lms = [lm for _, lm in closed]
            targets = sorted({m for m in closed_lms if not any(
                o != m and all(a <= b for a, b in zip(o, m)) for o in closed_lms)},
                key=lambda m: (sum(m), m))
            kept = [g for g, lm in closed if sum(lm) < reduced_below]
            for e in sorted({sum(t) for t in targets if sum(t) >= reduced_below}):
                kept += _oracle_reduced_degree(
                    [g for g, lm in closed if sum(lm) <= e], closed_lms, targets, e)
            G = kept + [g for g, lm in zip(G, lms) if sum(lm) >= d]
            lms = [leading_term(g, order)[1] for g in G]
            heap, pending = [], set()
            for j in range(len(G)):
                push_pairs(j, d)
            stats["interreductions"] += 1
            reduced_below, joined = d, None
        d, _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        stats["pairs"] += 1
        pair = CriticalPair(i, j, lms[i], lms[j], mono_lcm(lms[i], lms[j]))
        if use_criteria and criterion_b1(pair):
            stats["b1"] += 1
            continue
        if use_criteria and criterion_b2(pair, lms, pending):
            stats["b2"] += 1
            continue
        if degrees is not None and (_oracle_leading_dim(lms, n, d)
                                    == _oracle_generic_dim(degrees, n, d)):
            stats["hilbert"] += 1
            continue
        s = fraction_s_polynomial(G[i], G[j], order)
        if s.is_zero():
            r = s
        elif qp:
            r = normal_form(s, G, order, max_steps=max_steps,
                            max_coeff_bits=max_coeff_bits, weak=True).remainder
        else:
            r = _oracle_top_reduction(s, G, order, max_steps, max_coeff_bits)
        if r.is_zero():
            stats["reductions_to_zero"] += 1
            continue
        G.append(monic(r, order))
        lms.append(leading_term(G[-1], order)[1])
        stats["new_elements"] += 1
        joined = sum(lms[-1])
        push_pairs(len(G) - 1)
    return G, stats


def fraction_is_basis_of(elements, generators, order, max_coeff_bits=None):
    """The package's earlier ``is_basis_of``: every generator and every S-pair
    not skipped by criterion B1 has a zero weak normal form, with Fraction
    S-polynomials."""
    from functools import partial

    from valgb.division import normal_form as nf
    from valgb.groebner import CriticalPair, criterion_b1
    from valgb.polynomials import mono_lcm
    from valgb.weights import leading_term

    G = list(elements)
    normal_form = partial(nf, max_coeff_bits=max_coeff_bits, weak=True)
    if any(not normal_form(f, G, order).remainder.is_zero()
           for f in generators if not f.is_zero()):
        return False
    lms = [leading_term(g, order)[1] for g in G]
    for j in range(len(G)):
        for i in range(j):
            if criterion_b1(CriticalPair(i, j, lms[i], lms[j], mono_lcm(lms[i], lms[j]))):
                continue
            s = fraction_s_polynomial(G[i], G[j], order)
            if not s.is_zero() and not normal_form(s, G, order).remainder.is_zero():
                return False
    return True


# -- Polynomial-product expression parser ---------------------------------------


def oracle_parse_polynomial(text, field, names, line=1, col=1):
    """The package's earlier expression parser, kept as the reference for the
    term-dict one: a character-by-character tokenizer (``str.isdigit``
    integers) and one ``Polynomial`` per atom, with ``m^k`` as k products."""
    from dataclasses import dataclass

    from valgb.fields import RationalFunctionField
    from valgb.parsing import ParseError
    from valgb.polynomials import Polynomial

    symbols = {"^": "CARET", "*": "STAR", "/": "SLASH", "+": "PLUS", "-": "MINUS",
               "(": "LPAR", ")": "RPAR"}

    @dataclass
    class Token:
        kind: str
        text: str
        line: int
        col: int

    def tokenize(text, line, col):
        tokens = []
        i = 0
        cur_col = col
        while i < len(text):
            ch = text[i]
            if ch in " \t":
                i += 1
                cur_col += 1
                continue
            if ch in symbols:
                tokens.append(Token(symbols[ch], ch, line, cur_col))
                i += 1
                cur_col += 1
                continue
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                tokens.append(Token("INT", text[i:j], line, cur_col))
                cur_col += j - i
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                tokens.append(Token("NAME", text[i:j], line, cur_col))
                cur_col += j - i
                i = j
                continue
            raise ParseError(f"unexpected character {ch!r}", line, cur_col)
        tokens.append(Token("EOF", "", line, cur_col))
        return tokens

    tokens = tokenize(text, line, col)
    pos = 0
    nvars = len(names)
    var_index = {name: i for i, name in enumerate(names)}
    t_is_scalar = isinstance(field, RationalFunctionField) and "t" not in var_index

    def peek():
        return tokens[pos]

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def error(message):
        raise ParseError(message, peek().line, peek().col)

    def sign_run():
        sign = 1
        while peek().kind in ("PLUS", "MINUS"):
            if take().kind == "MINUS":
                sign = -sign
        return sign

    def expr():
        sign = sign_run()
        acc = term()
        if sign < 0:
            acc = -acc
        while peek().kind in ("PLUS", "MINUS"):
            sign = sign_run()
            t = term()
            acc = acc + t if sign > 0 else acc - t
        return acc

    def term():
        acc = power()
        while True:
            kind = peek().kind
            if kind == "STAR":
                take()
                acc = acc * power()
            elif kind == "SLASH":
                tok = take()
                den = power()
                if den.is_zero():
                    raise ParseError("division by zero", tok.line, tok.col)
                if [m for m in den.terms if any(m)]:
                    raise ParseError(
                        "can only divide by a constant (scalar) expression", tok.line, tok.col
                    )
                acc = acc.scale(field.inv(next(iter(den.terms.values()))))
            elif kind in ("INT", "NAME", "LPAR"):
                acc = acc * power()
            else:
                return acc

    def power():
        base = atom()
        if peek().kind == "CARET":
            take()
            tok = peek()
            if tok.kind != "INT":
                error("expected a nonnegative integer exponent")
            take()
            out = Polynomial.constant(field, nvars, field.one())
            for _ in range(int(tok.text)):
                out = out * base
            return out
        return base

    def atom():
        tok = peek()
        if tok.kind == "INT":
            take()
            return Polynomial.constant(field, nvars, int(tok.text))
        if tok.kind == "NAME":
            take()
            idx = var_index.get(tok.text)
            if idx is not None:
                return Polynomial.variable(field, nvars, idx)
            if tok.text == "t" and t_is_scalar:
                return Polynomial.constant(field, nvars, field.phi(1))
            raise ParseError(f"unknown variable {tok.text!r}", tok.line, tok.col)
        if tok.kind == "LPAR":
            take()
            inner = expr()
            if peek().kind != "RPAR":
                error("expected ')'")
            take()
            return inner
        error(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input")

    poly = expr()
    if peek().kind != "EOF":
        error(f"unexpected {peek().text!r}")
    return poly


# -- cardinality sampling -------------------------------------------------------


def oracle_sample_pair(e, rng, height=20):
    """The package's earlier ``sample_pair``, which rebuilds its list of odd or
    even values for every coefficient it draws."""
    from valgb.fields import Qp
    from valgb.polynomials import Polynomial, monomials_of_degree

    d = 2 * e
    monos = monomials_of_degree(3, d)
    x1d, x2e3e = (d, 0, 0), (0, e, e)

    def odd():
        return rng.choice([c for c in range(-height, height + 1) if c % 2 == 1])

    def even():
        return rng.choice([c for c in range(-height, height + 1) if c % 2 == 0 and c != 0])

    f_terms = {m: (odd() if m == x1d else even()) for m in monos}
    g_terms = {m: (odd() if m == x2e3e else even()) for m in monos}
    return Polynomial(Qp(2), 3, f_terms), Polynomial(Qp(2), 3, g_terms)


# -- Q(t) text from Fraction views ----------------------------------------------


def _fraction_t_text(coeffs):
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = -c if c < 0 else c
        body = str(mag) if k == 0 else ("t" if k == 1 else f"t^{k}")
        if k and mag != 1:
            body = f"{mag}*{body}"
        parts.append(("-" if c < 0 else ("+" if parts else "")) + body)
    return "".join(parts) or "0"


def fraction_format_coefficient(a):
    """The package's earlier ``format_coefficient`` over Q(t), read off the
    Fraction views ``num`` and ``den`` (numerator over a monic denominator)."""
    num, den = a.num, a.den
    low = next((c for c in num if c != 0), 0)
    neg = low < 0
    if neg:
        num = tuple(-c for c in num)
    if den == (Fraction(1),):
        body = _fraction_t_text(num)
        if sum(1 for c in num if c != 0) > 1:
            body = f"({body})"
        return neg, body
    return neg, f"({_fraction_t_text(num)})/({_fraction_t_text(den)})"


def fraction_ratfunc_repr(a):
    """The earlier ``repr`` of a ``RatFunc``, from its Fraction views."""
    num, den = a.num, a.den
    if den == (Fraction(1),):
        return _fraction_t_text(num)
    return f"({_fraction_t_text(num)})/({_fraction_t_text(den)})"
