"""Independent reference implementations used only to check the package.

Everything here is deliberately self-contained: plain dict polynomials with
Fraction or mod-p arithmetic, classical long division by leading terms, and
an unoptimized completion loop without skip criteria.  None of it imports
the package's own division, basis or elimination machinery; the eager
tangent-cone division at the end uses only the package's polynomials and
leading terms.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


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


# -- linear algebra -----------------------------------------------------------


def gauss_jordan(rows):
    """Textbook Gauss-Jordan with the first nonzero entry as pivot.

    Entries are Fractions (ints are converted) or Q(t) elements; only
    + - * / and truth tests are used.  Returns (nonzero reduced rows in pivot
    order, pivot column indices).
    """
    m = [[c if hasattr(c, "num") else Fraction(c) for c in r] for r in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        k = len(pivots)
        r = next((i for i in range(k, len(m)) if m[i][col]), None)
        if r is None:
            continue
        m[k], m[r] = m[r], m[k]
        m[k] = [c / m[k][col] for c in m[k]]
        for i in range(len(m)):
            factor = m[i][col]
            if i != k and factor:
                m[i] = [a - factor * b for a, b in zip(m[i], m[k])]
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
    if hasattr(c, "num"):  # rational function
        return max(fr.numerator.bit_length() + fr.denominator.bit_length()
                   for part in (c.num, c.den) for fr in part)
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
