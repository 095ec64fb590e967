"""Sparse multivariate polynomials, monomials and classical term orders.

Monomials are exponent tuples; polynomials map monomials to nonzero field
scalars.  Polynomial values are immutable by convention: every operation
returns a fresh object and per-order leading data is memoized on instances.

Sums and products of term dicts {exponent tuple: field scalar} are written
once, in ``_add_terms`` and ``_mul_terms``.  ``Polynomial``'s ``+``, ``-``,
``*``, ``scale`` and ``mono_mul`` use them, and so does the expression
parser.  They drop every monomial whose scalar vanishes, including the
products of nonzero residues that vanish over Z/p^m.

The completion loop's element form is decided here and nowhere else.  Its
loop form (``loop_form``) is what the division, the S-polynomials and the
eliminations compute on: over Q and Qp the primitive integer form, integer
terms of content one with a scale num/den > 0 such that num/den * f =
terms, memoized on the polynomial; the terms themselves over every other
ring.  ``loop_polynomial`` turns a loop form back into a polynomial, and
``loop_element`` makes the normalized element of the ring from loop-form
terms, with its leading data recorded: the generators, every remainder and
every reduced row join the loop through it.  Over Q and Qp these are
``_IntegerBacked`` polynomials, held by their integer form, with Fraction
``terms`` built on first read.  Emptiness, degree, homogeneity and
equality between two of them are read off the integer form; every other
operation reads the Fraction terms.  Ordinary polynomials carry no part of
this.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd, lcm
from operator import add, le, sub
from typing import Iterator

from .fields import QQ, CoefficientField

Monomial = tuple


def mono_degree(m: Monomial) -> int:
    return sum(m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """Componentwise a - b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def minimal_generators(monomials: list) -> list[Monomial]:
    """Minimal generating set of the monomial ideal spanned by the input."""
    distinct = sorted(set(monomials), key=lambda m: (mono_degree(m), m))
    out = []
    for m in distinct:
        if not any(mono_divides(other, m) for other in out):
            out.append(m)
    return out


class _SortKeys(dict):
    """Monomial -> sort key of one (kind, priority), filled on first lookup.

    A table that reaches ``_SORT_KEYS_MAX`` entries starts afresh, so the
    tables, which live as long as the process, stay bounded.
    """

    __slots__ = ("kind", "priority")

    def __init__(self, kind: str, priority: tuple | None):
        super().__init__()
        self.kind = kind
        self.priority = priority

    def __missing__(self, m):
        pm = m if self.priority is None else tuple(m[i] for i in self.priority)
        if self.kind == "lex":
            key = pm
        else:
            key = (sum(pm), tuple(-e for e in reversed(pm)))
        if len(self) >= _SORT_KEYS_MAX:
            self.clear()
        self[m] = key
        return key


# (kind, priority) -> its key table, shared by all equal term orders
_SORT_KEYS: dict = {}
_SORT_KEYS_MAX = 1 << 16


@dataclass(frozen=True)
class TermOrder:
    """Classical monomial order: lex or grevlex, with a variable priority.

    ``priority`` lists variable indices from most to least significant;
    None means declaration order (0, 1, ..., n-1).  ``_keys`` is the sort-key
    table that all equal term orders share; it takes no part in equality or
    hashing.
    """

    kind: str
    priority: tuple | None = None
    _keys: dict = dc_field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex"):
            raise ValueError(f"unknown term order kind {self.kind!r}")
        if self.priority is not None:
            pr = tuple(self.priority)
            if sorted(pr) != list(range(len(pr))):
                raise ValueError("priority must be a permutation of variable indices")
            object.__setattr__(self, "priority", pr)
        spec = (self.kind, self.priority)
        keys = _SORT_KEYS.get(spec)
        if keys is None:
            keys = _SORT_KEYS[spec] = _SortKeys(*spec)
        object.__setattr__(self, "_keys", keys)

    def sort_key(self, m: Monomial):
        """Key that sorts monomials ascending in this order (larger key = larger)."""
        return self._keys[m]

    def compare(self, a: Monomial, b: Monomial) -> int:
        """+1 if a is larger, -1 if smaller, 0 if equal."""
        ka, kb = self.sort_key(a), self.sort_key(b)
        return (ka > kb) - (ka < kb)

    def label(self, names: list[str] | None = None) -> str:
        if self.priority is None:
            return self.kind
        if names is None:
            inner = ">".join(f"x{i + 1}" for i in self.priority)
        else:
            inner = ">".join(names[i] for i in self.priority)
        return f"{self.kind}[{inner}]"


LEX = TermOrder("lex")
GREVLEX = TermOrder("grevlex")


def _add_terms(field: CoefficientField, acc: dict, terms: dict, negate: bool = False) -> dict:
    """Add terms into the term dict acc (subtract them if negate), in place,
    and return acc; a sum that vanishes drops its monomial."""
    combine = field.sub if negate else field.add
    for m, c in terms.items():
        cur = acc.get(m)
        if cur is None:
            acc[m] = field.neg(c) if negate else c
        else:
            s = combine(cur, c)
            if field.is_zero(s):
                del acc[m]
            else:
                acc[m] = s
    return acc


def _mul_terms(field: CoefficientField, a: dict, b: dict) -> dict:
    """The product of two term dicts as a fresh dict.

    A one-term factor is a shift and a scaling, which skips multiplying by
    the field's one (found by identity) and shifting by the zero exponent.
    Products and sums that vanish, as nonzero residues can over Z/p^m, drop
    their monomials.
    """
    out = {}
    if len(a) == 1 or len(b) == 1:
        if len(a) != 1:
            a, b = b, a
        ((v, c1),) = a.items()
        one = field.one()
        shift = any(v)
        for m, c2 in b.items():
            c = c2 if c1 is one else c1 if c2 is one else field.mul(c1, c2)
            if not field.is_zero(c):
                out[tuple(map(add, m, v)) if shift else m] = c
        return out
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            prod = field.mul(c1, c2)
            cur = out.get(m)
            if cur is None:
                if not field.is_zero(prod):
                    out[m] = prod
            else:
                s = field.add(cur, prod)
                if field.is_zero(s):
                    del out[m]
                else:
                    out[m] = s
    return out


class Polynomial:
    """Sparse homogeneous-friendly polynomial over a coefficient field."""

    __slots__ = ("field", "nvars", "terms", "_cache")

    def __init__(self, field: CoefficientField, nvars: int, terms=None, *, _clean=False):
        self.field = field
        self.nvars = nvars
        if terms is None:
            terms = {}
        if _clean:
            self.terms = terms
        else:
            clean = {}
            for mono, c in dict(terms).items():
                mono = tuple(mono)
                if len(mono) != nvars or any(e < 0 for e in mono):
                    raise ValueError(f"bad exponent vector {mono} for {nvars} variables")
                c = field.coerce(c)
                if not field.is_zero(c):
                    clean[mono] = c
            self.terms = clean
        self._cache = {}

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars, {}, _clean=True)

    @classmethod
    def constant(cls, field, nvars, c):
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, field, nvars, i):
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(field, nvars, {mono: field.one()}, _clean=True)

    @classmethod
    def term(cls, field, nvars, mono, coeff):
        return cls(field, nvars, {tuple(mono): coeff})

    # -- basic queries --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self) -> int | None:
        if not self.terms:
            return None
        return max(mono_degree(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        cached = self._cache.get("homog")
        if cached is None:
            degs = {mono_degree(m) for m in self.terms}
            cached = len(degs) <= 1
            self._cache["homog"] = cached
        return cached

    def homogeneous_degree(self) -> int | None:
        """Common degree of all terms; None for the zero polynomial."""
        if not self.is_homogeneous():
            raise ValueError("polynomial is not homogeneous")
        return self.degree()

    # -- arithmetic -----------------------------------------------------------
    def _compat(self, other: "Polynomial"):
        if self.field != other.field:
            raise ValueError("coefficient field mismatch")
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._compat(other)
        out = _add_terms(self.field, dict(self.terms), other.terms)
        return Polynomial(self.field, self.nvars, out, _clean=True)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._compat(other)
        out = _add_terms(self.field, dict(self.terms), other.terms, negate=True)
        return Polynomial(self.field, self.nvars, out, _clean=True)

    def __neg__(self) -> "Polynomial":
        field = self.field
        return Polynomial(
            field, self.nvars, {m: field.neg(c) for m, c in self.terms.items()}, _clean=True
        )

    def scale(self, c) -> "Polynomial":
        field = self.field
        c = field.coerce(c)
        if field.is_zero(c):
            return Polynomial.zero(field, self.nvars)
        out = _mul_terms(field, {(0,) * self.nvars: c}, self.terms)
        return Polynomial(field, self.nvars, out, _clean=True)

    def mono_mul(self, v: Monomial, coeff=None) -> "Polynomial":
        """Multiply by the monomial x^v, optionally times a scalar."""
        field = self.field
        coeff = field.one() if coeff is None else field.coerce(coeff)
        out = _mul_terms(field, {tuple(v): coeff}, self.terms)
        return Polynomial(field, self.nvars, out, _clean=True)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._compat(other)
        out = _mul_terms(self.field, self.terms, other.terms)
        return Polynomial(self.field, self.nvars, out, _clean=True)

    def map_coefficients(self, fn, target_field=None) -> "Polynomial":
        field = target_field or self.field
        out = {}
        for m, c in self.terms.items():
            c2 = fn(c)
            if not field.is_zero(c2):
                out[m] = c2
        return Polynomial(field, self.nvars, out, _clean=True)

    # -- comparison -----------------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return poly_to_str(self)


class _IntegerBacked(Polynomial):
    """terms/s over Q or Qp, for a primitive integer term dict and s =
    num/den > 0 in lowest terms, kept as its ``"integer-terms"`` memo
    (terms, num, den).  That form is canonical, so two of them are equal
    exactly when their fields, variable counts and memos are."""

    __slots__ = ()

    def __init__(self, field, nvars: int, terms: dict, num: int, den: int):
        self.field = field
        self.nvars = nvars
        self._cache = {"integer-terms": (terms, num, den)}

    def __getattr__(self, name):
        """Reached for an attribute that normal lookup misses, as ``terms``
        is until its first read: the Fraction terms are built then and
        kept in the slot."""
        if name != "terms":
            raise AttributeError(name)
        ints, num, den = self._cache["integer-terms"]
        self.terms = terms = {m: Fraction(c * den, num) for m, c in ints.items()}
        return terms

    def is_zero(self) -> bool:
        return not self._cache["integer-terms"][0]

    def __bool__(self):
        return bool(self._cache["integer-terms"][0])

    def degree(self) -> int | None:
        ints = self._cache["integer-terms"][0]
        return max(map(mono_degree, ints)) if ints else None

    def is_homogeneous(self) -> bool:
        cached = self._cache.get("homog")
        if cached is None:
            degs = set(map(mono_degree, self._cache["integer-terms"][0]))
            cached = self._cache["homog"] = len(degs) <= 1
        return cached

    def __eq__(self, other):
        if type(other) is not _IntegerBacked:
            return Polynomial.__eq__(self, other)
        return (self.field == other.field and self.nvars == other.nvars
                and self._cache["integer-terms"] == other._cache["integer-terms"])

    __hash__ = Polynomial.__hash__


def _leading(terms: dict, fld, order):
    """(W, lm) of a nonempty term dict over fld under a weighted order: the
    least val(c) + w.m, ties going to the largest tiebreak key.

    This is the leading-term scan of ``weights.leading_term``, of the
    division loop, which keeps its running polynomial as a bare term dict,
    and of ``loop_element``; it reads loop-form terms (integers over Q and
    Qp, which ``fld.val`` reads unless the field is trivially valued).
    """
    val = None if fld.trivially_valued else fld.val
    ranks = order._ranks
    best_w = best_m = best_key = None
    for m, c in terms.items():
        wm, key = ranks[m]
        k = wm if val is None else val(c) + wm
        if best_m is None or k < best_w or (k == best_w and key > best_key):
            best_w, best_m, best_key = k, m, key
    return best_w, best_m


def loop_form(f: Polynomial) -> tuple:
    """(terms, num, den), the form the loops compute on: over Q and Qp s*f
    as a primitive integer term dict for the positive s = num/den in lowest
    terms, memoized on the (immutable) polynomial, which an integer-backed
    one holds from the start; (f.terms, None, None) over any other ring."""
    if not f.field.integral:
        return f.terms, None, None
    cached = f._cache.get("integer-terms")
    if cached is None:
        cs = f.terms.values()
        # coprime: a prime dividing every numerator divides no denominator
        L, G = lcm(*(c.denominator for c in cs)), gcd(*(c.numerator for c in cs))
        terms = {m: c.numerator * L // (c.denominator * G) for m, c in f.terms.items()}
        cached = f._cache["integer-terms"] = (terms, L, G)
    return cached


def loop_polynomial(field, nvars: int, terms: dict, num, den) -> Polynomial:
    """The polynomial terms*den/num of a loop form, which the polynomial
    keeps as its own: over Q and Qp, integer terms (of any content) and
    integers num != 0 and den > 0, held integer-backed; the terms
    themselves over any other ring, where num is None."""
    if num is None or not terms:
        return Polynomial(field, nvars, terms, _clean=True)
    c = gcd(*terms.values())
    if num < 0:
        num, c = -num, -c
    if c != 1:
        terms = {m: v // c for m, v in terms.items()}
    den *= abs(c)
    e = gcd(num, den)
    return _IntegerBacked(field, nvars, terms, num // e, den // e)


def loop_element(field, nvars: int, terms: dict, order) -> Polynomial:
    """The completion loop's normalized element for nonempty loop-form
    terms (see ``loop_form``), with its leading data under the order
    (W = w.lm, lm, lc = 1) recorded from one scan of the terms.

    The terms may be u*f for any unit u, as the division's remainders are;
    that changes neither the monic form over a field nor the p-content over
    Z/p^m.  Over a field the element is the monic multiple of the terms,
    integer-backed over Q and Qp.  Over Z/p^m (m > 1) the p-content p^s is
    stripped first.  A reduction that vanishes over Q shows up mod p^m with
    every coefficient carrying at least m minus a bounded number of
    p-powers, so stripping would promote pure truncation noise to a fake
    basis element: content at m/2 or above reads as zero, and the zero
    polynomial is returned.  False zeros are caught by the lift or its
    certificate and a larger m.
    """
    W, lm = _leading(terms, field, order)
    lc = terms[lm]
    if field.integral:
        f = loop_polynomial(field, nvars, terms, lc, 1)
    else:
        if not field.is_field:
            # dividing out p^s lowers every valuation by s, keeping lm; with
            # weight zero W is already the least valuation
            s = W if not any(order.weights) else min(map(field.val, terms.values()))
            if s >= max(1, field.m // 2):
                return Polynomial.zero(field, nvars)
            if s:
                q = field.p**s
                terms = {m: c // q for m, c in terms.items()}
                lc = terms[lm]
        if lc != field.one():
            inv = field.inv(lc)
            terms = {m: field.mul(inv, c) for m, c in terms.items()}
        f = Polynomial(field, nvars, terms, _clean=True)
    f._cache[order] = (order._ranks[lm][0], lm, field.one())
    return f


def _over_q(f: Polynomial) -> Polynomial:
    """f over the trivially valued Q, sharing its integer form, when f is
    over Q or Qp; f itself over any other field."""
    if not f.field.integral:
        return f
    return loop_polynomial(QQ, f.nvars, *loop_form(f))


def monomials_of_degree(nvars: int, d: int) -> list[Monomial]:
    """All degree-d monomials in nvars variables, sorted descending in grevlex."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    out = list(compositions(nvars, d))
    out.sort(key=GREVLEX._keys.__getitem__, reverse=True)
    return out


def compositions(nvars: int, d: int) -> Iterator[Monomial]:
    """All degree-d monomials in nvars variables, in no term order."""
    if nvars == 1:
        if d >= 0:
            yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in compositions(nvars - 1, d - first):
            yield (first,) + rest


def default_names(nvars: int) -> list[str]:
    return [f"x{i + 1}" for i in range(nvars)]


def poly_to_str(f: Polynomial, names: list[str] | None = None) -> str:
    """Deterministic text form; terms sorted descending in grevlex."""
    if f.is_zero():
        return "0"
    if names is None:
        names = default_names(f.nvars)
    monos = sorted(f.terms, key=GREVLEX._keys.__getitem__, reverse=True)
    parts = []
    for m in monos:
        neg, mag = f.field.format_coefficient(f.terms[m])
        if mono_degree(m) == 0:
            body = mag
        else:
            vars_part = "*".join(
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(m)
                if e > 0
            )
            body = vars_part if mag == "1" else f"{mag}*{vars_part}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("-" if neg else "+") + body)
    return "".join(parts)
