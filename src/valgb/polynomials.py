"""Sparse multivariate polynomials, monomials and classical term orders.

Monomials are exponent tuples; polynomials map monomials to nonzero field
scalars.  Polynomial values are immutable by convention: every operation
returns a fresh object and per-order leading data is memoized on instances.

Sums and products of term dicts {exponent tuple: field scalar} are written
once, in ``_add_terms`` and ``_mul_terms``.  ``Polynomial``'s ``+``, ``-``,
``*``, ``scale`` and ``mono_mul`` use them, and so does the expression
parser.  They drop every monomial whose scalar vanishes, including the
products of nonzero residues that vanish over Z/p^m.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from operator import add, le, sub
from typing import Iterator

from .fields import CoefficientField

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
