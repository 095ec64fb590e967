"""Valued coefficient fields and their scalar arithmetic.

Every algorithm in this package runs over one of these domains:

* ``Qp(p)``         rationals with the p-adic valuation,
* ``QQ``            rationals with the trivial valuation,
* ``Qt()``          rational functions in t with the t-adic valuation,
* ``ModPmRing``     integers mod p^m with the truncated p-adic valuation,
* ``GF(p)``         prime fields: the case m = 1 of ``ModPmRing``, trivially
                    valued, and the residue fields of Qp and Z/p^m.

Scalars are plain Python values (Fraction, int, RatFunc) kept in a unique
canonical form; all arithmetic and valuation queries are dispatched through
the field object so the polynomial layer never inspects representations.
The loops test no field class; they read the facts each field states:
``integral`` (the loops hold primitive integer forms: Q and Qp),
``trivially_valued`` (Q and GF(p)), ``modulus`` (p^m on Z/p^m, so p on
GF(p); None elsewhere), ``is_field`` (false only for Z/p^m with m > 1) and
``bits(a)``, the size of a scalar that the coefficient breaker reads.

A Q(t) scalar, ``RatFunc``, is a quotient n/d of integer polynomials in t
with gcd(n, d) = 1 in Z[t] and a positive leading coefficient of d.  Its
arithmetic is integer convolution followed by one polynomial gcd over Z[t]:
GCDHEU (Char, Geddes and Gonnet 1989), which reads the gcd off one integer
gcd of the values at a large point, with the primitive PRS (Brown 1971) as
the fallback, so no Fraction is built on the way.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import Union


class _Infinity:
    """Valuation of zero: absorbs addition, dominates every integer."""

    __slots__ = ()

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is self

    def __ne__(self, other):
        return other is not self

    def __hash__(self):
        return hash("valuation-infinity")

    def __repr__(self):
        return "INF"


INF = _Infinity()

# a forward reference: typing caches Union[...] by its arguments, and the class
# itself there would keep every imported copy of this module alive
ExtInt = Union[int, "_Infinity"]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    q = 2
    while q * q <= p:
        if p % q == 0:
            return False
        q += 1
    return True


def padic_valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    if p == 2:
        return (n & -n).bit_length() - 1  # the lowest set bit
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# univariate integer polynomials in t: tuples of int, low degree first, with
# no trailing zeros; () is zero
# ---------------------------------------------------------------------------

_F0 = Fraction(0)
_F1 = Fraction(1)
_Z1 = (1,)

# evaluation points GCDHEU tries before it falls back to the primitive PRS
_HEU_GCD_TRIES = 6


def _zp_trim(cs: list) -> tuple:
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _zp_neg(a: tuple) -> tuple:
    return tuple(-c for c in a)


def _zp_add(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _zp_trim(out)


def _zp_mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        c = b[0]
        return a if c == 1 else tuple(c * x for x in a)
    out = [0] * (len(a) + len(b) - 1)
    bs = [(j, c) for j, c in enumerate(b) if c]
    for i, ca in enumerate(a):
        if ca:
            for j, cb in bs:
                out[i + j] += ca * cb
    return tuple(out)  # Z is a domain: the leading coefficient is nonzero


def _zp_primitive(a: tuple) -> tuple:
    c = gcd(*a)
    return a if c <= 1 else tuple(x // c for x in a)


def _zp_exquo(f: tuple, h: tuple):
    """f / h when h divides f in Z[t], else None; f and h nonzero."""
    dh = len(h) - 1
    dq = len(f) - 1 - dh
    if dq < 0:
        return None
    lc = h[-1]
    rem = list(f)
    quo = [0] * (dq + 1)
    tail = [(i, c) for i, c in enumerate(h[:-1]) if c]
    for k in range(dq, -1, -1):
        c = rem[k + dh]
        if c:
            qc, r = divmod(c, lc)
            if r:
                return None
            quo[k] = qc
            for i, hc in tail:
                rem[k + i] -= qc * hc
    if any(rem[:dh]):
        return None
    return tuple(quo)


def _zp_eval(f: tuple, x: int) -> int:
    v = 0
    for c in reversed(f):
        v = v * x + c
    return v


def _zp_interpolate(v: int, x: int) -> tuple:
    """The polynomial whose coefficients are the symmetric base-x digits of v."""
    half = x // 2
    out = []
    while v:
        c = v % x
        if c > half:
            c -= x
        out.append(c)
        v = (v - c) // x
    return tuple(out)


def _zp_heu_gcd(f: tuple, g: tuple):
    """(h, f/h, g/h) for the primitive gcd h of f and g, whose contents are
    coprime, by GCDHEU (Char, Geddes and Gonnet, J. Symb. Comput. 7, 1989);
    None when no evaluation point succeeds.

    The first point is 2*min(|f|, |g|) + 29 in the max norm, so a candidate
    read off the integer gcd at a point is the gcd exactly when it divides
    both inputs.
    """
    x = 2 * min(max(map(abs, f)), max(map(abs, g))) + 29
    for _ in range(_HEU_GCD_TRIES):
        ff, gg = _zp_eval(f, x), _zp_eval(g, x)
        if ff and gg:
            h = _zp_primitive(_zp_interpolate(gcd(ff, gg), x))
            if h == _Z1:
                return h, f, g
            cf = _zp_exquo(f, h)
            cg = None if cf is None else _zp_exquo(g, h)
            if cg is not None:
                return h, cf, cg
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    return None


def _zp_prem(a: tuple, b: tuple) -> tuple:
    """A remainder of lc(b)^k * a by b, for the k that makes it integral."""
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    while len(r) > db:
        c = r.pop()
        if c:
            k = len(r) - db
            r = [lb * x for x in r]
            for i in range(db):
                r[k + i] -= c * b[i]
    return _zp_trim(r)


def _zp_prs_gcd(f: tuple, g: tuple) -> tuple:
    """The gcd of primitive f and g by the primitive PRS (Brown 1971)."""
    if len(f) < len(g):
        f, g = g, f
    while g:
        f, g = g, _zp_primitive(_zp_prem(f, g))
    return f


def _zp_gcd(f: tuple, g: tuple) -> tuple:
    """(h, f/h, g/h) for h = gcd(f, g) in Z[t] (up to sign); f, g nonzero."""
    k = 0
    while not (f[k] or g[k]):
        k += 1
    if k:
        f, g = f[k:], g[k:]
    c = gcd(gcd(*f), gcd(*g))
    if c != 1:
        f = tuple(x // c for x in f)
        g = tuple(x // c for x in g)
    if not any(f[:-1]) or not any(g[:-1]):
        # a monomial shares no factor with the other: no common power of t
        # and no common content is left
        h, cf, cg = _Z1, f, g
    else:
        found = _zp_heu_gcd(f, g)
        if found is None:
            h = _zp_prs_gcd(_zp_primitive(f), _zp_primitive(g))
            found = h, _zp_exquo(f, h), _zp_exquo(g, h)
        h, cf, cg = found
    if k or c != 1:
        h = (0,) * k + tuple(c * x for x in h)
    return h, cf, cg


def _tp_ord(a: tuple) -> int:
    for i, c in enumerate(a):
        if c != 0:
            return i
    raise ValueError("order of zero polynomial")


def _tp_str(a: tuple, var: str = "t", over: int = 1) -> str:
    """Text of the integer polynomial a divided by an integer over > 0, each
    coefficient printed as its Fraction prints."""
    if not a:
        return "0"
    parts = []
    for k, c in enumerate(a):
        if c == 0:
            continue
        neg = c < 0
        mag = -c if neg else c
        if over != 1:
            g = gcd(mag, over)
            mag = mag // g if g == over else f"{mag // g}/{over // g}"
        if k == 0:
            body = str(mag)
        else:
            tpow = var if k == 1 else f"{var}^{k}"
            body = tpow if mag == 1 else f"{mag}*{tpow}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("-" if neg else "+") + body)
    return "".join(parts)


def _integer_tuple(x) -> tuple:
    """(L*x as an int tuple, L) for the least L > 0 that clears the
    denominators of x, a scalar or a sequence of int/Fraction coefficients."""
    if isinstance(x, (int, Fraction)):
        x = (x,)
    cs = [c if isinstance(c, int) else Fraction(c) for c in x]
    L = lcm(*(c.denominator for c in cs if not isinstance(c, int)))
    return _zp_trim([c * L if isinstance(c, int) else c.numerator * (L // c.denominator)
                     for c in cs]), L


def _canonical(n: tuple, d: tuple) -> "RatFunc":
    """n/d divided by gcd(n, d) in Z[t] and signed so that lc(d) > 0."""
    if not n:
        return _ZERO
    if d != _Z1:
        _, n, d = _zp_gcd(n, d)
        if d[-1] < 0:
            n, d = _zp_neg(n), _zp_neg(d)
    return _ratfunc(n, d)


class RatFunc:
    """Rational function n/d in t over Q, held over Z[t].

    n and d are integer coefficient tuples, low degree first.  The form is
    canonical: gcd(n, d) = 1 in Z[t] (no common factor of positive degree and
    no common integer content) and lc(d) > 0; zero is () / (1,).  Every
    operation computes its result over Z[t] and divides out one gcd (GCDHEU
    with a primitive PRS fallback).  ``num`` and ``den`` give the same value
    over Q with a monic denominator, as tuples of Fraction built on each read.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, num, den=_Z1):
        n, ln = _integer_tuple(num)
        d, ld = _integer_tuple(den)
        if not d:
            raise ZeroDivisionError("rational function with zero denominator")
        if ld != 1:
            n = tuple(ld * c for c in n)
        if ln != 1:
            d = tuple(ln * c for c in d)
        canonical = _canonical(n, d)
        _set_n(self, canonical._n)
        _set_d(self, canonical._d)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @property
    def num(self) -> tuple:
        """The numerator over the monic denominator, as Fractions."""
        lc = self._d[-1]
        return tuple(Fraction(c, lc) for c in self._n)

    @property
    def den(self) -> tuple:
        """The monic denominator, as Fractions."""
        lc = self._d[-1]
        return tuple(Fraction(c, lc) for c in self._d)

    @property
    def integer_parts(self) -> tuple:
        """(n, d): the canonical integer numerator and denominator."""
        return self._n, self._d

    @staticmethod
    def t_power(w: int) -> "RatFunc":
        if w >= 0:
            return _ratfunc((0,) * w + _Z1, _Z1)
        return _ratfunc(_Z1, (0,) * -w + _Z1)

    def is_zero(self) -> bool:
        return not self._n

    def __bool__(self):
        return bool(self._n)

    def __add__(self, other):
        return self._sum(other._n, other._d)

    def __sub__(self, other):
        return self._sum(_zp_neg(other._n), other._d)

    def __neg__(self):
        return _ratfunc(_zp_neg(self._n), self._d)

    def __mul__(self, other):
        return _canonical(_zp_mul(self._n, other._n), _zp_mul(self._d, other._d))

    def __truediv__(self, other):
        if not other._n:
            raise ZeroDivisionError("division by zero rational function")
        return _canonical(_zp_mul(self._n, other._d), _zp_mul(self._d, other._n))

    def _sum(self, c: tuple, d: tuple) -> "RatFunc":
        a, b = self._n, self._d
        if b == d:
            return _canonical(_zp_add(a, c), b)
        return _canonical(_zp_add(_zp_mul(a, d), _zp_mul(c, b)), _zp_mul(b, d))

    def __eq__(self, other):
        return isinstance(other, RatFunc) and self._n == other._n and self._d == other._d

    def __hash__(self):
        return hash((self._n, self._d))

    def t_val(self) -> ExtInt:
        if not self._n:
            return INF
        return _tp_ord(self._n) - _tp_ord(self._d)

    def unit_residue(self) -> Fraction:
        """Lowest Taylor coefficient of the unit part (self / t^val)."""
        if not self._n:
            raise ValueError("zero has no unit part")
        return Fraction(self._n[_tp_ord(self._n)], self._d[_tp_ord(self._d)])

    def __repr__(self):
        n, d = self._n, self._d
        if len(d) == 1:
            return _tp_str(n, over=d[0])
        return f"({_tp_str(n, over=d[-1])})/({_tp_str(d, over=d[-1])})"


_set_n = RatFunc._n.__set__
_set_d = RatFunc._d.__set__


def _ratfunc(n: tuple, d: tuple) -> RatFunc:
    """A RatFunc from a canonical (n, d), with no checks."""
    out = object.__new__(RatFunc)
    _set_n(out, n)
    _set_d(out, d)
    return out


_ZERO = _ratfunc((), _Z1)
_ONE = _ratfunc(_Z1, _Z1)


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------


class CoefficientField:
    """Arithmetic, valuation and residue dispatch for one scalar type, and the
    facts the loops read: integral, trivially_valued, modulus, is_field, bits."""

    label = "?"
    integral = False
    trivially_valued = False
    modulus = None
    is_field = True

    # -- scalar construction ------------------------------------------------
    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def coerce(self, x):
        """Map an int/Fraction (or native scalar) into canonical form."""
        raise NotImplementedError

    # -- ring operations ----------------------------------------------------
    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def div(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        return self.div(self.one(), a)

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def bits(self, a) -> int:
        """The size of a scalar in bits, as the coefficient breaker reads it."""
        raise NotImplementedError

    # -- valuation data -----------------------------------------------------
    def val(self, a) -> ExtInt:
        raise NotImplementedError

    def phi(self, w: int):
        """Section of the valuation: a scalar with val(phi(w)) = w."""
        raise NotImplementedError

    def unit_residue(self, a):
        """Residue of the unit part a * phi(-val(a)) of a nonzero scalar."""
        raise NotImplementedError

    def residue(self, a):
        """Image of a scalar of nonnegative valuation in the residue field."""
        v = self.val(a)
        if v < 0:
            raise ValueError("not in valuation ring")
        if v == 0:
            return self.unit_residue(a)
        return self.residue_field().zero()

    def initial_residue(self, a):
        """Residue of the unit part a * phi(-val(a)); nonzero for a != 0."""
        if self.is_zero(a):
            raise ValueError("zero scalar has no initial residue")
        return self.unit_residue(a)

    def residue_field(self) -> "CoefficientField":
        raise NotImplementedError

    # -- display ------------------------------------------------------------
    def format_coefficient(self, a) -> tuple[bool, str]:
        """(is_negative, magnitude) for printing ``a * monomial`` products."""
        return False, str(a)

    def __repr__(self):
        return self.label


class _OperatorField(CoefficientField):
    """Field arithmetic through the scalars' own operators (Fraction, RatFunc)."""

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def div(self, a, b):
        return a / b

    def is_zero(self, a):
        return not a


class _FractionScalars:
    """Fraction scalars, shared by Qp(p) and trivially valued Q."""

    integral = True

    def zero(self):
        return _F0

    def one(self):
        return _F1

    def coerce(self, x):
        return x if type(x) is Fraction else Fraction(x)

    def bits(self, a):
        return a.numerator.bit_length() + a.denominator.bit_length()

    def format_coefficient(self, a):
        return a < 0, str(-a if a < 0 else a)


class RationalField(_FractionScalars, _OperatorField):
    """Q with the trivial valuation; its own residue field."""

    label = "Q"
    trivially_valued = True

    def val(self, a):
        return INF if a == 0 else 0

    def phi(self, w):
        if w != 0:
            raise ValueError("trivial valuation has value group {0}")
        return _F1

    def unit_residue(self, a):
        return a

    def residue_field(self):
        return self

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("field-Q")


class QpField(_FractionScalars, _OperatorField):
    """Q with the p-adic valuation; residue field GF(p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.label = f"Qp({p})"

    def val(self, a):
        if type(a) is int:  # the division loop's integer scalars
            return padic_valuation(a, self.p) if a else INF
        if a == 0:
            return INF
        v, d = padic_valuation(a.numerator, self.p), a.denominator
        return v if d == 1 else v - padic_valuation(d, self.p)

    def phi(self, w):
        return Fraction(self.p) ** w

    def unit_residue(self, a):
        p = self.p
        num = a.numerator // p ** padic_valuation(a.numerator, p)
        den = a.denominator // p ** padic_valuation(a.denominator, p)
        return num * pow(den, -1, p) % p

    def residue_field(self):
        return GF(self.p)

    def __eq__(self, other):
        return isinstance(other, QpField) and other.p == self.p

    def __hash__(self):
        return hash(("field-Qp", self.p))


class RationalFunctionField(_OperatorField):
    """Q(t) with the t-adic valuation; residue field Q."""

    label = "Qt"

    def zero(self):
        return _ZERO

    def one(self):
        return _ONE

    def coerce(self, x):
        if isinstance(x, RatFunc):
            return x
        if type(x) is int:
            return _ratfunc((x,), _Z1) if x else _ZERO
        return RatFunc(x)

    def val(self, a):
        return a.t_val()

    def phi(self, w):
        return RatFunc.t_power(w)

    def bits(self, a):
        n, d = a.integer_parts  # every coefficient, at least 1 bit
        return sum(x.bit_length() or 1 for x in n + d)

    def unit_residue(self, a):
        return a.unit_residue()

    def residue_field(self):
        return QQ

    def format_coefficient(self, a):
        """The text of n/d over the monic denominator, read off the integer
        parts: each coefficient c of n or d prints as the Fraction c/lc(d)."""
        n, d = a.integer_parts
        neg = bool(n) and n[_tp_ord(n)] < 0  # lc(d) > 0
        if neg:
            n = _zp_neg(n)
        lc = d[-1]
        if len(d) == 1:
            body = _tp_str(n, over=lc)
            if sum(1 for c in n if c) > 1:
                body = f"({body})"
        else:
            body = f"({_tp_str(n, over=lc)})/({_tp_str(d, over=lc)})"
        return neg, body

    def __eq__(self, other):
        return isinstance(other, RationalFunctionField)

    def __hash__(self):
        return hash("field-Qt")


class ModPmRing(CoefficientField):
    """Z/p^m with the truncated p-adic valuation {0,...,m-1} and infinity.

    For m = 1 this is the prime field GF(p).  For m > 1 it is not a field:
    division a/b is defined only when val(a) >= val(b), and the result is
    exact modulo p^(m - val(b)).  That is enough for the division algorithm,
    where every divisor either has unit leading coefficient or the quotient
    coefficient has strictly positive valuation.
    """

    def __init__(self, p: int, m: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if m < 1:
            raise ValueError("modulus exponent must be positive")
        self.p = p
        self.m = m
        self.modulus = p**m
        self.is_field = self.trivially_valued = m == 1
        self.label = f"Z/{p}^{m}"

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ValueError("denominator not a unit mod p^m")
            return x.numerator * pow(x.denominator, -1, self.modulus) % self.modulus
        return int(x) % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def div(self, a, b):
        if b % self.p:
            return a * pow(b, -1, self.modulus) % self.modulus
        if b % self.modulus == 0:
            raise ZeroDivisionError(f"division by zero in {self.label}")
        if a == 0:
            return 0
        s = padic_valuation(b, self.p)
        if padic_valuation(a, self.p) < s:
            raise ValueError("inexact division in Z/p^m")
        unit = b // self.p**s
        return (a // self.p**s) * pow(unit, -1, self.modulus) % self.modulus

    def is_zero(self, a):
        return a % self.modulus == 0

    def bits(self, a):
        return a.bit_length()

    def val(self, a):
        if a % self.p:
            return 0
        a %= self.modulus
        if a == 0:
            return INF
        return padic_valuation(a, self.p)

    def phi(self, w):
        if w < 0 or w >= self.m:
            raise ValueError(f"no element of valuation {w} in {self.label}")
        return self.p**w

    def unit_residue(self, a):
        return a // self.p ** padic_valuation(a, self.p) % self.p

    def residue_field(self):
        return GF(self.p)

    def __eq__(self, other):
        return (
            isinstance(other, ModPmRing) and other.p == self.p and other.m == self.m
        )

    def __hash__(self):
        return hash(("ring-modpm", self.p, self.m))


class PrimeField(ModPmRing):
    """GF(p) = Z/p^1: trivially valued, the residue field of Qp(p) and Z/p^m."""

    def __init__(self, p: int):
        super().__init__(p, 1)
        self.label = f"GF({p})"


QQ = RationalField()
_QT = RationalFunctionField()


@lru_cache(maxsize=None)
def Qp(p: int) -> QpField:
    return QpField(p)


def Qt() -> RationalFunctionField:
    return _QT


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)
