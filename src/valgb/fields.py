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
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
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

ExtInt = Union[int, _Infinity]


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
# univariate rationals-in-t helpers (dense tuples of Fraction, low degree first)
# ---------------------------------------------------------------------------

_F0 = Fraction(0)
_F1 = Fraction(1)


def _tp(coeffs) -> tuple:
    """Trim trailing zeros; canonical tuple form of a t-polynomial."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _tp_add(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _tp(out)


def _tp_neg(a: tuple) -> tuple:
    return tuple(-c for c in a)


def _tp_mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [_F0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _tp(out)


def _tp_divmod(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [_F0] * max(len(a) - len(b) + 1, 0)
    db = len(b) - 1
    lb = b[-1]
    for k in range(len(rem) - 1, db - 1, -1):
        if rem[k] == 0:
            continue
        c = rem[k] / lb
        quo[k - db] = c
        for i in range(db + 1):
            rem[k - db + i] -= c * b[i]
    return _tp(quo), _tp(rem)


def _tp_gcd(a: tuple, b: tuple) -> tuple:
    while b:
        _, r = _tp_divmod(a, b)
        a, b = b, r
    if not a:
        return ()
    lead = a[-1]
    return tuple(c / lead for c in a)  # monic


def _tp_ord(a: tuple) -> int:
    for i, c in enumerate(a):
        if c != 0:
            return i
    raise ValueError("order of zero polynomial")


def _tp_str(a: tuple, var: str = "t") -> str:
    if not a:
        return "0"
    parts = []
    for k, c in enumerate(a):
        if c == 0:
            continue
        neg = c < 0
        mag = -c if neg else c
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


class RatFunc:
    """Rational function in t over Q, canonical form: gcd(num, den) = 1, den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(_F1,)):
        if isinstance(num, (int, Fraction)):
            num = (Fraction(num),)
        if isinstance(den, (int, Fraction)):
            den = (Fraction(den),)
        num = _tp(num)
        den = _tp(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            object.__setattr__(self, "num", ())
            object.__setattr__(self, "den", (_F1,))
            return
        g = _tp_gcd(num, den)
        if len(g) > 1:
            num, _ = _tp_divmod(num, g)
            den, _ = _tp_divmod(den, g)
        lead = den[-1]
        if lead != 1:
            num = tuple(c / lead for c in num)
            den = tuple(c / lead for c in den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @staticmethod
    def t_power(w: int) -> "RatFunc":
        if w >= 0:
            return RatFunc((_F0,) * w + (_F1,))
        return RatFunc((_F1,), (_F0,) * (-w) + (_F1,))

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        return RatFunc(
            _tp_add(_tp_mul(self.num, other.den), _tp_mul(other.num, self.den)),
            _tp_mul(self.den, other.den),
        )

    def __sub__(self, other):
        return RatFunc(
            _tp_add(_tp_mul(self.num, other.den), _tp_neg(_tp_mul(other.num, self.den))),
            _tp_mul(self.den, other.den),
        )

    def __neg__(self):
        return RatFunc(_tp_neg(self.num), self.den)

    def __mul__(self, other):
        return RatFunc(_tp_mul(self.num, other.num), _tp_mul(self.den, other.den))

    def __truediv__(self, other):
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(_tp_mul(self.num, other.den), _tp_mul(self.den, other.num))

    def __eq__(self, other):
        return (
            isinstance(other, RatFunc) and self.num == other.num and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def t_val(self) -> ExtInt:
        if not self.num:
            return INF
        return _tp_ord(self.num) - _tp_ord(self.den)

    def unit_residue(self) -> Fraction:
        """Lowest Taylor coefficient of the unit part (self / t^val)."""
        if not self.num:
            raise ValueError("zero has no unit part")
        return self.num[_tp_ord(self.num)] / self.den[_tp_ord(self.den)]

    def __repr__(self):
        if self.den == (_F1,):
            return _tp_str(self.num)
        return f"({_tp_str(self.num)})/({_tp_str(self.den)})"


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------


class CoefficientField:
    """Arithmetic, valuation and residue dispatch for one scalar type."""

    label = "?"

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

    def zero(self):
        return _F0

    def one(self):
        return _F1

    def coerce(self, x):
        return x if type(x) is Fraction else Fraction(x)

    def format_coefficient(self, a):
        return a < 0, str(-a if a < 0 else a)


class RationalField(_FractionScalars, _OperatorField):
    """Q with the trivial valuation; its own residue field."""

    label = "Q"

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
        if a == 0:
            return INF
        return padic_valuation(a.numerator, self.p) - padic_valuation(
            a.denominator, self.p
        )

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
        return RatFunc(0)

    def one(self):
        return RatFunc(1)

    def coerce(self, x):
        if isinstance(x, RatFunc):
            return x
        return RatFunc(Fraction(x))

    def val(self, a):
        return a.t_val()

    def phi(self, w):
        return RatFunc.t_power(w)

    def unit_residue(self, a):
        return a.unit_residue()

    def residue_field(self):
        return QQ

    def format_coefficient(self, a):
        num, den = a.num, a.den
        neg = False
        if num and num[_tp_ord(num)] < 0:
            neg = True
            num = _tp_neg(num)
        nterms = sum(1 for c in num if c != 0)
        if den == (_F1,):
            body = _tp_str(num)
            if nterms > 1:
                body = f"({body})"
        else:
            body = f"({_tp_str(num)})/({_tp_str(den)})"
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
