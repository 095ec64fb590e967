"""Closed-form degree and coefficient-valuation bounds for reduced bases.

The degree bound is Dube's 2(d^2/2 + d)^(2^(n-2)); coefficient valuations
over the p-adics are bounded by (A/2) * log_p(C^2 A) with A the ideal's
dimension in the bound degree and C the largest integer coefficient.  Both
are evaluated in exact arithmetic; the log is taken as an integer ceiling,
which only makes the bound more conservative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lifting import hilbert_dim
from .polynomials import loop_form


# D >= 2*(3/2)^k for k = 2^(n-2), so from 17 variables on D has more than
# the 4,300 digits Python prints by default; such a D is never built
MAX_BUILT_NVARS = 16


def _dube_exponent(n: int, d: int) -> int:
    if n < 2:
        raise ValueError("degree bound requires at least two variables")
    if d < 1:
        raise ValueError("generator degree must be positive")
    return 2 ** (n - 2)


def dube_degree_bound(n: int, d: int) -> int:
    """2(d^2/2 + d)^(2^(n-2)), ceiled to an integer degree."""
    k = _dube_exponent(n, d)
    # 2*(d(d+2)/2)^k = (d(d+2))^k / 2^(k-1): ceiled by shifting the negation,
    # which stays linear in the size of D where a Fraction's ceiling is not
    power = (d * (d + 2)) ** k
    return -(-power >> (k - 1))


def dube_exceeds(n: int, d: int, cap: int) -> bool:
    """Whether Dube's bound D exceeds cap, decided from the exponent k when
    D is large: D >= 2*(3/2)^k, and (3/2)^k > 2^b once k >= 2b, so D > cap
    whenever k is at least twice cap's bit length b.  Otherwise D has at
    most about 2b*log2(d(d+2)) bits and is compared exactly."""
    if _dube_exponent(n, d) >= 2 * cap.bit_length():
        return True
    return dube_degree_bound(n, d) > cap


def ceil_log(base: int, x) -> int:
    """Smallest k >= 0 with base^k >= x."""
    if x <= 1:
        return 0
    k = 0
    power = 1
    while power < x:
        power *= base
        k += 1
    return k


def valuation_bound(C: int, A: int, p: int) -> Fraction:
    """(A/2) * ceil(log_p(C^2 A)) as an exact rational."""
    if C < 1 or A < 1:
        raise ValueError("coefficient and dimension bounds must be positive")
    return Fraction(A, 2) * ceil_log(p, C * C * A)


@dataclass
class BoundReport:
    """``degree_bound`` is Dube's D, or None past ``MAX_BUILT_NVARS``
    variables, where D is never built (it is then truncated to the cap)."""

    nvars: int
    max_degree: int
    coeff_bound: int
    degree_bound: int | None
    evaluated_degree: int
    ideal_dim: int
    valuation_bound: Fraction
    truncated: bool


def effective_valuation_bound(F: list, p: int, degree_cap: int = 64) -> BoundReport:
    """Evaluate the valuation bound for concrete generators.

    The bound degree is double exponential in the variable count, so it is
    capped at ``degree_cap``; a capped evaluation is flagged as truncated and
    is a valid bound only when the basis degrees stay at or below the cap.
    """
    F = [f for f in F if not f.is_zero()]
    if not F:
        return BoundReport(0, 0, 0, 0, 0, 0, Fraction(0), False)
    forms = [loop_form(f) for f in F]
    if any(num is None for _, num, _ in forms):
        raise ValueError("the valuation bound needs rational coefficients")
    nvars = F[0].nvars
    delta = max(f.homogeneous_degree() for f in F)
    # C is read off the primitive integer forms
    C = max(abs(c) for terms, _, _ in forms for c in terms.values())
    # D > delta always, so the evaluation is truncated exactly when D > cap
    truncated = dube_exceeds(nvars, delta, degree_cap)
    D = dube_degree_bound(nvars, delta) if nvars <= MAX_BUILT_NVARS else None
    evaluated = max(delta, degree_cap) if truncated else D
    A = hilbert_dim(F, evaluated)
    if A == 0:
        return BoundReport(nvars, delta, C, D, evaluated, 0, Fraction(0), truncated)
    return BoundReport(
        nvars, delta, C, D, evaluated, A, valuation_bound(C, A, p), truncated
    )
