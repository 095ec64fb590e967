"""Monomial counts behind Hilbert functions.

``monomial_ideal_dim`` is the dimension of the degree-d slice of a monomial
ideal, counted without listing its monomials.  ``multiples`` lists that
slice instead: for a few variables that is cheaper, and the completion loop
extends it one generator at a time.

``generic_dims`` gives c_d, the dimension of the degree-d slice of an ideal
generated by r <= n generic forms of given degrees in n variables.  Such
forms are a regular sequence, so the quotient has Hilbert series
prod(1 - t^d_i) / (1 - t)^n.  Macaulay rank is lower semicontinuous, so c_d
bounds dim I_d for every ideal I generated by r <= n forms of those degrees.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add

from .polynomials import compositions, minimal_generators, mono_degree


def _standard_count(gens: list, nvars: int, d: int) -> int:
    """The number of degree-d monomials in nvars variables outside the
    monomial ideal generated by gens, counted without listing
    them.  Adding the generators one at a time, S(J + (m), d) is
    S(J, d) - S(J : m, d - deg m), where J : m is generated by the
    g / gcd(g, m); the count starts from C(n+d-1, d) for J = 0, and each
    nested count is of a lower degree."""
    if d < 0:
        return 0
    gens = [g for g in gens if mono_degree(g) <= d]
    count = comb(nvars + d - 1, d)
    for i, m in enumerate(gens):
        colon = minimal_generators([tuple(max(a - b, 0) for a, b in zip(g, m))
                                    for g in gens[:i]])
        count -= _standard_count(colon, nvars, d - mono_degree(m))
    return count


def monomial_ideal_dim(monomials: list, nvars: int, d: int) -> int:
    """dim of the degree-d slice of the ideal the monomials generate."""
    low = minimal_generators([m for m in monomials if mono_degree(m) <= d])
    return _standard_count([], nvars, d) - _standard_count(low, nvars, d)


@lru_cache(maxsize=256)
def _shifts(nvars: int, e: int) -> tuple:
    """The degree-e exponent vectors, kept: the loop asks for few, often."""
    return tuple(compositions(nvars, e))


def multiples(monomials: list, nvars: int, d: int) -> set:
    """The degree-d monomials that some of the monomials divide."""
    out = set()
    for m in monomials:
        e = d - mono_degree(m)
        if e >= 0:
            out.update([tuple(map(add, m, v)) for v in _shifts(nvars, e)])
    return out


def generic_dims(nvars: int, degrees: list):
    """The function d -> c_d for r <= nvars forms of the given degrees."""
    numerator = {0: 1}  # prod(1 - t^e), as {power: coefficient}
    for e in degrees:
        out = dict(numerator)
        for k, c in numerator.items():
            out[k + e] = out.get(k + e, 0) - c
        numerator = {k: c for k, c in out.items() if c}

    def c(d: int) -> int:
        # dim S_d minus the t^d coefficient of the quotient's series
        return -sum(a * comb(nvars - 1 + d - k, nvars - 1)
                    for k, a in numerator.items() if 0 < k <= d)

    return c
