"""Desk-scale comparison of p-adic and classical basis sizes.

For an even degree d = 2e, a pair of generic ternary forms whose only odd
coefficients sit on x1^d and x2^e*x3^e has a two-element 2-adic reduced basis
(the leading monomials are coprime, so the single S-pair is skipped), while
every classical reduced basis needs at least (d+3)/2 elements.  Sampled
instances are verified a posteriori: the 2-adic initial ideal must be exactly
<x1^d, x2^e*x3^e> and every classical initial ideal must be strongly stable,
which is what the counting argument behind the lower bound needs.  A reduced
basis has one element per minimal generator of the leading ideal, so sizes
are counted from the leading monomials of an unreduced basis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .fields import Qp
from .groebner import buchberger, minimal_generators
from .polynomials import (
    GREVLEX,
    Monomial,
    TermOrder,
    _over_q,
    loop_polynomial,
    mono_divides,
    monomials_of_degree,
)
from .weights import WeightedOrder


class GenericityError(RuntimeError):
    """Sampling kept producing non-generic instances within the retry budget."""


@dataclass
class CardinalityReport:
    e: int
    degree: int
    seed: int
    padic_size: int
    standard_sizes: dict
    lower_bound: Fraction
    resamples: int = 0
    log: list = dc_field(default_factory=list)

    def bound_holds(self) -> bool:
        import math

        need = math.ceil(self.lower_bound)
        return self.padic_size == 2 and all(
            s >= need for s in self.standard_sizes.values()
        )


def sample_pair(e: int, rng: random.Random, height: int = 20):
    """Two degree-2e forms in three variables over Q with the 2-adic valuation:
    odd unit coefficients exactly on x1^d (first) and x2^e*x3^e (second), all
    other coefficients even and nonzero."""
    if e < 1:
        raise ValueError("e must be positive")
    d = 2 * e
    field = Qp(2)
    monos = monomials_of_degree(3, d)
    x1d = (d, 0, 0)
    x2e3e = (0, e, e)
    odds = [c for c in range(-height, height + 1) if c % 2 == 1]
    evens = [c for c in range(-height, height + 1) if c % 2 == 0 and c != 0]
    f_terms = {m: rng.choice(odds if m == x1d else evens) for m in monos}
    g_terms = {m: rng.choice(odds if m == x2e3e else evens) for m in monos}
    return loop_polynomial(field, 3, f_terms, 1, 1), loop_polynomial(field, 3, g_terms, 1, 1)


def default_orders(e: int) -> list[TermOrder]:
    """Classical orders compared against the 2-adic run; lex is kept to the
    quadratic case where its elimination-sized bases stay cheap."""
    orders = [
        TermOrder("grevlex", (0, 1, 2)),
        TermOrder("grevlex", (1, 2, 0)),
        TermOrder("grevlex", (2, 0, 1)),
    ]
    if e == 1:
        orders.insert(0, TermOrder("lex", (0, 1, 2)))
    return orders


def is_strongly_stable(generators: list[Monomial], priority: tuple) -> bool:
    """Borel-type stability in the given variable significance order: swapping
    any variable of a generator for a more significant one stays inside."""
    gens = minimal_generators(generators)

    def member(m):
        return any(mono_divides(g, m) for g in gens)

    rank = {v: k for k, v in enumerate(priority)}
    for m in gens:
        for low in range(len(m)):
            if m[low] == 0:
                continue
            for high in range(len(m)):
                if rank[high] >= rank[low]:
                    continue
                swapped = list(m)
                swapped[low] -= 1
                swapped[high] += 1
                if not member(tuple(swapped)):
                    return False
    return True


def cardinality_report(
    e: int,
    orders: list[TermOrder] | None = None,
    seed: int = 0,
    *,
    height: int = 20,
    max_resamples: int = 10,
    max_steps: int = 1_000_000,
) -> CardinalityReport:
    """Sample one verified-generic instance and record all basis sizes."""
    if orders is None:
        orders = default_orders(e)
    d = 2 * e
    x1d = (d, 0, 0)
    x2e3e = (0, e, e)
    log: list[str] = []
    for attempt in range(max_resamples + 1):
        rng = random.Random(f"cardinality-{e}-{seed}-{attempt}")
        f, g = sample_pair(e, rng, height)

        padic_order = WeightedOrder((0, 0, 0), GREVLEX)
        padic = minimal_generators(
            buchberger([f, g], padic_order, max_steps=max_steps).leading_monomials()
        )
        if sorted(padic) != sorted([x1d, x2e3e]):
            log.append(
                f"attempt {attempt}: 2-adic initial ideal was {padic}; resampling"
            )
            continue

        standard_sizes = {}
        stable = True
        ft, gt = _over_q(f), _over_q(g)
        for order in orders:
            worder = WeightedOrder((0, 0, 0), order)
            lms = minimal_generators(
                buchberger([ft, gt], worder, max_steps=max_steps).leading_monomials()
            )
            priority = order.priority if order.priority is not None else (0, 1, 2)
            if not is_strongly_stable(lms, priority):
                log.append(
                    f"attempt {attempt}: initial ideal under {order.label()} "
                    "not strongly stable; resampling"
                )
                stable = False
                break
            standard_sizes[order.label()] = len(lms)
        if not stable:
            continue

        return CardinalityReport(
            e=e,
            degree=d,
            seed=seed,
            padic_size=len(padic),
            standard_sizes=standard_sizes,
            lower_bound=Fraction(d + 3, 2),
            resamples=attempt,
            log=log,
        )
    raise GenericityError(
        f"no generic instance for e={e}, seed={seed} within "
        f"{max_resamples} resamples: {log}"
    )
