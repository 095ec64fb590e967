"""Initial ideals over the residue field and tropical point membership.

A weight vector w lies in the tropical variety of a homogeneous ideal
exactly when the initial ideal in_w(I) contains no monomial, and a
homogeneous ideal contains a monomial iff saturating it by the product of
all variables yields the unit ideal.  Since (I : f^inf) : g^inf =
I : (fg)^inf, one saturation per variable, in turn, gives that product's
saturation.  Saturation by one variable is read off any grevlex basis with
that variable last (Bayer-Stillman): divide every element by its maximal
power of the variable.
"""

from __future__ import annotations

from .groebner import buchberger, reduce_basis
from .polynomials import GREVLEX, Polynomial, TermOrder
from .weights import WeightedOrder, initial_form


def initial_ideal(
    F: list,
    order: WeightedOrder,
    *,
    max_steps: int = 1_000_000,
    max_coeff_bits: int | None = None,
) -> list:
    """Generators of in_w(<F>) over the residue field: the initial forms of a
    reduced basis."""
    gb = reduce_basis(
        buchberger(F, order, max_steps=max_steps, max_coeff_bits=max_coeff_bits),
        max_steps=max_steps,
    )
    return [initial_form(g, order.weights) for g in gb.elements]


def _strip_variable(f: Polynomial, var: int) -> Polynomial:
    """Divide by the largest power of x_var dividing f."""
    k = min(m[var] for m in f.terms)
    if k == 0:
        return f
    out = {}
    for m, c in f.terms.items():
        m2 = list(m)
        m2[var] -= k
        out[tuple(m2)] = c
    return Polynomial(f.field, f.nvars, out, _clean=True)


def saturate_variable(gens: list, var: int, *, max_steps: int = 1_000_000) -> list:
    """Generators of (I : x_var^inf) for homogeneous I over a residue field.

    The result is a basis of the saturation under grevlex with x_var least
    significant, but not a reduced one.
    """
    if not gens:
        return []
    nvars = gens[0].nvars
    # grevlex with the saturating variable least significant
    priority = tuple(i for i in range(nvars) if i != var) + (var,)
    order = WeightedOrder((0,) * nvars, TermOrder("grevlex", priority))
    basis = buchberger(gens, order, max_steps=max_steps)
    return [_strip_variable(g, var) for g in basis.elements]


def _has_constant(gens: list) -> bool:
    return any(g.degree() == 0 for g in gens if not g.is_zero())


def contains_monomial(gens: list, *, max_steps: int = 1_000_000) -> bool:
    """Does a homogeneous residue-field ideal contain a monomial?

    Saturates by each variable once, in turn.  The last saturation returns a
    basis of I : (x_1...x_n)^inf, which holds a constant exactly when that
    ideal is the unit ideal, that is, when I contains a monomial.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return False
    for g in gens:
        if not g.is_homogeneous():
            raise ValueError("monomial containment requires homogeneous generators")
    current = gens
    for var in range(gens[0].nvars):
        if _has_constant(current):
            return True
        current = saturate_variable(current, var, max_steps=max_steps)
    return _has_constant(current)


def in_tropical_variety(
    F: list, weights, tiebreak: TermOrder = GREVLEX, *, max_steps: int = 1_000_000
) -> bool:
    """Tropical membership of an integer weight vector for homogeneous F."""
    order = WeightedOrder(tuple(weights), tiebreak)
    return not contains_monomial(
        initial_ideal(F, order, max_steps=max_steps), max_steps=max_steps
    )
