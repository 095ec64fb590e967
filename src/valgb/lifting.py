"""Hilbert dimensions, basis reconstruction from an initial ideal, and the
mod-p^m acceleration with verified lifting.

Working over Z/p^m tames the coefficient blow-up of exact rational runs:
substitute x_i -> p^(w_i) x_i, scale to primitive integer polynomials (so no
p-content is left), complete a basis mod p^m with weight zero (over Z/p^m,
``buchberger`` itself strips each new element's p-content and reads
truncation noise as zero), read off the initial monomial ideal, and
reconstruct the reduced rational basis degree by degree.  The reconstruction
row reduces all the generators' multiples of each degree as primitive
integer rows and builds Fractions only for the rows it returns.  It reads
the RREF with the routine that gives ``reduce_basis`` its reduced bases over
every field; only the rows differ, since the generators are not a basis.  It
fails loudly when m was too small, so the whole pipeline verifies over Q and
retries with doubled m.  The reconstruction takes Q and Qp generators only;
Hilbert dimensions take any field.
"""

from __future__ import annotations

from math import gcd

from .division import CoefficientBlowup, StepBudgetExceeded, _integer_terms, primitive_factor
from .fields import ModPmRing, QQ, QpField, padic_valuation
from .hilbert import monomial_ideal_dim
from .groebner import (
    GroebnerBasis,
    _reduced_rows,
    buchberger,
    is_basis_of,
    minimal_generators,
    reduce_basis,
    sort_basis,
)
from .polynomials import (
    GREVLEX,
    Polynomial,
    compositions,
    mono_degree,
    mono_divides,
)
from .weights import WeightedOrder, weight_dot


class LiftInconsistent(ValueError):
    """The claimed initial-ideal generators cannot index an identity block;
    for a mod-p^m run this signals that the modulus exponent was too small."""


def clear_denominators(f: Polynomial) -> Polynomial:
    """Integer-primitive rescaling: coefficients become coprime integers."""
    if f.is_zero():
        return f
    if not f.field.integral:
        raise ValueError("integer clearing needs rational coefficients")
    return f.scale(primitive_factor(f))


def _field_and_nvars(F: list):
    """The coefficient field and variable count shared by the generators F."""
    field, nvars = F[0].field, F[0].nvars
    if any(f.field != field or f.nvars != nvars for f in F):
        raise ValueError("generator field/variable mismatch")
    return field, nvars


def hilbert_dim(F: list, d: int) -> int:
    """Dimension over K of the degree-d slice of the ideal <F>.

    I and its initial ideal share a Hilbert function for every weight and
    valuation, so this counts the degree-d monomials in the leading ideal of
    one grevlex basis with weight zero.  Generators over Q or Qp are read
    over the trivially valued Q, which keeps the p-adic blow-up out of it.
    """
    F = [f for f in F if not f.is_zero()]
    if not F:
        return 0
    field, nvars = _field_and_nvars(F)
    if field.integral:
        F = [Polynomial(QQ, nvars, f.terms, _clean=True) for f in F]
    lms = buchberger(F, WeightedOrder((0,) * nvars, GREVLEX)).leading_monomials()
    return monomial_ideal_dim(lms, nvars, d)


def lift_groebner(
    F: list, order: WeightedOrder, monomials: list
) -> GroebnerBasis:
    """Reconstruct the reduced basis of <F> from its initial monomial ideal.

    For each degree d occurring among the claimed minimal generators, the
    coefficient matrix of all degree-d multiples of F is row reduced with the
    claimed initial monomials ordered first.  When the claim is consistent
    the pivots land exactly on that block and each target monomial's row is a
    reduced basis element; otherwise ``LiftInconsistent`` is raised.  F must
    be over Q or Qp; any other field raises ``ValueError``.  The generators
    are scaled to coprime integers, so the matrix stays integer until each
    target row is divided by its pivot entry.
    """
    F = [f for f in F if not f.is_zero()]
    if not F:
        raise ValueError("need at least one nonzero generator")
    field, nvars = _field_and_nvars(F)
    monomials = [tuple(m) for m in monomials]
    if any(len(m) != nvars for m in monomials):
        raise ValueError("monomial/variable mismatch")
    if not field.integral:
        raise ValueError("integer clearing needs rational coefficients")
    gens = [(f.homogeneous_degree(), _integer_terms(f)[0]) for f in F]
    targets = minimal_generators(monomials)
    if not targets:
        raise ValueError("no initial-ideal generators supplied")
    # each degree's monomials, enumerated once and unsorted: the pivot check
    # pins the rank, so the target rows depend on neither row nor column order
    by_degree = {}

    def of_degree(d):
        if d not in by_degree:
            by_degree[d] = list(compositions(nvars, d))
        return by_degree[d]

    out = []
    for d in sorted({mono_degree(m) for m in targets}):
        block = [m for m in of_degree(d) if any(mono_divides(t, m) for t in targets)]
        rows = []
        for degree, terms in gens:
            for v in of_degree(d - degree):
                rows.append({tuple(a + b for a, b in zip(m, v)): c
                             for m, c in terms.items()})
        got = _reduced_rows(
            field, nvars, rows, block, [t for t in targets if mono_degree(t) == d]
        )
        if got is None:
            raise LiftInconsistent(
                f"initial-ideal claim inconsistent in degree {d}: the first "
                f"{len(block)} columns are not exactly the pivots"
            )
        out.extend(got)
    return GroebnerBasis(sort_basis(out, order), order)


def _substitute_weights(f: Polynomial, weights, p: int) -> dict:
    """The primitive integer term dict of f under x_i -> p^(w_i) x_i, which
    multiplies each coefficient by p^(w . u)."""
    terms = _integer_terms(f)[0]
    shift = {m: weight_dot(weights, m) for m in terms}
    low = min(shift.values())
    out = {m: c * p ** (shift[m] - low) for m, c in terms.items()}
    g = gcd(*out.values())
    return {m: c // g for m, c in out.items()}


def gb_mod_pm(
    F: list,
    order: WeightedOrder,
    *,
    m: int | None = None,
    retry_budget: int = 5,
    use_criteria: bool = True,
    max_steps: int = 1_000_000,
    max_coeff_bits: int | None = 1_000_000,
    stats: dict | None = None,
) -> GroebnerBasis:
    """Reduced basis of a p-adic ideal computed through Z/p^m with lifting.

    On any inconsistency (singular reconstruction block or failed verification
    over Q) the modulus exponent is doubled, up to ``retry_budget`` times
    (a negative budget raises ``ValueError``);
    after that the computation falls back to the direct rational run.  The
    verification is exact, so in it only ``StepBudgetExceeded`` and
    ``CoefficientBlowup`` count as a failed attempt; anything else it raises
    propagates.
    ``stats`` receives p, the exponents tried (``m_values``), ``retries``
    and ``fallback``.
    """
    if retry_budget < 0:
        raise ValueError("retry budget must be nonnegative")
    F = [f for f in F if not f.is_zero()]
    if not F:
        raise ValueError("need at least one nonzero generator")
    field, nvars = _field_and_nvars(F)
    if order.nvars != nvars:
        raise ValueError("order/variable mismatch")
    if not isinstance(field, QpField):
        raise ValueError("mod-p^m acceleration requires a p-adic coefficient field")
    for idx, f in enumerate(F):
        if not f.is_homogeneous():
            raise ValueError(f"generator {idx} is not homogeneous")
    p = field.p
    prec = order.tiebreak
    zero_w = WeightedOrder((0,) * nvars, prec)

    substituted = [_substitute_weights(f, order.weights, p) for f in F]
    max_val = max(padic_valuation(c, p) for terms in substituted for c in terms.values())
    if m is None:
        m = max(16, 2 * (1 + max_val))

    info = {"p": p, "m_values": [], "retries": 0, "fallback": False}
    for _ in range(retry_budget + 1):
        info["m_values"].append(m)
        info["retries"] = len(info["m_values"]) - 1
        ring = ModPmRing(p, m)
        mapped = [Polynomial(ring, nvars, terms) for terms in substituted]
        try:
            modular = buchberger(
                mapped,
                zero_w,
                use_criteria=use_criteria,
                max_steps=max_steps,
            )
            claimed = minimal_generators(modular.leading_monomials())
            lifted = lift_groebner(F, order, claimed)
        except (ValueError, AssertionError, ZeroDivisionError,
                StepBudgetExceeded, CoefficientBlowup):
            # singular lift block, inexact division or violated progress
            # invariant mod p^m: symptoms of a too-small modulus exponent
            pass
        else:
            # the verification is exact rational arithmetic that does not
            # depend on m, so only an exhausted budget counts as a failed
            # attempt; any other exception there is a fault and propagates
            try:
                verified = is_basis_of(
                    lifted, F, max_steps=max_steps, max_coeff_bits=max_coeff_bits
                )
            except (StepBudgetExceeded, CoefficientBlowup):
                verified = False
            if verified:
                info["final_m"] = m
                if stats is not None:
                    stats.update(info)
                return lifted
        m *= 2

    info["fallback"] = True
    if stats is not None:
        stats.update(info)
    return reduce_basis(
        buchberger(
            F,
            order,
            use_criteria=use_criteria,
            max_steps=max_steps,
            max_coeff_bits=max_coeff_bits,
        )
    )
