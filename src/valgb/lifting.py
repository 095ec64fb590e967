"""Hilbert dimensions, basis reconstruction from an initial ideal, and the
mod-p^m acceleration with verified lifting.

Working over Z/p^m tames the coefficient blow-up of exact rational runs:
substitute x_i -> p^(w_i) x_i, scale to primitive integer polynomials (so no
p-content is left), complete a basis mod p^m with weight zero, read off the
initial monomial ideal, and reconstruct the reduced rational basis degree by
degree.  The reconstruction row reduces the integer coefficient rows of the
generators' multiples fraction-free and builds Fractions only for the rows
it returns.  It fails loudly when m was too small, so the whole pipeline
verifies over Q and retries with doubled m.  The reconstruction takes Q and
Qp generators only; Hilbert dimensions take any field.
"""

from __future__ import annotations

from fractions import Fraction

from .division import CoefficientBlowup, StepBudgetExceeded, primitive_factor
from .fields import INF, ModPmRing, QQ, QpField, padic_valuation
from .groebner import (
    GroebnerBasis,
    buchberger,
    is_basis_of,
    minimal_generators,
    monic,
    reduce_basis,
    sort_basis,
)
from .linalg import rref
from .polynomials import (
    GREVLEX,
    Polynomial,
    mono_degree,
    mono_divides,
    monomials_of_degree,
)
from .weights import WeightedOrder, weight_dot


class LiftInconsistent(ValueError):
    """The claimed initial-ideal generators cannot index an identity block;
    for a mod-p^m run this signals that the modulus exponent was too small."""


def clear_denominators(f: Polynomial) -> Polynomial:
    """Integer-primitive rescaling: coefficients become coprime integers."""
    if f.is_zero():
        return f
    if not isinstance(next(iter(f.terms.values())), Fraction):
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
    if isinstance(field, QpField):
        F = [Polynomial(QQ, nvars, f.terms, _clean=True) for f in F]
    lms = buchberger(F, WeightedOrder((0,) * nvars, GREVLEX)).leading_monomials()
    return sum(
        1 for m in monomials_of_degree(nvars, d) if any(mono_divides(t, m) for t in lms)
    )


def lift_groebner(
    F: list, order: WeightedOrder, monomials: list
) -> GroebnerBasis:
    """Reconstruct the reduced basis of <F> from its initial monomial ideal.

    For each degree d occurring among the claimed minimal generators, the
    coefficient matrix of all degree-d multiples of F is row reduced with the
    claimed initial monomials ordered first.  When the claim is consistent
    the pivots land exactly on that block and each target monomial's row is a
    reduced basis element.  F must be over Q or Qp; any other field raises
    ``ValueError``.  The generators are scaled to coprime integers, so the
    matrix stays integer until the target rows are read.
    """
    F = [f for f in F if not f.is_zero()]
    if not F:
        raise ValueError("need at least one nonzero generator")
    field, nvars = _field_and_nvars(F)
    monomials = [tuple(m) for m in monomials]
    if any(len(m) != nvars for m in monomials):
        raise ValueError("monomial/variable mismatch")
    gens = [
        (f.homogeneous_degree(),
         {m: c.numerator for m, c in clear_denominators(f).terms.items()})
        for f in F
    ]
    targets = minimal_generators(monomials)
    if not targets:
        raise ValueError("no initial-ideal generators supplied")
    out = []
    for d in sorted({mono_degree(m) for m in targets}):
        all_d = monomials_of_degree(nvars, d, order.tiebreak)
        block = [m for m in all_d if any(mono_divides(t, m) for t in targets)]
        rest = [m for m in all_d if not any(mono_divides(t, m) for t in targets)]
        columns = block + rest
        index = {m: i for i, m in enumerate(columns)}
        rows = []
        for degree, terms in gens:
            for v in monomials_of_degree(nvars, d - degree):
                row = [0] * len(columns)
                for m, c in terms.items():
                    row[index[tuple(a + b for a, b in zip(m, v))]] = c
                rows.append(row)
        reduced, pivots, den = rref(rows)
        if pivots != list(range(len(block))):
            raise LiftInconsistent(
                f"initial-ideal claim inconsistent in degree {d}: expected the "
                f"first {len(block)} columns to be pivots, got {pivots}"
            )
        for t in targets:
            if mono_degree(t) != d:
                continue
            terms = {
                m: Fraction(c, den) for m, c in zip(columns, reduced[index[t]]) if c
            }
            out.append(Polynomial(field, nvars, terms, _clean=True))
    return GroebnerBasis(sort_basis(out, order), order)


def _substitute_weights(f: Polynomial, weights, p: int) -> Polynomial:
    """x_i -> p^(w_i) x_i: each coefficient picks up p^(w . u)."""
    field = f.field
    out = {}
    for m, c in f.terms.items():
        out[m] = field.mul(c, Fraction(p) ** weight_dot(weights, m))
    return Polynomial(field, f.nvars, out, _clean=True)


def _modpm_normalize(f: Polynomial, order: WeightedOrder) -> Polynomial:
    """Strip p-content; declare noise-level elements zero.

    A reduction that vanishes over Q shows up mod p^m as a polynomial whose
    every coefficient carries at least m minus a bounded number of p-powers,
    so stripping would promote pure truncation noise to a fake basis element.
    Anything with content at m/2 or above is treated as a reduction to zero;
    false zeros are caught by the rational verification and a larger m.
    """
    ring = f.field
    s = min(ring.val(c) for c in f.terms.values())
    if s is INF or s >= max(1, ring.m // 2):
        return Polynomial.zero(ring, f.nvars)
    if s:
        q = ring.p**s
        f = Polynomial(
            ring, f.nvars, {m: c // q for m, c in f.terms.items()}, _clean=True
        )
    return monic(f, order)


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

    substituted = [clear_denominators(_substitute_weights(f, order.weights, p)) for f in F]
    max_val = 0
    for f in substituted:
        for c in f.terms.values():
            if c != 0:
                max_val = max(max_val, padic_valuation(c.numerator, p))
    if m is None:
        m = max(16, 2 * (1 + max_val))

    info = {"p": p, "m_values": [], "retries": 0, "fallback": False}
    for _ in range(retry_budget + 1):
        info["m_values"].append(m)
        info["retries"] = len(info["m_values"]) - 1
        ring = ModPmRing(p, m)
        mapped = [f.map_coefficients(ring.coerce, ring) for f in substituted]
        try:
            modular = buchberger(
                mapped,
                zero_w,
                use_criteria=use_criteria,
                max_steps=max_steps,
                normalize=_modpm_normalize,
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
        ),
        max_steps=max_steps,
    )
