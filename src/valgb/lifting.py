"""Hilbert dimensions, basis reconstruction from an initial ideal, the
certificate that verifies a basis over every field, and the mod-p^m
acceleration it certifies.

Working over Z/p^m tames the coefficient blow-up of exact rational runs:
substitute x_i -> p^(w_i) x_i, scale to primitive integer polynomials (so no
p-content is left), complete a basis mod p^m with weight zero (over Z/p^m,
``buchberger`` itself strips each new element's p-content and reads
truncation noise as zero), read off the initial monomial ideal, and
reconstruct the reduced rational basis degree by degree.  The reconstruction
row reduces the generators' multiples of each degree, over Q and Qp as
primitive integer rows that become Fractions only in the rows it returns,
and over Q(t) as rows of the field's scalars.  It leaves out the multiples
x^v*f_i that the Koszul form of the F5 criterion (Faugere 2002) shows to lie
in the span of the others: those where the grevlex leading monomial of an
earlier generator divides x^v.  The row space, and so the pivots, stay
those of all the multiples.  It reads the RREF with the routine that gives
``reduce_basis`` its reduced bases over every field: sparse rows, with only
the target rows back-substituted.  Only the rows differ, since the
generators are not a basis.  It fails loudly when m was too small.

The lifted basis is then certified without valued division (Traverso,
"Hilbert functions and the Buchberger algorithm", 1996).  Each lifted
element lies in I = <F>, so once its leading monomial is the claimed one,
the claimed monomial ideal C lies in the leading ideal of I, and
dim C_d <= dim I_d in every degree d.  Where the two are equal, C_d is the
whole leading ideal in degree d, and no S-polynomial of that degree can
leave a nonzero remainder.  The counts are checked at every generator
degree and at the lcm degree of every pair the coprime criterion does not
skip.  At a lift degree they are equal by construction: the lift's pivots
are exactly C_d among all multiples of F.  Elsewhere dim I_d is bounded by
c_d, the count of r <= n generic forms (``hilbert.generic_dims``), or read
from one grevlex completion with weight zero (over the trivially valued Q
for Q and Qp generators).  A mismatch, like an inconsistent lift, means m
was too small: the pipeline retries with doubled m.  ``valgb gb --verify``
certifies a printed basis the same way over every field
(``_certified_by_lift``).
"""

from __future__ import annotations

from functools import cache, partial
from math import gcd
from operator import add

from .division import (CoefficientBlowup, StepBudgetExceeded, _integer_terms, _over_q,
                       primitive_factor)
from .fields import ModPmRing, QpField, padic_valuation
from .hilbert import _shifts, generic_dims, monomial_ideal_dim, multiples
from .groebner import (
    GroebnerBasis,
    _reduced_rows,
    buchberger,
    minimal_generators,
    reduce_basis,
    sort_basis,
)
from .polynomials import (
    GREVLEX,
    Polynomial,
    mono_degree,
    mono_divides,
    mono_lcm,
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
    return monomial_ideal_dim(_grevlex_leading_ideal(F), F[0].nvars, d)


def _grevlex_leading_ideal(F: list) -> list:
    """The leading monomials of one grevlex basis of <F> with weight zero,
    over the trivially valued Q when F is over Q or Qp."""
    field, nvars = _field_and_nvars(F)
    if field.integral:
        F = [_over_q(f) for f in F]
    return buchberger(F, WeightedOrder((0,) * nvars, GREVLEX)).leading_monomials()


def _lift_rows(gens: list, nvars: int, d: int) -> tuple:
    """The degree-d rows x^v*f_i of the lift, as term dicts, and how many
    were pruned; ``gens`` holds (degree, terms, grevlex lm) per generator.

    A row x^v*f_i is left out when the grevlex leading monomial of an
    earlier generator f_j divides x^v, the Koszul form of the F5 criterion
    (Faugere 2002): with x^v = x^u*lm(f_j), lc(f_j)*x^v*f_i is
    x^u*f_i*f_j, a sum of rows of f_j, minus x^u*tail(f_j)*f_i, a sum of
    rows x^w*f_i with x^w below x^v in grevlex.  By induction on (i, x^v)
    every row lies in the span of the kept ones, so the row space and the
    pivots are those of all the rows.
    """
    rows, pruned, earlier = [], 0, []
    for degree, terms, lm in gens:
        e = d - degree
        if e >= 0:
            divisors = [m for m in earlier if mono_degree(m) <= e]
            for v in _shifts(nvars, e):
                if any(mono_divides(m, v) for m in divisors):
                    pruned += 1
                else:
                    rows.append({tuple(map(add, m, v)): c for m, c in terms.items()})
        earlier.append(lm)
    return rows, pruned


def lift_groebner(
    F: list, order: WeightedOrder, monomials: list
) -> GroebnerBasis:
    """Reconstruct the reduced basis of <F> from its initial monomial ideal.

    For each degree d occurring among the claimed minimal generators, the
    coefficient matrix of the degree-d multiples of F is row reduced with
    the claimed initial monomials ordered first.  Multiples that the
    Koszul criterion shows redundant are left out (``_lift_rows``), and
    only the target rows are back-substituted.  When the claim is
    consistent the pivots land exactly on that block and each target
    monomial's row is a reduced basis element; otherwise
    ``LiftInconsistent`` is raised.  F may be over any field; Z/p^m with
    m > 1 raises ``ValueError``.  Over Q and Qp the generators are scaled
    to coprime integers, so the matrix stays integer until each target row
    is divided by its pivot entry; over other fields the rows hold the
    field's scalars.  ``stats["degrees"]`` maps each lift degree to its
    rows kept and pruned, its columns and its rank.
    """
    F = [f for f in F if not f.is_zero()]
    if not F:
        raise ValueError("need at least one nonzero generator")
    field, nvars = _field_and_nvars(F)
    monomials = [tuple(m) for m in monomials]
    if any(len(m) != nvars for m in monomials):
        raise ValueError("monomial/variable mismatch")
    if not field.is_field:
        raise ValueError(f"{field.label} is not a field; the lift needs one")
    grevlex = GREVLEX._keys.__getitem__
    gens = []
    for f in F:
        terms = _integer_terms(f)[0] if field.integral else f.terms
        gens.append((f.homogeneous_degree(), terms, max(terms, key=grevlex)))
    targets = minimal_generators(monomials)
    if not targets:
        raise ValueError("no initial-ideal generators supplied")
    out, degrees = [], {}
    for d in sorted({mono_degree(m) for m in targets}):
        # the pivot check pins the rank, so the target rows depend on neither
        # row nor column order; grevlex-descending columns keep the rows,
        # whose grevlex leading monomials mostly differ, near echelon form
        block = sorted(multiples(targets, nvars, d), key=grevlex, reverse=True)
        rows, pruned = _lift_rows(gens, nvars, d)
        got = _reduced_rows(
            field, nvars, rows, block, [t for t in targets if mono_degree(t) == d], order
        )
        if got is None:
            raise LiftInconsistent(
                f"initial-ideal claim inconsistent in degree {d}: the first "
                f"{len(block)} columns are not exactly the pivots"
            )
        degrees[d] = {"rows": len(rows), "pruned": pruned,
                      "columns": len(set().union(*rows)), "rank": len(block)}
        out.extend(got)
    return GroebnerBasis(sort_basis(out, order), order, stats={"degrees": degrees})


def _certificate_failure(F: list, claimed: list, lifted: GroebnerBasis,
                         leading_ideal=None) -> str | None:
    """Why ``lifted``, lifted from the claimed minimal generators C of the
    initial ideal of <F>, is not certified as a basis of <F>; None when it is.

    Every lifted element lies in I = <F>.  Their leading monomials must be
    exactly C, which puts C inside the leading ideal of I.  Then
    dim C_d = dim I_d is checked at every generator degree and at the lcm
    degree of every pair of C that the coprime criterion does not skip.  A
    lift degree passes by construction: the lift's pivots among all the
    degree-d multiples of F are exactly C_d.  Elsewhere, with at most n
    generators, dim C_d = c_d suffices (c_d bounds dim I_d); otherwise
    dim I_d is read from the leading monomials of one grevlex completion of
    F with weight zero (over the trivially valued Q for Q and Qp), asked of
    ``leading_ideal()`` at most once
    (by default ``_grevlex_leading_ideal(F)``; ``gb_mod_pm`` passes one
    memoized across its attempts).  Equal counts make C_d the whole leading
    ideal in degree d, so no S-pair there leaves a nonzero remainder, and at
    a generator degree the lifted elements span I_d.  No valued arithmetic
    is done; an exception raised here is a fault, not a failed attempt.
    """
    if sorted(lifted.leading_monomials()) != sorted(claimed):
        return "a lifted leading monomial differs from the claimed initial ideal"
    nvars = lifted.order.nvars
    generator_degrees = [f.homogeneous_degree() for f in F]
    degrees = set(generator_degrees)
    for i, s in enumerate(claimed):
        for t in claimed[:i]:
            if any(a and b for a, b in zip(s, t)):  # not skipped by B1
                degrees.add(mono_degree(mono_lcm(s, t)))
    degrees -= {mono_degree(t) for t in claimed}
    generic = generic_dims(nvars, generator_degrees) if len(F) <= nvars else None
    ideal_lms = None
    for d in sorted(degrees):
        count = monomial_ideal_dim(claimed, nvars, d)
        if generic is not None and count == generic(d):
            continue
        if ideal_lms is None:
            ideal_lms = (leading_ideal or partial(_grevlex_leading_ideal, F))()
        expected = monomial_ideal_dim(ideal_lms, nvars, d)
        if count != expected:
            return (f"the claimed initial ideal has {count} monomials in degree "
                    f"{d}, where dim I_d = {expected}")
    return None


def _certified_by_lift(basis: GroebnerBasis, F: list) -> bool:
    """Whether a reduced basis over any field is the reduced basis of <F>:
    the lift rebuilds it from its own leading monomials, and the certificate
    accepts it.  This shows <basis> = <F> and does no valued division; it
    is the one verifier of ``valgb gb --verify``."""
    F = [f for f in F if not f.is_zero()]
    claimed = minimal_generators(basis.leading_monomials())
    try:
        lifted = lift_groebner(F, basis.order, claimed)
    except LiftInconsistent:
        return False
    return (lifted.elements == basis.elements
            and _certificate_failure(F, claimed, lifted) is None)


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
    """Reduced basis of a p-adic ideal computed through Z/p^m with lifting,
    certified by the lift and Hilbert counts.

    An attempt at m fails when the modular run or the lift fails (a
    singular reconstruction block, inexact division, an exhausted step
    budget) or when the certificate rejects the lifted basis
    (``_certificate_failure``).  Each failure doubles the modulus exponent,
    up to ``retry_budget`` times (a negative budget raises ``ValueError``);
    after that the computation falls back to the direct rational run.  The
    certificate is exact and does no valued arithmetic, so an exception
    raised in it is a fault and propagates.  ``max_steps`` bounds the
    modular run and the fallback; ``max_coeff_bits`` bounds only the
    fallback, since nothing else divides over Qp.
    ``stats`` receives p, the exponents tried (``m_values``), ``retries``,
    ``fallback``, ``failures``: one dict per failed attempt with its ``m``,
    its ``stage`` (``modular``, ``lift`` or ``certificate``) and the
    ``message``, and on success ``final_m`` and ``modular``, the certified
    attempt's modular-run counters (``buchberger``'s stats, ``hilbert``
    among them).  The returned basis carries the lift's ``stats``.
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

    # the certificate's Q completion depends on F alone: built at most once
    leading_ideal = cache(partial(_grevlex_leading_ideal, F))
    info = {"p": p, "m_values": [], "retries": 0, "fallback": False, "failures": []}
    for _ in range(retry_budget + 1):
        info["m_values"].append(m)
        info["retries"] = len(info["m_values"]) - 1
        ring = ModPmRing(p, m)
        mapped = [Polynomial(ring, nvars, terms) for terms in substituted]
        stage = "modular"
        try:
            modular = buchberger(
                mapped,
                zero_w,
                use_criteria=use_criteria,
                max_steps=max_steps,
            )
            stage = "lift"
            claimed = minimal_generators(modular.leading_monomials())
            lifted = lift_groebner(F, order, claimed)
        except (ValueError, AssertionError, ZeroDivisionError,
                StepBudgetExceeded, CoefficientBlowup) as exc:
            # singular lift block, inexact division or violated progress
            # invariant mod p^m: symptoms of a too-small modulus exponent
            failure = f"{type(exc).__name__}: {exc}"
        else:
            stage = "certificate"
            failure = _certificate_failure(F, claimed, lifted, leading_ideal)
            if failure is None:
                info["final_m"] = m
                info["modular"] = modular.stats
                if stats is not None:
                    stats.update(info)
                return lifted
        info["failures"].append({"m": m, "stage": stage, "message": failure})
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
