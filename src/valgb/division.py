"""Valuation-aware Mora division with full quotient certificates.

Naive reduction that always cancels the lowest-valuation term need not
terminate over a nontrivially valued field (reducing x by {x-2y, y-2z, z-2x}
2-adically cycles forever).  The fix is the tangent-cone trick: previous
partial results are allowed as divisors, and a nonnegative ecart is kept
minimal when choosing among divisors.  With the support-count ecart the set
of possible supports is finite, so the support of the running polynomial
eventually shrinks and the division terminates.

The loop keeps a weak normal form with a unit (Greuel-Pfister, *A Singular
Introduction to Commutative Algebra*): a scalar u and polynomials q, r, h_i
with

    u*f = sum h_i g_i + q + r,

where q is still to be divided and r is the remainder so far.  Dividing by a
recorded state (u_k, q_k, r_k, h_k) with lambda = lc(q)/lc(q_k) subtracts
lambda times that state from all four parts, so u <- u - lambda*u_k and no
scalar is inverted; u stays a unit because lambda*u_k/u has positive
valuation.  After such a step the whole state is rescaled by one scalar:

* over Q and Qp so that q is a primitive integer polynomial, which keeps
  the coefficients small;
* over Z/p^m back to u = 1, because division by a non-unit there is exact
  only modulo a smaller power of p, so the next quotient coefficient has to
  be taken from the state with u = 1 to be the same;
* over Q(t) not at all.

The state is thus always a scalar multiple of the one a division that
inverts 1 - lambda*u_k/u at every recorded step would hold, and the steps,
the trace and the remainder are exactly that division's.  The remainder is
divided by u once, at the end.  The quotients h_i are not carried in the
loop: it keeps one short record per step, which ``DivisionResult.quotients``
replays the first time it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from math import gcd, lcm

from .fields import INF, ModPmRing, QpField, RationalField
from .polynomials import Monomial, Polynomial, mono_div, mono_divides, poly_to_str
from .weights import WeightedOrder, leading_term


class StepBudgetExceeded(RuntimeError):
    """Division exceeded its step budget (only possible with a custom ecart)."""


class CoefficientBlowup(RuntimeError):
    """A running coefficient outgrew the configured bit budget."""


def support_count_ecart(f: Polynomial, g: Polynomial) -> int:
    """Number of monomials of g absent from f; zero iff supp(g) is inside supp(f)."""
    if f.is_zero() or g.is_zero():
        raise ValueError("ecart of a zero polynomial is undefined")
    return len(g.terms.keys() - f.terms.keys())


@dataclass
class TraceStep:
    """State at the start of one loop iteration plus the action taken."""

    index: int
    q: Polynomial
    r: Polynomial
    action: str
    divisor: str
    lm: Monomial
    t_size: int

    def line(self, names=None) -> str:
        lm_poly = Polynomial.term(self.q.field, self.q.nvars, self.lm, self.q.field.one())
        return (
            f"j={self.index} action={self.action} divisor={self.divisor} "
            f"lm={poly_to_str(lm_poly, names)} |T|={self.t_size}"
        )


@dataclass(eq=False)
class DivisionResult:
    """Certificate f = sum(quotients[i] * divisors[i]) + remainder.

    ``quotients`` is built from the division's step record the first time it
    is read; a caller that reads only the remainder never pays for it.
    """

    remainder: Polynomial
    step_count: int
    trace: list | None = None
    _replay: object = field(default=None, repr=False)

    @cached_property
    def quotients(self) -> list:
        h = self._replay()
        self._replay = None
        return h


@dataclass
class _Divisor:
    poly: Polynomial
    lm: Monomial
    lc: object
    supp: frozenset
    orig_index: int | None = None
    # a recorded state: its number, and its r and u
    state: int | None = None
    r: Polynomial | None = None
    u: object = None


def _coeff_bits(c) -> int:
    if isinstance(c, int):
        return c.bit_length()
    if hasattr(c, "numerator"):
        return c.numerator.bit_length() + c.denominator.bit_length()
    if hasattr(c, "num"):  # rational function
        bits = 0
        for part in (c.num, c.den):
            for fr in part:
                bits = max(bits, fr.numerator.bit_length() + fr.denominator.bit_length())
        return bits
    return 0


def primitive_factor(f: Polynomial) -> Fraction:
    """The positive s that makes s*f a primitive integer polynomial (f over Q)."""
    cs = f.terms.values()
    return Fraction(lcm(*(c.denominator for c in cs)), gcd(*(c.numerator for c in cs)))


def _rescaling(fld):
    """The factor rescale(q, u) applied to the state after a recorded-state
    step, or None."""
    if isinstance(fld, (RationalField, QpField)):
        return lambda q, u: primitive_factor(q)
    if isinstance(fld, ModPmRing):
        return lambda q, u: fld.inv(u)
    return None


def _replay_quotients(fld, n: int, s: int, record: list, inv_u) -> list:
    """The quotients h_i of f, rebuilt from the loop's step record.

    Record entries: None when the current state joins the recorded states;
    (i, xv, lam) for h_i += lam*x^xv; (~k, lam, scale) for
    h = scale*(h - lam*h_k) against recorded state k (scale may be None).
    """
    h = [Polynomial.zero(fld, n)] * s
    states = []
    for entry in record:
        if entry is None:
            states.append(list(h))
        elif entry[0] >= 0:
            i, xv, lam = entry
            h[i] = h[i] + Polynomial.term(fld, n, xv, lam)
        else:
            k, lam, scale = entry
            h = [a - b.scale(lam) for a, b in zip(h, states[~k])]
            if scale is not None:
                h = [a.scale(scale) for a in h]
    if inv_u is not None:
        h = [a.scale(inv_u) for a in h]
    return h


def normal_form(
    f: Polynomial,
    divisors: list,
    order: WeightedOrder,
    ecart=support_count_ecart,
    *,
    max_steps: int = 1_000_000,
    max_coeff_bits: int | None = None,
    trace: bool = False,
) -> DivisionResult:
    """Divide f by a list of homogeneous polynomials under a weighted order.

    Returns quotients h_i and a strong normal form r with
    f = sum h_i g_i + r and no term of r divisible by any leading monomial
    of the divisors.  Each h_i g_i and r rank no lower than f itself.

    Internally the loop holds u*f = sum h_i g_i + q + r for a scalar unit u
    (see the module docstring) and divides by u once at the end; the trace
    reports q/u and r/u, and the breaker tests the bits of lc(q)/u.  The
    quotients are built when ``quotients`` is first read.  A custom ``ecart``
    sees q up to that scalar, so it should depend on supports only.
    """
    fld = f.field
    n = f.nvars
    if not f.is_homogeneous():
        raise ValueError("dividend must be homogeneous")
    if order.nvars != n:
        raise ValueError("order/variable mismatch")
    T: list[_Divisor] = []
    for i, g in enumerate(divisors):
        if g.field != fld or g.nvars != n:
            raise ValueError("divisor field/variable mismatch")
        if g.is_zero():
            raise ValueError(f"divisor {i} is zero")
        if not g.is_homogeneous():
            raise ValueError(f"divisor {i} is not homogeneous")
        _, lm, lc = leading_term(g, order)
        T.append(_Divisor(g, lm, lc, frozenset(g.terms), i))

    one = fld.one()
    rescale = _rescaling(fld)
    u = one
    q = f
    r = Polynomial.zero(fld, n)
    record: list = []  # read by _replay_quotients
    steps = 0
    trace_log: list[TraceStep] | None = [] if trace else None
    default_ecart = ecart is support_count_ecart

    def unscaled(p: Polynomial) -> Polynomial:
        return p if u == one else p.map_coefficients(lambda c: fld.div(c, u))

    def record_state():
        state = len(T) - len(divisors)
        T.append(_Divisor(q, lmq, lcq, frozenset(q.terms), None, state, r, u))
        record.append(None)

    while not q.is_zero():
        if steps >= max_steps:
            raise StepBudgetExceeded(
                f"division did not finish within {max_steps} steps; "
                "the supplied ecart function may not guarantee termination"
            )
        if trace_log is not None:
            q_start, r_start = unscaled(q), unscaled(r)
        _, lmq, lcq = leading_term(q, order)
        if max_coeff_bits is not None and _coeff_bits(fld.div(lcq, u)) > max_coeff_bits:
            raise CoefficientBlowup(
                f"leading coefficient exceeded {max_coeff_bits} bits after {steps} steps"
            )

        # choose the dividing entry of T with minimal ecart; original divisors
        # win ties, then earliest insertion
        best = None
        best_key = None
        q_supp = q.terms.keys()
        for idx, entry in enumerate(T):
            if not mono_divides(entry.lm, lmq):
                continue
            if default_ecart:
                e_val = len(entry.supp - q_supp)
            else:
                e_val = ecart(q, entry.poly)
            key = (e_val, 0 if entry.orig_index is not None else 1, idx)
            if best_key is None or key < best_key:
                best, best_key = entry, key

        if best is None:
            # move the leading term to the remainder; the current state joins T
            record_state()
            lead = Polynomial.term(fld, n, lmq, lcq)
            r = r + lead
            q = q - lead
            action, dlabel = "remainder", "-"
        else:
            if best_key[0] > 0:
                record_state()
            xv = mono_div(lmq, best.lm)
            lam = fld.div(lcq, best.lc)
            if best.orig_index is not None:
                i = best.orig_index
                q = q - best.poly.mono_mul(xv, lam)
                record.append((i, xv, lam))
                action, dlabel = "divide", f"g{i + 1}"
            else:
                # dividing by a recorded partial state: same degree forces xv = 1
                if any(xv):
                    raise AssertionError("recorded-state divisor with nontrivial cofactor")
                # the quotient coefficient of the u = 1 division is lam*u_k/u
                v = fld.val(lam)
                if v is not INF:
                    v += fld.val(best.u) - fld.val(u)
                if not (v is not INF and v > 0):
                    raise AssertionError(
                        "quotient coefficient against a recorded state must have positive valuation"
                    )
                q = q - best.poly.scale(lam)
                r = r - best.r.scale(lam)
                u = fld.sub(u, fld.mul(lam, best.u))
                scale = None
                if rescale is not None and not q.is_zero():
                    scale = rescale(q, u)
                    if scale == one:
                        scale = None
                    else:
                        q, r, u = q.scale(scale), r.scale(scale), fld.mul(u, scale)
                record.append((~best.state, lam, scale))
                action, dlabel = "divide-recorded", "q"
        if trace_log is not None:
            trace_log.append(
                TraceStep(steps, q_start, r_start, action, dlabel, lmq, len(T))
            )
        steps += 1

    inv_u = None if u == one else fld.inv(u)
    if inv_u is not None:
        r = r.scale(inv_u)
    replay = partial(_replay_quotients, fld, n, len(divisors), record, inv_u)
    return DivisionResult(r, steps, trace_log, replay)
