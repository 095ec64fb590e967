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

where q is still to be divided and r is the remainder so far.  The identity
is homogeneous in (u, q, r, h), so the state only matters up to a common
scalar, and every step is one fraction-free combination of two states.  To
cancel the leading coefficient a of q against a divisor whose leading
coefficient is c, the loop sets

    state <- alpha*state - beta*x^v*(divisor's state).

An original divisor g_i has the state (0, g_i, 0, -e_i) of 0 = -g_i + g_i; a
recorded partial state (u_k, q_k, r_k, h_k) is subtracted whole, so
u <- alpha*u - beta*u_k and no scalar is inverted (u stays a unit because
beta*u_k/(alpha*u) has positive valuation).  The scalars and the upkeep
depend on the domain:

* over Q and Qp the dividend and the divisors are read as their primitive
  integer forms (memoized once, or already held by the loop's
  integer-backed elements), and the whole state (u, q, r) is held in
  integers: alpha = c/d and beta = a/d with d = gcd(a, c), and after each
  step the state is divided by its joint content, the gcd of u and of every
  coefficient of q and r, so a step does no Fraction arithmetic (only the
  trace and a breaker test near its budget build one);
* over Z/p^m, alpha = 1 and beta = a/c, and after a recorded-state step the
  state is rescaled back to u = 1, because division by a non-unit there is
  exact only modulo a smaller power of p, so the next quotient coefficient
  has to be taken from the state with u = 1 to be the same;
* over Q(t), alpha = 1 and beta = a/c, with no rescaling.

The state is thus always a scalar multiple of the one a division that
inverts 1 - lambda*u_k/u at every recorded step would hold, and the steps,
the trace and the remainder are exactly that division's.  The quotients h_i
are not carried in the loop: it keeps one short record per step, with the
scalar a step divided the state by, not its inverse.  Both the remainder
(divided by u) and the quotients are built from the final state the first
time ``DivisionResult`` is asked for them, and so is 1/u; the completion
loop reads only the integer remainder u*r.

A strong normal form divides every term it can: no term of r is divisible
by a leading monomial of the divisors.  A weak one (``weak=True``) stops at
the first leading term nothing in T divides and keeps all of q as r, so
only lm(r) is sure to avoid the divisors' leading monomials.  That is all
Buchberger's criterion reads (Greuel-Pfister), so the completion loop asks
for it over every field.  The strong form, the default, serves the readers
of the whole remainder: ``valgb nf``, which prints the division
certificate, and the loop over Z/p^m (m > 1), whose ``_modpm_normalize``
reads the remainder's p-content.

Every state in T shares the dividend's degree, so a recorded state divides
only at its own leading monomial; recorded states are kept in a dict keyed
by it.  A recorded state keeps copies of q and r; the live q and r are
updated in place.  Over a trivially valued field (Q and GF(p)) the leading
monomial strictly falls, so no recorded state is ever used: the loop counts
the states (|T| in traces) but records none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from math import gcd, lcm

from .fields import INF
from .polynomials import Monomial, Polynomial, mono_div, mono_divides, mono_mul, poly_to_str
from .weights import WeightedOrder, _leading, leading_term


class StepBudgetExceeded(RuntimeError):
    """Division exceeded its step budget; the division always terminates, so
    this only caps a run that is too long for the caller."""


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

    ``remainder`` and ``quotients`` are built from the division's final state
    and step record the first time each is read, and so is the 1/u they
    are scaled by; ``_r`` is u*remainder in the loop's scalars (integers
    over Q and Qp), empty iff the remainder is.
    """

    step_count: int
    trace: list | None = None
    _r: dict = field(default=None, repr=False)
    _remainder: object = field(default=None, repr=False)  # 1/u -> remainder
    _replay: object = field(default=None, repr=False)  # 1/u -> quotients
    _inverse: object = field(default=None, repr=False)  # () -> 1/u

    @cached_property
    def remainder(self) -> Polynomial:
        r = self._remainder(self._inverse())
        self._remainder = None
        return r

    @cached_property
    def quotients(self) -> list:
        h = self._replay(self._inverse())
        self._replay = None
        return h


@dataclass
class _Divisor:
    """An entry of T in the loop's scalars (integers over Q and Qp): an
    original divisor, whose index is its position, or a recorded state,
    whose index is its number and which keeps its r and u."""

    terms: dict
    lm: Monomial
    lc: object
    index: int
    r: dict | None = None
    u: object = None


def primitive_factor(f: Polynomial) -> Fraction:
    """The positive s that makes s*f a primitive integer polynomial (f over Q)."""
    return Fraction(*_integer_terms(f)[1:])


def _integer_terms(f: Polynomial) -> tuple:
    """(s*f as a primitive integer term dict, num, den) for the positive
    s = num/den in lowest terms, memoized on the (immutable) polynomial; an
    integer-backed polynomial holds it from the start."""
    cached = f._cache.get("integer-terms")
    if cached is None:
        cs = f.terms.values()
        # coprime: a prime dividing every numerator divides no denominator
        L, G = lcm(*(c.denominator for c in cs)), gcd(*(c.numerator for c in cs))
        terms = {m: c.numerator * L // (c.denominator * G) for m, c in f.terms.items()}
        cached = f._cache["integer-terms"] = (terms, L, G)
    return cached


def _combine(alpha, A: dict, beta, B: dict, xv, mod) -> dict:
    """The term dict alpha*A - beta*x^xv*B, reduced mod ``mod`` unless that
    is None; alpha and xv None stand for 1.  With alpha None, A itself is
    updated and returned."""
    out = A if alpha is None else {m: alpha * c for m, c in A.items()}
    for m, c in B.items():
        if xv is not None:
            m = mono_mul(m, xv)
        c = beta * c
        cur = out.get(m)
        c = -c if cur is None else cur - c
        if mod is not None:
            c %= mod
        if c:
            out[m] = c
        elif cur is not None:
            del out[m]
    return out


def _replay_quotients(fld, n: int, factors: list, record: list, inv_u) -> list:
    """The quotients h_i of f, rebuilt from the loop's step record.

    Record entries: None when the current state joins the recorded states;
    (k, xv, alpha, beta, content) for h <- (alpha*h + beta*x^xv*e_k)/content
    against original divisor k >= 0, or h <- (alpha*h - beta*h_~k)/content
    against recorded state ~k, where alpha and content None stand for 1.
    Finally h_i is multiplied by s_i*inv_u for factors[i] = (num, den) and
    s_i = num/den (a None num stands for s_i = 1, and a None inv_u for 1).
    """
    h = [Polynomial.zero(fld, n)] * len(factors)
    states = []
    for entry in record:
        if entry is None:
            states.append(list(h))
            continue
        k, xv, alpha, beta, content = entry
        if alpha is not None:
            h = [a.scale(alpha) for a in h]
        if k >= 0:
            h[k] = h[k] + Polynomial.term(fld, n, xv, beta)
        else:
            h = [a - b.scale(beta) for a, b in zip(h, states[~k])]
        if content is not None:
            h = [a.scale(fld.inv(content)) for a in h]
    factors = [inv_u if num is None else Fraction(num, den) * inv_u
               for num, den in factors]
    return [a if c is None else a.scale(c) for a, c in zip(h, factors)]


def normal_form(
    f: Polynomial,
    divisors: list,
    order: WeightedOrder,
    *,
    max_steps: int = 1_000_000,
    max_coeff_bits: int | None = None,
    trace: bool = False,
    weak: bool = False,
) -> DivisionResult:
    """Divide f by a list of homogeneous polynomials under a weighted order.

    Returns quotients h_i and a strong normal form r with
    f = sum h_i g_i + r and no term of r divisible by any leading monomial
    of the divisors.  Each h_i g_i and r rank no lower than f itself.  With
    ``weak`` the division stops, without a further step, at the first
    leading term that no entry of T divides and returns all that is left as
    r, a weak normal form: the steps before it are the same, and so is the
    identity, but only the leading monomial of r is sure to avoid the
    divisors' leading monomials.

    Internally the loop holds u*f = sum h_i g_i + q + r up to a common
    scalar (see the module docstring) and divides by u once at the end; the
    trace reports q/u and r/u, and the breaker tests the bits of lc(q)/u.
    The remainder and the quotients are built when first read.  Divisors
    are chosen by the support-count ecart (``support_count_ecart``).
    """
    fld = f.field
    n = f.nvars
    if not f.is_homogeneous():
        raise ValueError("dividend must be homogeneous")
    if order.nvars != n:
        raise ValueError("order/variable mismatch")
    mod = fld.modulus

    # the loop's scalars: integers s*g over Q and Qp, field scalars elsewhere
    in_loop_scalars = _integer_terms if fld.integral else lambda g: (g.terms, None, None)
    originals: list[_Divisor] = []
    factors = []
    for i, g in enumerate(divisors):
        if g.field != fld or g.nvars != n:
            raise ValueError("divisor field/variable mismatch")
        if g.is_zero():
            raise ValueError(f"divisor {i} is zero")
        if not g.is_homogeneous():
            raise ValueError(f"divisor {i} is not homogeneous")
        _, lm, _ = leading_term(g, order)
        terms, num, den = in_loop_scalars(g)
        originals.append(_Divisor(terms, lm, terms[lm], i))
        factors.append((num, den))

    one = fld.one()
    val = fld.val
    if fld.integral:
        # the state is held for the dividend s_f*f, so the unit is U*s_f
        Q, num_f, den_f = in_loop_scalars(f) if f else ({}, 1, 1)
        U = 1

        def ratio(a, c):
            d = gcd(a, c)
            if c < 0:
                d = -d
            alpha = c // d
            return (None if alpha == 1 else alpha), a // d

        def normalize(U, Q, R):
            g = gcd(*Q.values(), U, *R.values())
            if g == 1:
                return U, Q, R, None
            return (U // g, {m: c // g for m, c in Q.items()},
                    {m: c // g for m, c in R.items()}, g)

        def inverse_unit(U):
            return Fraction(den_f, U * num_f)

        def blown(a, U):
            num, den = a * den_f, U * num_f
            # reducing num/den only shrinks it: skip the gcd when in budget
            return (num.bit_length() + den.bit_length() > max_coeff_bits
                    and fld.bits(Fraction(num, den)) > max_coeff_bits)

        def unscaled(terms, inv_u):
            return Polynomial(fld, n, {m: inv_u * c for m, c in terms.items()}, _clean=True)
    else:
        Q = f.terms
        U = one

        def ratio(a, c):
            return None, fld.div(a, c)

        def normalize(U, Q, R):
            if mod is None or U == one:
                return U, Q, R, None
            inv = fld.inv(U)
            return (one, {m: c * inv % mod for m, c in Q.items()},
                    {m: c * inv % mod for m, c in R.items()}, U)

        def inverse_unit(U):
            return None if U == one else fld.inv(U)

        def blown(a, U):
            return fld.bits(fld.div(a, U)) > max_coeff_bits

        def unscaled(terms, inv_u):
            if inv_u is None:
                return Polynomial(fld, n, terms, _clean=True)
            return Polynomial(fld, n, {m: fld.mul(c, inv_u) for m, c in terms.items()},
                              _clean=True)

    Q = dict(Q)  # updated in place from here on
    R: dict = {}
    recorded: dict = {}  # leading monomial -> the states recorded there
    n_states = 0
    record: list = []  # read by _replay_quotients
    steps = 0
    trace_log: list[TraceStep] | None = [] if trace else None

    def record_state():
        nonlocal n_states
        if not fld.trivially_valued:  # else the lm strictly falls: never used
            recorded.setdefault(lm, []).append(_Divisor(dict(Q), lm, a, n_states, dict(R), U))
        n_states += 1
        record.append(None)

    while Q:
        if steps >= max_steps:
            raise StepBudgetExceeded(
                f"division did not finish within {max_steps} steps"
            )
        if trace_log is not None:
            inv_u = inverse_unit(U)
            q_start, r_start = unscaled(dict(Q), inv_u), unscaled(dict(R), inv_u)
        _, lm = _leading(Q, fld, order)
        a = Q[lm]
        if max_coeff_bits is not None and blown(a, U):
            raise CoefficientBlowup(
                f"leading coefficient exceeded {max_coeff_bits} bits after {steps} steps"
            )

        # choose the dividing entry of T with minimal (support-count) ecart;
        # original divisors win ties, then earliest insertion.  A recorded
        # state has the degree of f, so it divides only at its own lm.
        best = None
        best_key = None
        q_supp = Q.keys()
        for entry in originals:
            if mono_divides(entry.lm, lm):
                key = (len(entry.terms.keys() - q_supp), 0, entry.index)
                if best_key is None or key < best_key:
                    best, best_key = entry, key
        for entry in recorded.get(lm, ()):
            key = (len(entry.terms.keys() - q_supp), 1, entry.index)
            if best_key is None or key < best_key:
                best, best_key = entry, key

        if best is None:
            if weak:  # R is still empty: all of q is the remainder
                R = Q
                break
            # move the leading term to the remainder; the current state joins T
            record_state()
            R[lm] = a
            del Q[lm]
            action, dlabel = "remainder", "-"
        else:
            if best_key[0] > 0:
                record_state()
            alpha, beta = ratio(a, best.lc)
            if best_key[1] == 0:
                k = best.index
                xv = mono_div(lm, best.lm)
                Q = _combine(alpha, Q, beta, best.terms, xv if any(xv) else None, mod)
                if alpha is not None:
                    U = alpha * U
                    R = {m: alpha * c for m, c in R.items()}
                action, dlabel = "divide", f"g{k + 1}"
            else:
                # dividing by a recorded partial state at lm (no cofactor): the
                # quotient coefficient of the u = 1 division is (beta/alpha)*u_k/u
                xv = None
                v = val(beta)
                if v is not INF:
                    v += val(best.u) - val(U) - (0 if alpha is None else val(alpha))
                if not (v is not INF and v > 0):
                    raise AssertionError(
                        "quotient coefficient against a recorded state must have positive valuation"
                    )
                k = ~best.index
                U = (U if alpha is None else alpha * U) - beta * best.u
                if mod is not None:
                    U %= mod
                Q = _combine(alpha, Q, beta, best.terms, None, mod)
                R = _combine(alpha, R, beta, best.r, None, mod)
                action, dlabel = "divide-recorded", "q"
            content = None
            if Q:
                U, Q, R, content = normalize(U, Q, R)
            record.append((k, xv, alpha, beta, content))
        if trace_log is not None:
            trace_log.append(
                TraceStep(steps, q_start, r_start, action, dlabel, lm,
                          len(originals) + n_states)
            )
        steps += 1

    return DivisionResult(
        steps, trace_log, R, partial(unscaled, R),
        partial(_replay_quotients, fld, n, factors, record), partial(inverse_unit, U),
    )
