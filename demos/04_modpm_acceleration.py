"""
Taming coefficient blow-up: skip criteria and Z/p^m
===================================================

Rational runs can explode even when the answer is small: one S-pair of this
ten-generator ideal in nine variables drives intermediate coefficients past
any reasonable size if reduced naively, although the pair is known a priori
to reduce to zero (its leading monomials are coprime).  Two remedies are
shown: the B1/B2 skip criteria, and computing mod 2^m followed by an exact
lift, certified by the lift's pivots and Hilbert counts with no division
over Qp.
"""

import time

from valgb import GREVLEX, Qp, WeightedOrder, buchberger, gb_mod_pm, reduce_basis
from valgb.division import CoefficientBlowup
from valgb.parsing import parse_polynomial

GENERATORS = [
    "-3x1*x4+6x3*x4+3x1*x5+92x2*x5+2x3*x5-23x2*x6-2x3*x6",
    "x1*x8+7x2*x8-4x3*x8-6x1*x9-3x2*x9",
    "x4*x8+3x5*x8-3x6*x8-24x5*x9-3x6*x9",
    "-x2*x4-4x3*x4+x2*x5+4x3*x5+23x2*x6+2x3*x6",
    "-13x1*x7-4x3*x7+7x2*x8+28x3*x8-65x1*x9-3x2*x9-32x3*x9",
    "x4*x7+27x5*x7-9x6*x8+5x4*x9+135x5*x9-9x6*x9",
    "-4x2*x5-16x3*x5+3x1*x6+x2*x6-2x3*x6",
    "13x2*x7-8x3*x7+x2*x8+4x3*x8+59x2*x9-64x3*x9",
    "8x5*x7+x6*x7-3x6*x8+40x5*x9+5x6*x9",
    "4x2*x5*x8+16x3*x5*x8+20x2*x6*x8-10x3*x6*x8-24x2*x5*x9-96x3*x5*x9"
    "-3x2*x6*x9-12x3*x6*x9",
]

field = Qp(2)
names = [f"x{i}" for i in range(1, 10)]
gens = [parse_polynomial(s, field, names) for s in GENERATORS]
order = WeightedOrder((0,) * 9, GREVLEX)

t0 = time.perf_counter()
basis = buchberger(gens, order)
print(f"with criteria: {len(basis.elements)} elements in {time.perf_counter()-t0:.3f}s "
      f"(B1 skipped {basis.stats['b1']}, B2 skipped {basis.stats['b2']})")

try:
    buchberger(gens, order, use_criteria=False, max_coeff_bits=20000)
    print("without criteria: completed (coefficients stayed small this time)")
except CoefficientBlowup as exc:
    print(f"without criteria: circuit breaker tripped - {exc}")

stats = {}
t0 = time.perf_counter()
lifted = gb_mod_pm(gens, order, stats=stats)
print(f"mod 2^{stats['final_m']} with certified lift: {len(lifted.elements)} elements "
      f"in {time.perf_counter()-t0:.3f}s, retries {stats['retries']}")
direct = reduce_basis(buchberger(gens, order))
print("lift agrees with the direct reduced basis:", lifted.elements == direct.elements)
