"""
Tropical membership of weight vectors
=====================================

A weight vector w lies in the tropical variety of a homogeneous ideal
exactly when the initial ideal in_w(I) contains no monomial.  The monomial
test saturates once by each variable in turn (grevlex with that variable
last, divide by its powers), then looks for a constant.  For the plane
x+y+z = 0 the tropical variety is the standard tropical line: membership
holds where the minimum weight is attained at least twice.
"""

from valgb import QQ, in_tropical_variety, initial_ideal, WeightedOrder
from valgb.parsing import parse_polynomial
from valgb.polynomials import poly_to_str

names = ["x", "y", "z"]
line = [parse_polynomial("x+y+z", QQ, names)]

for w in [(0, 0, 0), (-1, 0, 0), (1, 0, 0), (0, 2, 2), (5, 5, 5)]:
    gens = initial_ideal(line, WeightedOrder(w))
    shown = ", ".join(poly_to_str(g, names) for g in gens)
    verdict = in_tropical_variety(line, w)
    print(f"w = {w!s:12}  in_w = <{shown}>   member: {verdict}")
