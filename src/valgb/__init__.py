"""Exact Groebner bases over fields with valuations.

Supported coefficient fields: Q with a p-adic valuation, Q with the trivial
valuation, and Q(t) with the t-adic valuation, plus Z/p^m as an acceleration
ring.  The package provides the valuation-aware division algorithm with
quotient certificates, the completion loop with skip criteria, mod-p^m
computation with a lifted basis certified by the lift and Hilbert counts,
complexity bounds, tropical membership tests, and a basis-size comparison
experiment.
"""

from .fields import (
    GF,
    INF,
    ModPmRing,
    QQ,
    Qp,
    Qt,
    RatFunc,
    padic_valuation,
)
from .polynomials import (
    GREVLEX,
    LEX,
    Polynomial,
    TermOrder,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
    poly_to_str,
)
from .weights import (
    WeightedOrder,
    compare,
    initial_form,
    leading_data,
    leading_term,
    trop_weight,
)
from .division import (
    CoefficientBlowup,
    DivisionResult,
    StepBudgetExceeded,
    normal_form,
)
from .groebner import (
    GroebnerBasis,
    buchberger,
    minimal_generators,
    monic,
    reduce_basis,
    s_polynomial,
    sort_basis,
)
from .lifting import (
    LiftInconsistent,
    gb_mod_pm,
    hilbert_dim,
    lift_groebner,
)
from .bounds import (
    BoundReport,
    dube_degree_bound,
    effective_valuation_bound,
    valuation_bound,
)
from .tropical import contains_monomial, in_tropical_variety, initial_ideal
from .cardinality import (
    CardinalityReport,
    GenericityError,
    cardinality_report,
    default_orders,
    sample_pair,
)
from .parsing import ParseError, ProblemFile, parse_polynomial, parse_problem

__version__ = "0.1.0"
