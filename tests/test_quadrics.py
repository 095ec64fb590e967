"""Random quadrics over Qp(2) that the valued completion used to blow up on.

The family is the ROADMAP's: three quadrics in n variables with 5 (n = 3) or
6 (n = 4) terms, coefficients +-1..50 and weights in [-2, 2]^n, under
grevlex.  With strong normal forms in the loop, the direct path tripped a
20000-bit budget on 17 of 100 seeds at n = 3 and on 19 of 20 at n = 4.  With
weak ones every n = 3 seed finishes, and each basis is certified here
without the loop: the lift rebuilds it from its own leading monomials, and
their monomial ideal has the Hilbert function of the input.  ``gb_mod_pm``
certifies its lifted bases the same way, so it finishes every seed without
the direct fallback, the n = 4 seeds 2 and 5 where direct still trips
included.
"""

import random
import time

import pytest

from valgb import (
    GREVLEX,
    CoefficientBlowup,
    Polynomial,
    Qp,
    WeightedOrder,
    buchberger,
    gb_mod_pm,
    parse_problem,
    reduce_basis,
)
from valgb.cli import main
from valgb.hilbert import monomial_ideal_dim
from valgb.lifting import hilbert_dim, lift_groebner
from valgb.polynomials import monomials_of_degree

from test_cli import write

BUDGET = 20000

# the three instances pinned in the ROADMAP: seeds 2 and 37 at n = 3, 0 at n = 4
PINNED = {
    "q3s2": (
        "field Qp(2)\nvars x1,x2,x3\nweight 1,2,1\n"
        "ideal: 45*x1^2-19*x1*x2-31*x2^2+36*x1*x3-9*x2*x3, "
        "-26*x1^2-39*x1*x2-14*x2^2+16*x1*x3-9*x3^2, "
        "-20*x1^2-7*x2^2-27*x1*x3+36*x2*x3+15*x3^2\n"
    ),
    "q3s37": (
        "field Qp(2)\nvars x1,x2,x3\nweight -2,-1,-2\n"
        "ideal: 16*x1^2-35*x1*x2+27*x1*x3-41*x2*x3+32*x3^2, "
        "27*x1*x2-5*x2^2-12*x1*x3-14*x2*x3+36*x3^2, "
        "-44*x1^2-49*x1*x2-50*x2^2+47*x1*x3-30*x3^2\n"
    ),
    "q4s0": (
        "field Qp(2)\nvars x1,x2,x3,x4\nweight 0,-2,-2,-1\n"
        "ideal: 10*x1^2-22*x2^2+45*x1*x3+46*x3^2+41*x3*x4-9*x4^2, "
        "-43*x1^2-39*x2^2+42*x2*x3+5*x3^2-45*x2*x4+2*x3*x4, "
        "-32*x1^2-44*x1*x2+33*x2^2+x3^2+38*x1*x4-38*x3*x4\n"
    ),
}


def quadrics(n: int, seed: int):
    """The family's generators and order for one seed (ROADMAP recipe)."""
    terms = 5 if n == 3 else 6
    rng = random.Random(f"{(n, (2, 2, 2), 2, terms, 50, 2)}-{seed}")
    field = Qp(2)
    gens = []
    for _ in range(3):
        monos = rng.sample(monomials_of_degree(n, 2), terms)
        gens.append(Polynomial(field, n, {
            m: field.coerce(rng.randint(1, 50) * rng.choice([-1, 1])) for m in monos}))
    weights = tuple(rng.randint(-2, 2) for _ in range(n))
    return gens, WeightedOrder(weights, GREVLEX)


def test_pinned_quadrics_are_family_seeds():
    for name, (n, seed) in {"q3s2": (3, 2), "q3s37": (3, 37), "q4s0": (4, 0)}.items():
        problem = parse_problem(PINNED[name])
        gens, order = quadrics(n, seed)
        assert problem.generators == gens, name
        assert problem.weighted_order() == order, name


@pytest.mark.parametrize("name", sorted(PINNED))
@pytest.mark.parametrize("command", ["gb", "initial", "tropical-member"])
def test_pinned_quadrics_finish_on_the_cli(tmp_path, capsys, name, command):
    path = write(tmp_path, f"{name}.vgb", PINNED[name])
    t0 = time.process_time()
    assert main([command, path, "--max-coeff-bits", str(BUDGET)]) == 0
    assert time.process_time() - t0 < 3.0
    captured = capsys.readouterr()
    assert captured.out and not captured.err


@pytest.mark.parametrize("name", sorted(PINNED))
@pytest.mark.parametrize("options", [["--modpm", "16"], ["--verify"],
                                     ["--verify", "--max-coeff-bits", str(BUDGET)]])
def test_pinned_quadrics_are_certified_on_the_cli(tmp_path, capsys, name, options):
    # once the modular path trips its verification at every m, and --verify
    # divides the S-pairs of a correct basis past any budget; the
    # certificate divides nothing over Qp
    path = write(tmp_path, f"{name}.vgb", PINNED[name])
    assert main(["gb", path]) == 0
    direct = capsys.readouterr().out
    t0 = time.process_time()
    assert main(["gb", path, *options]) == 0
    assert time.process_time() - t0 < 3.0
    captured = capsys.readouterr()
    assert not captured.err
    expected = direct + "verified: true\n" if "--verify" in options else direct
    assert captured.out == expected


@pytest.mark.parametrize("n, seeds", [(3, range(100)), (4, range(20))])
def test_family_through_gb_mod_pm(n, seeds):
    # no seed falls back, and each basis equals the direct one wherever the
    # direct path finishes under the budget; where it trips, the basis is
    # certified as test_quadric_bases_are_certified_without_the_loop does
    tripped = []
    for seed in seeds:
        gens, order = quadrics(n, seed)
        stats = {}
        basis = gb_mod_pm(gens, order, stats=stats)
        assert not stats["fallback"], seed
        try:
            direct = reduce_basis(buchberger(gens, order, max_coeff_bits=BUDGET))
        except CoefficientBlowup:
            tripped.append(seed)
            lms = basis.leading_monomials()
            assert lift_groebner(gens, order, lms).elements == basis.elements
            top = max(g.degree() for g in basis.elements) + 2
            for d in range(top + 1):
                assert monomial_ideal_dim(lms, n, d) == hilbert_dim(gens, d), (seed, d)
        else:
            assert basis.elements == direct.elements, seed
    assert tripped == ([] if n == 3 else [2, 5])


# the n = 3 seeds whose direct completion tripped the budget under strong forms
TRIPPED_BEFORE = [2, 7, 10, 12, 15, 18, 35, 37, 50, 58, 60, 61, 72, 74, 82, 93, 99]


@pytest.mark.parametrize("seed", TRIPPED_BEFORE)
def test_quadric_bases_are_certified_without_the_loop(seed):
    gens, order = quadrics(3, seed)
    basis = reduce_basis(buchberger(gens, order, max_coeff_bits=BUDGET))
    lms = basis.leading_monomials()
    assert lift_groebner(gens, order, lms).elements == basis.elements
    top = max(g.degree() for g in basis.elements) + 2
    for d in range(top + 1):
        assert monomial_ideal_dim(lms, 3, d) == hilbert_dim(gens, d), d


@pytest.mark.parametrize("seed, steps", [(2, 23), (5, 36)])
def test_remaining_quadric_trips_are_clean(seed, steps):
    gens, order = quadrics(4, seed)
    t0 = time.process_time()
    with pytest.raises(CoefficientBlowup) as exc:
        buchberger(gens, order, max_coeff_bits=BUDGET)
    assert time.process_time() - t0 < 1.0
    assert str(exc.value) == f"leading coefficient exceeded {BUDGET} bits after {steps} steps"
