"""Sampled comparison of p-adic and classical basis sizes."""

import math
import random

import pytest

from valgb import (
    GREVLEX,
    Qp,
    WeightedOrder,
    buchberger,
    cardinality_report,
    reduce_basis,
    sample_pair,
)
from valgb.cardinality import GenericityError, default_orders, is_strongly_stable


def test_sample_pair_shape():
    rng = random.Random(0)
    f, g = sample_pair(1, rng)
    assert f.homogeneous_degree() == 2 and g.homogeneous_degree() == 2
    field = f.field
    assert field == Qp(2)
    # odd coefficient exactly on the designated monomials
    assert field.val(f.terms[(2, 0, 0)]) == 0
    assert field.val(g.terms[(0, 1, 1)]) == 0
    for m, c in f.terms.items():
        if m != (2, 0, 0):
            assert field.val(c) >= 1
    for m, c in g.terms.items():
        if m != (0, 1, 1):
            assert field.val(c) >= 1


def test_sample_pair_initial_ideal_generically_split():
    rng = random.Random(7)
    f, g = sample_pair(1, rng)
    basis = reduce_basis(buchberger([f, g], WeightedOrder((0, 0, 0), GREVLEX)))
    assert sorted(basis.leading_monomials()) == [(0, 1, 1), (2, 0, 0)]
    assert len(basis.elements) == 2


def test_is_strongly_stable():
    # <x^2, xy, y^3> is strongly stable for x > y > z
    assert is_strongly_stable([(2, 0, 0), (1, 1, 0), (0, 3, 0)], (0, 1, 2))
    # <x^2, y^2> is not: y^2 -> xy missing
    assert not is_strongly_stable([(2, 0, 0), (0, 2, 0)], (0, 1, 2))


@pytest.mark.parametrize("e", [1, 2])
def test_cardinality_report(e):
    report = cardinality_report(e, seed=0)
    assert report.padic_size == 2
    bound = math.ceil(report.lower_bound)
    assert bound == (3 if e == 1 else 4)
    assert report.standard_sizes
    for label, size in report.standard_sizes.items():
        assert size >= bound, f"{label} gave {size} < {bound}"
    assert report.bound_holds()


def test_default_orders():
    assert len(default_orders(1)) == 4  # lex + three grevlex rotations
    assert len(default_orders(2)) == 3
    assert default_orders(1)[0].kind == "lex"


def test_forced_degenerate_sample_is_resampled_or_fails():
    # height 4 draws even coefficients only from {-4, -2, 2, 4}: degenerate
    # pairs are common, so resampling events must be observed over the seeds
    resampled, failed = [], []
    for seed in range(12):
        try:
            report = cardinality_report(1, seed=seed, height=4, max_resamples=6)
        except GenericityError:
            failed.append(seed)
            continue
        if report.resamples > 0:
            resampled.append(seed)
    assert resampled == [4, 9, 10]
    assert failed == []


def test_sample_pair_matches_per_draw_pools():
    from oracles import oracle_sample_pair

    for e in (1, 2, 3):
        for seed in range(10):
            for attempt in range(3):
                name = f"cardinality-{e}-{seed}-{attempt}"
                rng, oracle_rng = random.Random(name), random.Random(name)
                assert sample_pair(e, rng) == oracle_sample_pair(e, oracle_rng), name
                assert rng.getstate() == oracle_rng.getstate(), name
