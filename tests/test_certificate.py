"""The certificate of ``gb_mod_pm``'s lifted bases: the lift's pivots, the
leading monomials and Hilbert counts, with no division over Qp."""

import random
import sys

import pytest

import valgb.division
import valgb.lifting as lifting
from valgb import (
    GREVLEX,
    Qp,
    QQ,
    Qt,
    WeightedOrder,
    buchberger,
    gb_mod_pm,
    lift_groebner,
    parse_problem,
    reduce_basis,
)
from valgb.cardinality import sample_pair
from valgb.cli import main
from valgb.fields import QpField
from valgb.groebner import GroebnerBasis, is_basis_of
from valgb.lifting import _certified_by_lift

from conftest import nine_variable_problem, polys, random_ideal, random_weights, zero_order
from test_cli import QT_FAMILY, W1, write


def small_padic_inputs():
    """The 100 ``modpm-d`` inputs and the nine-variable ideal."""
    rng = random.Random("modpm-d")
    inputs = []
    for trial in range(100):
        field = Qp([2, 3, 5][trial % 3])
        gens = random_ideal(rng, field, 3, max_degree=3, max_gens=3, height=50)
        inputs.append((gens, WeightedOrder(random_weights(rng, field, 3), GREVLEX)))
    gens, _, order = nine_variable_problem()
    inputs.append((gens, order))
    return inputs


def w1_and_pair():
    problem = parse_problem(W1)
    pair = list(sample_pair(3, random.Random("cardinality-3-0-0")))
    return [(problem.generators, problem.weighted_order()), (pair, zero_order(3))]


def test_wrong_claims_are_caught_from_m_4(monkeypatch):
    # started at m = 4, 37 of the 138 lifted claims are wrong; the
    # certificate rejects exactly the claims that is_basis_of rejects
    real = lifting._certificate_failure
    verdicts = []

    def both(F, claimed, lifted, *rest):
        failure = real(F, claimed, lifted, *rest)
        verdicts.append((failure is None, is_basis_of(lifted, F)))
        return failure

    monkeypatch.setattr(lifting, "_certificate_failure", both)
    attempts = rejected = 0
    for k, (gens, order) in enumerate(small_padic_inputs()):
        stats = {}
        basis = gb_mod_pm(gens, order, m=4, stats=stats)
        assert not stats["fallback"], k
        assert basis.elements == reduce_basis(buchberger(gens, order)).elements, k
        attempts += len(stats["m_values"])
        rejected += sum(f["stage"] == "certificate" for f in stats["failures"])
        assert len(stats["failures"]) == len(stats["m_values"]) - 1
    assert (attempts, len(verdicts), rejected) == (157, 138, 37)
    assert all(ours == theirs for ours, theirs in verdicts)


def test_gb_mod_pm_builds_the_q_completion_once(monkeypatch):
    # modpm-d input 18 has three generators in three variables, so its
    # certificate reads dim I_d from the Q completion; at m = 3 the first
    # claim fails the counts and the second passes
    real = lifting._grevlex_leading_ideal
    built = []

    def counting(F):
        built.append(F)
        return real(F)

    monkeypatch.setattr(lifting, "_grevlex_leading_ideal", counting)
    gens, order = small_padic_inputs()[18]
    stats = {}
    basis = gb_mod_pm(gens, order, m=3, stats=stats)
    assert [f["stage"] for f in stats["failures"]] == ["certificate"]
    assert stats["m_values"] == [3, 6] and not stats["fallback"]
    assert len(built) == 1
    assert basis.elements == reduce_basis(buchberger(gens, order)).elements


def _record_fields(monkeypatch) -> list:
    """Wrap ``normal_form`` wherever a valgb module binds it; the returned
    list receives each dividend's field."""
    real = valgb.division.normal_form
    seen = []

    def recording(f, *args, **kwargs):
        seen.append(f.field)
        return real(f, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "valgb" or name.startswith("valgb."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, recording)
    return seen


def test_gb_mod_pm_divides_nothing_over_qp(monkeypatch):
    seen = _record_fields(monkeypatch)
    divided = 0
    for k, (gens, order) in enumerate(w1_and_pair() + small_padic_inputs()):
        seen.clear()
        stats = {}
        gb_mod_pm(gens, order, stats=stats)
        if not stats["fallback"]:
            assert not any(isinstance(f, QpField) for f in seen), k
        divided += len(seen)
    assert divided  # the modular runs divide through the wrapper
    # the guard sees the direct fallback's divisions over Qp
    gens, order = w1_and_pair()[0]
    seen.clear()
    stats = {}
    gb_mod_pm(gens, order, m=4, retry_budget=0, stats=stats)
    assert stats["fallback"] and stats["failures"][0]["stage"] == "lift"
    assert any(isinstance(f, QpField) for f in seen)


def test_certificate_reads_the_lifted_leading_monomials():
    # over Qp(2), lm(x + 2y) is x; the claim {y} has the right Hilbert
    # function and lifts to y + x/2, whose leading monomial is x
    F = polys(Qp(2), "x,y", "x+2y")
    order = zero_order(2)
    lifted = lift_groebner(F, order, [(0, 1)])
    assert lifted.leading_monomials() == [(1, 0)]
    assert lifting._certificate_failure(F, [(0, 1)], lifted) == (
        "a lifted leading monomial differs from the claimed initial ideal")
    right = lift_groebner(F, order, [(1, 0)])
    assert lifting._certificate_failure(F, [(1, 0)], right) is None


def test_certified_by_lift_needs_the_generators_ideal():
    # is_basis_of passes [x, y] for F = [x]; the lift does not rebuild it
    for field in (Qp(2), Qt()):
        F = polys(field, "x,y", "x")
        wrong = GroebnerBasis(polys(field, "x,y", "x", "y"), zero_order(2))
        assert is_basis_of(wrong, F)
        assert not _certified_by_lift(wrong, F)
        assert _certified_by_lift(GroebnerBasis(F, zero_order(2)), F)


@pytest.mark.parametrize("field", [QQ, Qp(2), Qt()])
def test_certified_by_lift_rejects_a_non_basis(field):
    # x^2 + y^2, x*y has y^3 in its ideal: [x^2 + y^2, x*y] alone is
    # rebuilt by the lift, but its counts fall short in degree 3
    F = polys(field, "x,y", "x^2+y^2", "x*y")
    order = zero_order(2)
    basis = reduce_basis(buchberger(F, order))
    assert len(basis) == 3
    assert _certified_by_lift(basis, F)
    partial = GroebnerBasis(basis.elements[:2], order)
    assert not _certified_by_lift(partial, F)


def test_cli_verify_over_q_and_qp(tmp_path, capsys):
    # and over Q(t), by the same lift and counts
    for text in [W1, W1.replace("Qp(2)", "Q"), QT_FAMILY]:
        path = write(tmp_path, "problem.vgb", text)
        assert main(["gb", path, "--verify"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "verified: true" and len(out) > 1
