"""The completion loop's two rules that save division work.

* The Hilbert skip: with at most n generators in n variables, ``buchberger``
  skips a pair once the leading monomials fill its degree up to c_d, the
  count of generic forms of the generators' degrees.  A hook checks that
  every division it elides has a zero remainder.
* Weak normal forms over every field: the division stops at the first
  leading term with no divisor.  On a basis it takes the strong division's
  steps, so ``is_basis_of`` gives the strong form's verdicts.
"""

import inspect
import random
import sys

import pytest

from valgb import (
    GF,
    GREVLEX,
    CoefficientBlowup,
    ModPmRing,
    Polynomial,
    QQ,
    Qp,
    Qt,
    WeightedOrder,
    buchberger,
    cardinality_report,
    contains_monomial,
    gb_mod_pm,
    leading_term,
    normal_form,
    parse_polynomial,
    reduce_basis,
    s_polynomial,
)
from valgb import groebner
from valgb.cardinality import default_orders
from valgb.groebner import _modpm_normalize
from valgb.polynomials import mono_divides

from conftest import (
    nine_variable_problem,
    random_homogeneous,
    random_ideal,
    random_weights,
    to_oracle,
    zero_order,
)
from oracles import buchberger_reference
from test_groebner import completion_suite

XYZ = "x,y,z"
BUDGET = 10_000


class ElidedDivisions:
    """While active, each time ``buchberger`` is about to count a Hilbert
    skip, divide the skipped pair's S-polynomial by the basis of that moment
    (a strong normal form) and keep the remainder."""

    def __init__(self):
        lines, first = inspect.getsourcelines(groebner.buchberger)
        self.line = first + next(k for k, text in enumerate(lines)
                                 if 'counters["hilbert"] += 1' in text)
        self.remainders = []

    def _local(self, frame, event, arg):
        if event == "line" and frame.f_lineno == self.line:
            loc = frame.f_locals
            G, order = loc["G"], loc["order"]
            s = s_polynomial(G[loc["i"]], G[loc["j"]], order)
            self.remainders.append(normal_form(s, G, order, max_steps=BUDGET).remainder)
        return self._local

    def __enter__(self):
        code = groebner.buchberger.__code__
        self._previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: self._local if frame.f_code is code else None)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous)


def _qt_and_gf_inputs():
    rng = random.Random("hilbert-skip-qt-gf")
    out = []
    for field in (Qt(), GF(2), GF(3), GF(5)):
        for trial in range(40):
            gens = random_ideal(rng, field, 3, max_degree=3, max_gens=3)
            weights = random_weights(rng, field, 3) if field == Qt() else (0, 0, 0)
            out.append((f"{field.label} {trial}", gens, WeightedOrder(weights, GREVLEX)))
    return out


def _acceptance_inputs():
    """The generators and orders of acceptance criteria 4, 6 and 7, drawn
    as those criteria draw them (criterion 8's are in ``completion_suite``)."""
    qt = Qt()
    out = [(f"qt a={a}", [parse_polynomial("x+z", qt, XYZ.split(",")),
                          parse_polynomial(f"x^2+(1+t^{a})*x*z+x*y", qt, XYZ.split(","))],
            WeightedOrder((1, a, 2 * a), GREVLEX)) for a in (3, 5, 10)]
    fields = [Qp(2), Qp(3), Qp(5), QQ]
    rng = random.Random("hilbert-b")
    for trial in range(200):
        field = fields[trial % 4]
        nvars = rng.choice([2, 3, 3, 4])
        gens = random_ideal(rng, field, nvars, max_degree=3, max_gens=3)
        out.append((f"hilbert-b {trial}", gens,
                    WeightedOrder(random_weights(rng, field, nvars), GREVLEX)))
    rng = random.Random("criteria-d")
    for trial in range(100):
        field = fields[trial % 4]
        gens = random_ideal(rng, field, 3, max_degree=3, max_gens=3)
        out.append((f"criteria-d {trial}", gens,
                    WeightedOrder(random_weights(rng, field, 3), GREVLEX)))
    return out


def test_hilbert_skip_elides_only_zero_divisions():
    by_field = {}
    for label, gens, order in completion_suite() + _qt_and_gf_inputs() + _acceptance_inputs():
        with ElidedDivisions() as hook:
            stats = buchberger(gens, order).stats
        assert len(hook.remainders) == stats["hilbert"], label
        assert all(r.is_zero() for r in hook.remainders), label
        key = gens[0].field.label
        by_field[key] = by_field.get(key, 0) + stats["hilbert"]
    for key in ("Q", "Qp(2)", "Qp(3)", "Qp(5)", "Qt", "GF(2)", "GF(3)", "GF(5)"):
        assert by_field[key] > 0, by_field


def test_hilbert_skip_is_sound_in_cardinality_and_saturation():
    # every completion of cardinality_report for seeds 0-9, and the
    # saturations of the tropical membership test (GF(p) and Q)
    with ElidedDivisions() as hook:
        for e in (1, 2):
            for seed in range(10):
                cardinality_report(e, default_orders(e), seed=seed)
        rng = random.Random("saturation-skip")
        for trial in range(60):
            field = (GF(2), GF(3), QQ)[trial % 3]
            contains_monomial(random_ideal(rng, field, 3, max_degree=2, max_gens=3))
    assert len(hook.remainders) > 50
    assert all(r.is_zero() for r in hook.remainders)


def _never(gens, order, **kw):
    with ElidedDivisions() as hook:
        basis = buchberger(gens, order, **kw)
    assert basis.stats["hilbert"] == 0 and not hook.remainders
    return basis


def test_hilbert_skip_never_fires_past_n_generators():
    gens, _, order = nine_variable_problem()
    assert len(gens) > 9
    _never(gens, order)
    # one or two generators too many: on several of these the formal count
    # of prod(1 - t^d_i) / (1 - t)^n is reached, and a skip would fire
    rng = random.Random("past-n")
    for trial in range(300):
        n = rng.choice([2, 3, 3, 4])
        gens = [random_homogeneous(rng, QQ, n, rng.randint(1, 3), max_terms=4)
                for _ in range(n + rng.randint(1, 2))]
        _never(gens, zero_order(n))


def test_hilbert_skip_never_fires_on_redundant_generators():
    # dim I_d stays below c_d for the degrees (2, 2, 3) at every d >= 3, and
    # no pair has degree 2; the run still finds the basis of <f, g>
    rng = random.Random("redundant-generator")
    x = Polynomial.term(QQ, 3, (1, 0, 0), QQ.one())
    order = zero_order(3)
    for trial in range(30):
        f, g = (random_homogeneous(rng, QQ, 3, 2) for _ in range(2))
        basis = _never([f, g, x * f], order)
        assert reduce_basis(basis).elements == reduce_basis(buchberger([f, g], order)).elements


def test_hilbert_skip_never_fires_on_a_common_factor():
    rng = random.Random("common-factor")
    for field in (QQ, Qp(2), GF(3)):
        for trial in range(20):
            line = random_homogeneous(rng, field, 3, 1)
            gens = [line * random_homogeneous(rng, field, 3, 2) for _ in range(3)]
            _never(gens, WeightedOrder(random_weights(rng, field, 3), GREVLEX))


def test_hilbert_skip_is_off_without_criteria():
    rng = random.Random("skip-off")
    hits = 0
    for trial in range(30):
        gens = random_ideal(rng, QQ, 3, max_degree=3, max_gens=3)
        hits += buchberger(gens, zero_order(3)).stats["hilbert"]
        _never(gens, zero_order(3), use_criteria=False)
    assert hits > 0


def test_hilbert_skip_is_sound_in_the_modular_run():
    # on the modpm-d inputs whose first modulus is certified, every pair the
    # modular run of gb_mod_pm skips has a strong remainder that
    # _modpm_normalize reads as zero, and stats["modular"] counts the skips
    rng = random.Random("modpm-d")
    skipped = certified = 0
    for trial in range(100):
        field = Qp([2, 3, 5][trial % 3])
        gens = random_ideal(rng, field, 3, max_degree=3, max_gens=3, height=50)
        order = WeightedOrder(random_weights(rng, field, 3), GREVLEX)
        stats = {}
        with ElidedDivisions() as hook:
            gb_mod_pm(gens, order, stats=stats)
        if len(stats["m_values"]) > 1:
            continue
        certified += 1
        modular = [r for r in hook.remainders if isinstance(r.field, ModPmRing)]
        assert len(modular) == stats["modular"]["hilbert"], trial
        zero = zero_order(3, order.tiebreak)
        assert all(not r or not _modpm_normalize(r, zero) for r in modular), trial
        # the rest are the certificate's completion over Q
        assert all(not r for r in hook.remainders if r.field == QQ), trial
        skipped += len(modular)
    assert certified > 90 and skipped > 0


@pytest.mark.parametrize("field", [QQ, GF(3), Qp(2), Qt()])
def test_weak_normal_form(field):
    # the certificate identity holds, and no divisor's leading monomial
    # divides the remainder's; the steps are the strong division's up to
    # its first remainder step, which the weak one does not take
    rng = random.Random(f"weak-nf-{field.label}")
    tails = 0
    for trial in range(40):
        G = random_ideal(rng, field, 3, max_degree=2, max_gens=3)
        f = random_homogeneous(rng, field, 3, rng.randint(2, 3), max_terms=6)
        order = WeightedOrder(random_weights(rng, field, 3), GREVLEX)
        weak = normal_form(f, G, order, weak=True, trace=True, max_steps=BUDGET)
        acc = weak.remainder
        for h, g in zip(weak.quotients, G):
            acc = acc + h * g
        assert acc == f, trial
        lms = [leading_term(g, order)[1] for g in G]
        r = weak.remainder
        if r:
            assert not any(mono_divides(lm, leading_term(r, order)[1]) for lm in lms)
            tails += any(any(mono_divides(lm, m) for lm in lms) for m in r.terms)
        strong = normal_form(f, G, order, trace=True, max_steps=BUDGET)
        prefix = [s.line() for s in strong.trace]
        cut = next((k for k, s in enumerate(strong.trace) if s.action == "remainder"),
                   len(prefix))
        assert [s.line() for s in weak.trace] == prefix[:cut], trial
        assert weak.step_count == cut
    if field.trivially_valued:
        assert tails > 0  # some remainder keeps a reducible tail


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_completion_keeps_tails_and_reaches_the_reference_basis(field):
    # the loop's elements keep reducible tails over Q and GF(p), and the
    # reduced basis is the independent oracle's
    rng = random.Random(f"weak-completion-{field.label}")
    p = getattr(field, "p", None)
    kept = 0
    for trial in range(30):
        gens = random_ideal(rng, field, 3, max_degree=3, max_gens=3)
        basis = buchberger(gens, zero_order(3))
        lms = basis.leading_monomials()
        kept += any(mono_divides(lm, m) for g, lead in zip(basis.elements, lms)
                    for m in g.terms if m != lead for lm in lms)
        got = {frozenset(to_oracle(g).items()) for g in reduce_basis(basis).elements}
        want = {frozenset(g.items())
                for g in buchberger_reference([to_oracle(g) for g in gens], p=p)}
        assert got == want, trial
    assert kept > 0


def test_weak_and_strong_divisions_agree_on_bases():
    # on a basis every remainder is zero, so the strong division never takes
    # a remainder step and the weak one never stops early.  Some divisions of
    # correct bases outgrow any small budget (the cardinality pairs ran for
    # minutes); those must trip at the same step
    def outcome(s, G, order, weak):
        try:
            result = normal_form(s, G, order, weak=weak, trace=True, max_steps=BUDGET,
                                 max_coeff_bits=4096)
        except CoefficientBlowup as exc:
            return str(exc)
        assert result.remainder.is_zero()
        return [t.line() for t in result.trace]

    pairs = tripped = 0
    for label, gens, order in completion_suite():
        G = reduce_basis(buchberger(gens, order)).elements
        for j in range(len(G)):
            for i in range(j):
                s = s_polynomial(G[i], G[j], order)
                weak = outcome(s, G, order, True)
                assert weak == outcome(s, G, order, False), (label, i, j)
                pairs += 1
                tripped += isinstance(weak, str)
    assert pairs > 700 and 0 < tripped < 10
