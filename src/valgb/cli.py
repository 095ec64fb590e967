"""Command-line front end.

Subcommands: gb, nf, initial, tropical-member, bounds, compare-cardinality.
Exit status 0 on success, 1 on input and usage errors, 2 when an internal
budget was exhausted (step budget, coefficient breaker, retry budget,
genericity).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction

from .bounds import MAX_BUILT_NVARS, dube_degree_bound, effective_valuation_bound
from .cardinality import GenericityError, cardinality_report, default_orders
from .division import CoefficientBlowup, StepBudgetExceeded, normal_form
from .fields import QpField
from .groebner import buchberger, reduce_basis
from .lifting import _certified_by_lift, gb_mod_pm
from .parsing import ProblemFile, parse_problem, parse_polynomial
from .polynomials import poly_to_str
from .tropical import contains_monomial, initial_ideal
from .weights import initial_form

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2


def _load_problem(path: str) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_problem(handle.read())


def _require_homogeneous(problem: ProblemFile):
    for i, g in enumerate(problem.generators, start=1):
        if not g.is_homogeneous():
            raise ValueError(f"generator {i} is not homogeneous")


def _print_poly(poly, problem: ProblemFile):
    print(poly_to_str(poly, problem.names))


def _cmd_gb(args) -> int:
    if args.modpm is not None and args.progress:
        raise ValueError("--progress applies only without --modpm")
    if args.modpm is None and args.retry_budget is not None:
        raise ValueError("--retry-budget applies only with --modpm")
    problem = _load_problem(args.file)
    _require_homogeneous(problem)
    order = problem.weighted_order()
    limits = dict(max_steps=args.max_steps, max_coeff_bits=args.max_coeff_bits)
    if args.modpm is not None:
        if not isinstance(problem.field, QpField):
            raise ValueError("--modpm requires a Qp(p) field")
        stats: dict = {}
        # an option not given keeps gb_mod_pm's own default
        if args.max_coeff_bits is None:
            del limits["max_coeff_bits"]
        if args.retry_budget is not None:
            limits["retry_budget"] = args.retry_budget
        basis = gb_mod_pm(
            problem.generators,
            order,
            m=args.modpm,
            use_criteria=not args.no_criteria,
            stats=stats,
            **limits,
        )
        if stats["fallback"]:
            last = stats["failures"][-1]
            print(f"warning: mod-{stats['p']}^m pipeline failed in the {last['stage']} "
                  f"stage at m = {last['m']}, after {stats['retries']} retries; "
                  "direct rational computation used", file=sys.stderr)
    else:
        progress = None
        if args.progress:
            def progress(done, remaining):
                print(f"pairs processed: {done}, remaining: {remaining}", file=sys.stderr)
        raw = buchberger(
            problem.generators,
            order,
            use_criteria=not args.no_criteria,
            progress=progress,
            **limits,
        )
        basis = reduce_basis(raw)
    for g in basis.elements:
        _print_poly(g, problem)
    if args.verify:
        ok = _certified_by_lift(basis, problem.generators)
        print(f"verified: {'true' if ok else 'false'}")
        if not ok:
            return EXIT_BUDGET
    return EXIT_OK


def _cmd_nf(args) -> int:
    problem = _load_problem(args.file)
    _require_homogeneous(problem)
    if args.target is not None:
        target = parse_polynomial(args.target, problem.field, problem.names)
    elif problem.target is not None:
        target = problem.target
    else:
        raise ValueError("nf needs a target polynomial ('target:' line or --target)")
    order = problem.weighted_order()
    result = normal_form(
        target,
        problem.generators,
        order,
        max_steps=args.max_steps,
        max_coeff_bits=args.max_coeff_bits,
        trace=args.trace,
    )
    if args.trace and result.trace is not None:
        for step in result.trace:
            print("trace: " + step.line(problem.names))
    for i, h in enumerate(result.quotients, start=1):
        print(f"h{i} = {poly_to_str(h, problem.names)}")
    print(f"r = {poly_to_str(result.remainder, problem.names)}")
    print(f"steps = {result.step_count}")
    return EXIT_OK


def _cmd_initial(args) -> int:
    problem = _load_problem(args.file)
    if args.forms_only:
        for g in problem.generators:
            _print_poly(initial_form(g, problem.weights), problem)
        return EXIT_OK
    _require_homogeneous(problem)
    for g in initial_ideal(problem.generators, problem.weighted_order(),
                           max_steps=args.max_steps,
                           max_coeff_bits=args.max_coeff_bits):
        _print_poly(g, problem)
    return EXIT_OK


def _cmd_tropical_member(args) -> int:
    problem = _load_problem(args.file)
    _require_homogeneous(problem)
    gens = initial_ideal(problem.generators, problem.weighted_order(),
                         max_steps=args.max_steps,
                         max_coeff_bits=args.max_coeff_bits)
    member = not contains_monomial(gens, max_steps=args.max_steps,
                                   max_coeff_bits=args.max_coeff_bits)
    print(f"member: {'true' if member else 'false'}")
    for g in gens:
        print(f"initial: {poly_to_str(g, problem.names)}")
    return EXIT_OK


def _degree_bound_text(n: int, d: int) -> str:
    """Dube's bound D exactly, or as 2*b^k (b = d^2/2 + d, k = 2^(n-2)) when
    D has more digits than Python prints; past ``MAX_BUILT_NVARS`` variables
    it always has, and D is not built."""
    if n <= MAX_BUILT_NVARS:
        try:
            return str(dube_degree_bound(n, d))
        except ValueError:
            pass
    b, k = Fraction(d * d, 2) + d, 2 ** (n - 2)
    return f"2*{b}^{k}" if b.denominator == 1 else f"ceil(2*({b})^{k})"


def _cmd_bounds(args) -> int:
    problem = _load_problem(args.file)
    _require_homogeneous(problem)
    degrees = [g.homogeneous_degree() for g in problem.generators if not g.is_zero()]
    if not degrees:
        raise ValueError("bounds need at least one nonzero generator")
    n = problem.nvars
    d = max(degrees)
    print(f"n = {n}")
    print(f"d = {d}")
    print(f"D = {_degree_bound_text(n, d)}")
    if isinstance(problem.field, QpField):
        report = effective_valuation_bound(
            problem.generators, problem.field.p, degree_cap=args.degree_cap,
        )
        print(f"C = {report.coeff_bound}")
        print(f"evaluated_degree = {report.evaluated_degree}")
        print(f"A = {report.ideal_dim}")
        print(f"valuation_bound = {report.valuation_bound}")
        print(f"truncated = {'true' if report.truncated else 'false'}")
    else:
        print("valuation_bound = n/a (needs a Qp(p) field)")
    return EXIT_OK


def _cmd_compare_cardinality(args) -> int:
    print("e,d,seed,padic_size,order,standard_size,bound")
    base = args.seed
    for k in range(args.seeds):
        report = cardinality_report(
            args.e,
            default_orders(args.e),
            seed=base + k,
            max_steps=args.max_steps,
        )
        bound = math.ceil(report.lower_bound)
        for label, size in report.standard_sizes.items():
            print(
                f"{report.e},{report.degree},{report.seed},{report.padic_size},"
                f"{label},{size},{bound}"
            )
        for entry in report.log:
            print(f"note: {entry}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valgb",
        description="Groebner bases over fields with valuations (Qp, Q, Q(t))",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def max_steps(p):
        p.add_argument("--max-steps", type=int, default=1_000_000,
                       help="division step budget (default 1e6)")

    def common(p, bits_help="coefficient-size circuit breaker in bits"):
        p.add_argument("file", help="problem file")
        max_steps(p)
        p.add_argument("--max-coeff-bits", type=int, default=None, help=bits_help)

    p_gb = sub.add_parser("gb", help="reduced Groebner basis")
    common(p_gb, "coefficient-size circuit breaker in bits for the completion, not "
                 "--verify; with --modpm it bounds only the direct fallback")
    p_gb.add_argument("--no-criteria", action="store_true",
                      help="disable the S-pair skip criteria")
    p_gb.add_argument("--modpm", type=int, default=None, metavar="M",
                      help="run through Z/p^M, lifting the basis and certifying it "
                           "by Hilbert counts")
    p_gb.add_argument("--retry-budget", type=int, default=None,
                      help="mod-p^m retry doublings, with --modpm (default 5)")
    p_gb.add_argument("--verify", action="store_true",
                      help="re-check the result: rebuild it by the lift from its own "
                           "leading monomials and certify it by Hilbert counts")
    p_gb.add_argument("--progress", action="store_true",
                      help="report pair progress on stderr (not with --modpm)")
    p_gb.set_defaults(func=_cmd_gb)

    p_nf = sub.add_parser("nf", help="normal form with quotient certificate")
    common(p_nf)
    p_nf.add_argument("--target", default=None,
                      help="polynomial to divide (overrides the file's target)")
    p_nf.add_argument("--trace", action="store_true",
                      help="emit one trace line per division step")
    p_nf.set_defaults(func=_cmd_nf)

    p_init = sub.add_parser("initial", help="initial ideal over the residue field")
    common(p_init)
    p_init.add_argument("--forms-only", action="store_true",
                        help="print initial forms of the listed generators only")
    p_init.set_defaults(func=_cmd_initial)

    p_trop = sub.add_parser("tropical-member",
                            help="does the weight vector lie in the tropical variety?")
    common(p_trop)
    p_trop.set_defaults(func=_cmd_tropical_member)

    p_bounds = sub.add_parser("bounds", help="degree and valuation bounds")
    p_bounds.add_argument("file", help="problem file")
    p_bounds.add_argument("--degree-cap", type=int, default=64,
                          help="cap for the bound evaluation degree (default 64)")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_card = sub.add_parser("compare-cardinality",
                            help="p-adic vs classical basis sizes (CSV)")
    max_steps(p_card)
    p_card.add_argument("--e", type=int, default=1, help="half the degree (d = 2e)")
    p_card.add_argument("--seeds", type=int, default=1, help="number of seeds")
    p_card.add_argument("--seed", type=int, default=0, help="first seed")
    p_card.set_defaults(func=_cmd_compare_cardinality)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call: parsing leaves it unchanged."""
    return build_parser()


def _check_numbers(args):
    """Reject budgets below 0 and seed counts or e below 1 as input errors."""
    for name in ("max_steps", "max_coeff_bits", "degree_cap"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise ValueError(f"--{name.replace('_', '-')} must be nonnegative, got {value}")
    for name in ("seeds", "e"):
        if getattr(args, name, 1) < 1:
            raise ValueError(f"--{name} must be at least 1, got {getattr(args, name)}")


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error; --help exits 0
        if exc.code:
            return EXIT_INPUT
        raise
    try:
        _check_numbers(args)
        return args.func(args)
    except (FileNotFoundError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (StepBudgetExceeded, CoefficientBlowup, GenericityError) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
