"""The term-dict expression parser against the Polynomial-product oracle.

On every input the two parsers return equal polynomials, or raise errors of
the same type with equal message, line and column.  The inputs are the
benchmark's CLI problem files, the texts that the demos and
``tests/test_parsing.py`` parse, generated expressions over Q, Qp(3) and
Q(t), and malformed inputs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from valgb import QQ, Qp, Qt
from valgb import parsing
from valgb.parsing import parse_polynomial, parse_problem

from oracles import oracle_parse_polynomial

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _cli_files() -> dict:
    """``CLI_FILES`` of the benchmark's workloads module, loaded, not changed."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.CLI_FILES


CLI_FILES = _cli_files()


def _outcome(parse, *args):
    """The parsed value, or the error's type, message and position."""
    try:
        return parse(*args)
    except parsing.ParseError as exc:
        return ("ParseError", exc.message, exc.line, exc.col)
    except (ValueError, ZeroDivisionError) as exc:
        return (type(exc).__name__, str(exc))


def assert_same(text, field, names, line=1, col=1):
    new = _outcome(parse_polynomial, text, field, names, line, col)
    old = _outcome(oracle_parse_polynomial, text, field, names, line, col)
    assert new == old, text


def _oracle_problem(text):
    saved = parsing.parse_polynomial
    parsing.parse_polynomial = oracle_parse_polynomial
    try:
        return _outcome(parse_problem, text)
    finally:
        parsing.parse_polynomial = saved


# problem files that tests/test_parsing.py parses
PARSING_PROBLEMS = [
    "field Qp(3)\nvars x,y\norder lex x>y\nweight 0,0\nideal: 3x^2+x*y+18y^2\n",
    "field Q\nvars x,y,z\nideal: x+y+z\n",
    "field Qt\nvars x,y,z\nweight 1,5,10\nideal: x+z, x^2+(1+t^5)*x*z+x*y\n",
    "field Q\nvars x,y\nideal:\n  x^2+y^2,\n  x*y\n",
    "field Qp(2)\nvars x,y,z\nideal: y+16z\ntarget: x^2+y^2+z^2\n",
    "# a comment\nfield Q\n\nvars x,y  # trailing\nideal: x+y\n",
    "field Q\nvars x,y\nideal: x^2 + $\n",
    "field Q\nvars x,y\nideal: x+w\n",
]

# (text, field, names) that the demos and tests/test_parsing.py parse
EXPRESSIONS = [
    ("3x^2+x*y+18y^2", Qp(3), "x,y"),
    ("t^2*x + (1+t)*y", Qt(), "x,y"),
    ("x-2y", Qp(2), "x,y,z"), ("y-2z", Qp(2), "x,y,z"), ("z-2x", Qp(2), "x,y,z"),
    ("x", Qp(2), "x,y,z"), ("x^2+y^2+z^2", Qp(2), "x,y,z"), ("y+16z", Qp(2), "x,y,z"),
    ("x+z", Qt(), "x,y,z"),
    *[(f"x^2+(1+t^{a})*x*z+x*y", Qt(), "x,y,z") for a in (1, 3, 5, 10, 20, 40)],
    ("-3x1*x4+6x3*x4+3x1*x5+92x2*x5+2x3*x5-23x2*x6-2x3*x6", Qp(2),
     ",".join(f"x{i}" for i in range(1, 10))),
    ("4x2*x5*x8+16x3*x5*x8+20x2*x6*x8-10x3*x6*x8-24x2*x5*x9-96x3*x5*x9"
     "-3x2*x6*x9-12x3*x6*x9", Qp(2), ",".join(f"x{i}" for i in range(1, 10))),
    ("x+y+z", QQ, "x,y,z"),
    ("2(x+y)^2-4x*y", QQ, "x,y"), ("x y", QQ, "x,y"), ("3/4x", QQ, "x,y"),
    ("-x+ - y", QQ, "x,y"),
    ("(3+t)/(1+t)*x", Qt(), "x"), ("t^2*x - x", Qt(), "x"), ("x/(t^2)", Qt(), "x"),
    ("x/(y+1)", QQ, "x,y"), ("x/0", QQ, "x,y"), ("x^y", QQ, "x,y"), ("x^", QQ, "x,y"),
    ("(x+y", QQ, "x,y"), ("x+y)", QQ, "x,y"),
]

MALFORMED = [
    "x^y", "x^", "x^-1", "x^(2)", "2^x", "x^2^3",  # bad exponents
    "(x+y", "x+y)", "((x)", ")", "()", "x*(y+(z)",  # unbalanced parentheses
    "x+w", "w", "2 t", "x+t",  # unknown variables (t over Q and Qp)
    "x/(y+1)", "x/y", "3/(2x)", "x/(x-x)", "x/0", "1/(t-t)",  # bad divisors
    "", "+", "x+", "x*", "x**2", "x//2", "$x", "x 2 $", "3x^2 + ,",
]


@pytest.mark.parametrize("name", sorted(CLI_FILES))
def test_cli_problem_files(name):
    text = CLI_FILES[name]
    assert _outcome(parse_problem, text) == _oracle_problem(text)


@pytest.mark.parametrize("text", PARSING_PROBLEMS)
def test_test_suite_problem_files(text):
    assert _outcome(parse_problem, text) == _oracle_problem(text)


@pytest.mark.parametrize("text,field,names", EXPRESSIONS)
def test_demo_and_suite_expressions(text, field, names):
    assert_same(text, field, names.split(","))


@pytest.mark.parametrize("field", [QQ, Qp(3), Qt()], ids=lambda f: f.label)
@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_inputs(text, field):
    assert_same(text, field, ["x", "y", "z"], 4, 9)


def test_generated_expressions():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    def scalars(field):
        ints = st.integers(0, 40).map(str)
        if field == Qt():
            return st.one_of(ints, st.just("t"), st.sampled_from(
                ["(1+t)", "(2-t^2)", "(t+t)", "(3t-1)", "t^3", "(1/2+t)"]))
        return ints

    @st.composite
    def expressions(draw, field, depth):
        leaves = st.one_of(scalars(field), st.sampled_from(["x", "y", "z"]))
        out = []
        for i in range(draw(st.integers(1, 3))):
            signs = ["", "-", "+", "--", "- +"] if i == 0 else ["+", "-", "+-", " - ", "--"]
            out.append(draw(st.sampled_from(signs)))
            for j in range(draw(st.integers(1, 3))):
                if j:
                    op = draw(st.sampled_from(["*", " ", " * ", "/"]))
                    out.append(op)
                    if op == "/":
                        out.append(draw(scalars(field)))
                        continue
                if depth and draw(st.booleans()):
                    atom = "(" + draw(expressions(field, depth - 1)) + ")"
                else:
                    atom = draw(leaves)
                out.append(atom)
                if draw(st.integers(0, 3)) == 0:
                    out.append("^" + str(draw(st.integers(0, 4))))
        return "".join(out)

    for field in (QQ, Qp(3), Qt()):
        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @given(expressions(field, 2))
        def check(text):
            assert_same(text, field, ["x", "y", "z"])

        check()
