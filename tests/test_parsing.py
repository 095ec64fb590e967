"""Problem-file grammar and expression parsing with position diagnostics."""

from fractions import Fraction

import pytest

from valgb import QQ, Qp, Qt, RatFunc
from valgb.parsing import ParseError, parse_polynomial, parse_problem

from conftest import P


def test_basic_problem_file():
    text = (
        "field Qp(3)\n"
        "vars x,y\n"
        "order lex x>y\n"
        "weight 0,0\n"
        "ideal: 3x^2+x*y+18y^2\n"
    )
    problem = parse_problem(text)
    assert problem.field == Qp(3)
    assert problem.names == ["x", "y"]
    assert problem.order.kind == "lex"
    assert problem.order.priority == (0, 1)
    assert problem.weights == (0, 0)
    assert len(problem.generators) == 1
    assert problem.generators[0] == P(Qp(3), "x,y", "3x^2+x*y+18y^2")


def test_missing_weight_defaults_to_zero():
    problem = parse_problem("field Q\nvars x,y,z\nideal: x+y+z\n")
    assert problem.weights == (0, 0, 0)


def test_qt_field_with_weights():
    problem = parse_problem(
        "field Qt\nvars x,y,z\nweight 1,5,10\nideal: x+z, x^2+(1+t^5)*x*z+x*y\n"
    )
    assert problem.field == Qt()
    assert len(problem.generators) == 2
    assert problem.weights == (1, 5, 10)


def test_generators_across_lines_and_commas():
    problem = parse_problem(
        "field Q\nvars x,y\nideal:\n  x^2+y^2,\n  x*y\n"
    )
    assert len(problem.generators) == 2


def test_target_line():
    problem = parse_problem(
        "field Qp(2)\nvars x,y,z\nideal: y+16z\ntarget: x^2+y^2+z^2\n"
    )
    assert problem.target == P(Qp(2), "x,y,z", "x^2+y^2+z^2")


def test_comments_and_blank_lines():
    problem = parse_problem(
        "# a comment\nfield Q\n\nvars x,y  # trailing\nideal: x+y\n"
    )
    assert problem.names == ["x", "y"]


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_problem("field Q\nvars x,y\nideal: x^2 + $\n")
    assert err.value.line == 3
    assert err.value.col >= 12
    # errors found after the whole text is read point at their directive
    with pytest.raises(ParseError) as err:
        parse_problem("field Qt\nvars t,x\nideal: t+x\n")
    assert (err.value.line, err.value.col) == (2, 5)
    with pytest.raises(ParseError) as err:
        parse_problem("field Q\nvars x,y\nweight 1,2,3\nideal: x\n")
    assert (err.value.line, err.value.col) == (3, 7)


def test_unknown_variable_position():
    with pytest.raises(ParseError) as err:
        parse_problem("field Q\nvars x,y\nideal: x+w\n")
    assert err.value.line == 3
    assert "unknown variable 'w'" in str(err.value)


def test_weight_length_mismatch():
    with pytest.raises(ParseError) as err:
        parse_problem("field Q\nvars x,y\nweight 1,2,3\nideal: x\n")
    assert "weight length" in str(err.value)


def test_unknown_field():
    with pytest.raises(ParseError):
        parse_problem("field Zp(3)\nvars x\nideal: x\n")
    with pytest.raises(ParseError):
        parse_problem("field Qp(4)\nvars x\nideal: x\n")


def test_order_validation():
    with pytest.raises(ParseError):
        parse_problem("field Q\nvars x,y\norder lex x>z\nideal: x\n")
    with pytest.raises(ParseError):
        parse_problem("field Q\nvars x,y\norder lex x\nideal: x\n")
    with pytest.raises(ParseError):
        parse_problem("field Q\nvars x,y\norder sillylex\nideal: x\n")


def test_t_reserved_over_qt():
    with pytest.raises(ParseError):
        parse_problem("field Qt\nvars t,x\nideal: t+x\n")


def test_missing_sections():
    with pytest.raises(ParseError):
        parse_problem("vars x,y\nideal: x\n")
    with pytest.raises(ParseError):
        parse_problem("field Q\nideal: x\n")
    with pytest.raises(ParseError):
        parse_problem("field Q\nvars x,y\n")


def test_expression_grammar():
    f = parse_polynomial("2(x+y)^2-4x*y", QQ, ["x", "y"])
    assert f == P(QQ, "x,y", "2x^2+2y^2")
    g = parse_polynomial("x y", QQ, ["x", "y"])  # adjacency multiplies
    assert g == P(QQ, "x,y", "x*y")
    h = parse_polynomial("3/4x", QQ, ["x", "y"])
    assert h.terms[(1, 0)] == Fraction(3, 4)
    k = parse_polynomial("-x+ - y", QQ, ["x", "y"])
    assert k == -P(QQ, "x,y", "x+y")


def test_qt_scalar_expressions():
    qt = Qt()
    f = parse_polynomial("(3+t)/(1+t)*x", qt, ["x"])
    assert f.terms[(1,)] == RatFunc((3, 1), (1, 1))
    g = parse_polynomial("t^2*x - x", qt, ["x"])
    assert g.terms[(1,)] == RatFunc((-1, 0, 1))
    h = parse_polynomial("x/(t^2)", qt, ["x"])
    assert h.terms[(1,)] == RatFunc((1,), (0, 0, 1))


def test_division_by_nonconstant_rejected():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x/(y+1)", QQ, ["x", "y"])
    assert "constant" in str(err.value)
    with pytest.raises(ParseError):
        parse_polynomial("x/0", QQ, ["x", "y"])


def test_bad_exponent():
    with pytest.raises(ParseError):
        parse_polynomial("x^y", QQ, ["x", "y"])
    with pytest.raises(ParseError):
        parse_polynomial("x^", QQ, ["x", "y"])


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse_polynomial("(x+y", QQ, ["x", "y"])
    with pytest.raises(ParseError):
        parse_polynomial("x+y)", QQ, ["x", "y"])


def test_unicode_digits_are_not_integers():
    # str.isdigit accepts superscripts; integer tokens are ASCII digits only
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^²", QQ, ["x"])
    assert err.value.message == "unexpected character '²'"
    assert (err.value.line, err.value.col) == (1, 3)
    with pytest.raises(ParseError) as err:
        parse_problem("field Q\nvars x\nideal: 3x+x^١\n")
    assert err.value.message == "unexpected character '١'"
    assert (err.value.line, err.value.col) == (3, 13)


def test_unicode_identifiers_still_parse():
    f = parse_polynomial("é^2+ß_1*é-2ß_1", QQ, ["é", "ß_1"])
    assert f.terms == {(2, 0): 1, (1, 1): 1, (0, 1): -2}
    assert parse_problem("field Q\nvars é,y\nideal: é*y\n").generators[0].terms == {(1, 1): 1}


def test_powers_cost_one_step():
    f = parse_polynomial("x^1000000", QQ, ["x", "y"])
    assert f.terms == {(1000000, 0): 1}
    qt = Qt()
    g = parse_polynomial("t^100000*x", qt, ["x"])
    assert g.terms == {(1,): qt.phi(100000)}
    h = parse_polynomial("-(2x^3y)^7/t^4", qt, ["x", "y"])
    assert h.terms == {(21, 7): qt.coerce(-128) * qt.phi(-4)}


def test_powers_match_repeated_products():
    from oracles import oracle_parse_polynomial

    names = ["x", "y"]
    for text, field in [("(x+2y)^5", QQ), ("(x-t y)^4", Qt()), ("(3x+y)^3/9", Qp(3)),
                        ("x^0", QQ), ("(x+y)^0", QQ), ("t^0*x", Qt()), ("0^0", QQ),
                        ("(x-x)^3", QQ), ("0^2", QQ)]:
        assert parse_polynomial(text, field, names) == oracle_parse_polynomial(
            text, field, names), text
    assert parse_polynomial("x^0", QQ, names).terms == {(0, 0): 1}
    assert parse_polynomial("(x+y)^0", QQ, names).terms == {(0, 0): 1}
    assert parse_polynomial("t^0*x", Qt(), names).terms == {(1, 0): Qt().one()}
