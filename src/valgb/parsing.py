"""Problem-file grammar and polynomial expression parser.

A problem file is line oriented::

    field Qp(3)          # or: field Q | field Qt
    vars x,y
    order lex x>y        # or: order grevlex (priority optional)
    weight 0,0           # optional, defaults to all zeros
    ideal: 3x^2+x*y+18y^2
    target: x^2+y^2      # optional, used by normal-form queries

Polynomial expressions allow integer and rational coefficients, implicit
multiplication, ^ for powers, parenthesized subexpressions, and division by
constants; over Q(t) the name t denotes the valuation parameter, so scalars
like (1+t^5) or (3+t)/(1+t) are ordinary subexpressions.  Errors carry exact
line/column positions; a missing directive is reported at the end of input,
on the line after the last.

One compiled regular expression splits an expression into (kind, text,
column) tokens; integers are ASCII digits.  The recursive-descent parser
works on term dicts {exponent tuple: scalar} and builds one Polynomial at
the end.  An atom is one term: a variable is a unit exponent vector, an
integer is coerced once, and t over Q(t) is phi(1).  Sums and products use
the term-dict arithmetic of ``polynomials`` (``_add_terms``, ``_mul_terms``),
which ``Polynomial`` uses too, so this module holds only the grammar.  A
one-term power multiplies its exponents by k (t^k is phi(k)) and a power of
a sum is binary powering, so m^k costs one step, not k.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .fields import CoefficientField, QQ, Qp, Qt, RationalFunctionField
from .polynomials import Polynomial, TermOrder, _add_terms, _mul_terms
from .weights import WeightedOrder


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


@dataclass
class ProblemFile:
    field: CoefficientField
    names: list[str]
    order: TermOrder
    weights: tuple
    generators: list[Polynomial]
    target: Polynomial | None = None

    @property
    def nvars(self) -> int:
        return len(self.names)

    def weighted_order(self) -> WeightedOrder:
        return WeightedOrder(self.weights, self.order)


# ---------------------------------------------------------------------------
# expression tokenizer / parser
# ---------------------------------------------------------------------------

# one alternative per token class: an ASCII integer, a word (a name, if it
# starts with a letter or '_'), an operator, blanks, and any other character
_TOKEN = re.compile(r"([0-9]+)|(\w+)|([-+*/^()])|[ \t]+|(.)", re.DOTALL)


def _tokenize(text: str, line: int, col: int) -> list[tuple]:
    """(kind, text, col) triples ending in an EOF token; an operator is its
    own kind, the others are INT and NAME."""
    tokens = []
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        if group is None:  # blanks
            continue
        tok = match.group(group)
        at = col + match.start()
        if group == 1:
            tokens.append(("INT", tok, at))
        elif group == 3:
            tokens.append((tok, tok, at))
        elif group == 2 and (tok[0].isalpha() or tok[0] == "_"):
            tokens.append(("NAME", tok, at))
        else:
            raise ParseError(f"unexpected character {tok[0]!r}", line, at)
    tokens.append(("EOF", "", col + len(text)))
    return tokens


class _ExprParser:
    """Recursive descent over the tokens of one polynomial.

    Every rule returns a fresh term dict {exponent tuple: nonzero scalar}
    that its caller owns and may change in place.
    """

    def __init__(self, tokens: list[tuple], field: CoefficientField, names: list[str],
                 line: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.field = field
        n = len(names)
        self.zero = (0,) * n
        self.units = {
            name: tuple(1 if j == i else 0 for j in range(n)) for i, name in enumerate(names)
        }
        self.one = field.one()
        # t over Q(t) is the scalar phi(1); t^k is read as phi(k), found by identity
        scalar_t = isinstance(field, RationalFunctionField) and "t" not in self.units
        self.t = field.phi(1) if scalar_t else None

    def take(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str):
        raise ParseError(message, self.line, self.tokens[self.pos][2])

    def parse(self) -> dict:
        terms = self.expr()
        kind, text, _ = self.tokens[self.pos]
        if kind != "EOF":
            self.error(f"unexpected {text!r}")
        return terms

    def _sign_run(self) -> bool:
        """Consume a run of signs; True if it negates."""
        negate = False
        while self.tokens[self.pos][0] in ("+", "-"):
            if self.take()[0] == "-":
                negate = not negate
        return negate

    def expr(self) -> dict:
        negate = self._sign_run()
        acc = self.term()
        if negate:
            acc = _add_terms(self.field, {}, acc, negate=True)
        while self.tokens[self.pos][0] in ("+", "-"):
            negate = self._sign_run()
            acc = _add_terms(self.field, acc, self.term(), negate)
        return acc

    def term(self) -> dict:
        acc = self.power()
        while True:
            tok = self.tokens[self.pos]
            kind = tok[0]
            if kind == "*":
                self.pos += 1
                acc = self._mul(acc, self.power())
            elif kind == "/":
                self.pos += 1
                acc = self._divide(acc, self.power(), tok)
            elif kind in ("INT", "NAME", "("):
                acc = self._mul(acc, self.power())  # implicit multiplication
            else:
                return acc

    def power(self) -> dict:
        base = self.atom()
        if self.tokens[self.pos][0] != "^":
            return base
        self.pos += 1
        kind, text, _ = self.tokens[self.pos]
        if kind != "INT":
            self.error("expected a nonnegative integer exponent")
        self.pos += 1
        k = int(text)
        if k == 0:
            return {self.zero: self.one}
        if len(base) == 1:  # one term: multiply the exponents, power the scalar
            ((m, c),) = base.items()
            if c is self.t:
                c = self.field.phi(k)
            elif c is not self.one:
                c = _binary_power(c, k, self.field.mul)
                if self.field.is_zero(c):  # possible over Z/p^m
                    return {}
            return {tuple(e * k for e in m): c}
        return _binary_power(base, k, self._mul)  # a sum, or zero

    def atom(self) -> dict:
        kind, text, col = self.take()
        if kind == "INT":
            c = self.field.coerce(int(text))
            return {} if self.field.is_zero(c) else {self.zero: c}
        if kind == "NAME":
            unit = self.units.get(text)
            if unit is not None:
                return {unit: self.one}
            if text == "t" and self.t is not None:
                return {self.zero: self.t}
            raise ParseError(f"unknown variable {text!r}", self.line, col)
        if kind == "(":
            inner = self.expr()
            if self.tokens[self.pos][0] != ")":
                self.error("expected ')'")
            self.pos += 1
            return inner
        message = f"unexpected {text!r}" if text else "unexpected end of input"
        raise ParseError(message, self.line, col)

    def _mul(self, a: dict, b: dict) -> dict:
        return _mul_terms(self.field, a, b)

    def _divide(self, num: dict, den: dict, tok: tuple) -> dict:
        if not den:
            raise ParseError("division by zero", self.line, tok[2])
        if any(any(m) for m in den):
            raise ParseError(
                "can only divide by a constant (scalar) expression", self.line, tok[2]
            )
        return self._mul(num, {self.zero: self.field.inv(next(iter(den.values())))})


def _binary_power(x, k: int, mul):
    """x^k for k >= 1 by repeated squaring."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else mul(out, x)
        k >>= 1
        if not k:
            return out
        x = mul(x, x)


def parse_polynomial(
    text: str,
    field: CoefficientField,
    names: list[str],
    line: int = 1,
    col: int = 1,
) -> Polynomial:
    terms = _ExprParser(_tokenize(text, line, col), field, names, line).parse()
    return Polynomial(field, len(names), terms, _clean=True)


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

# a directive word at the start of a line, then the line's end, a blank or ':'
_DIRECTIVE = re.compile(r"(?:field|vars|order|weight|ideal|target)(?![^ \t:])")


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _parse_field_spec(spec: str, line: int, col: int) -> CoefficientField:
    spec = spec.strip()
    if spec == "Q":
        return QQ
    if spec == "Qt":
        return Qt()
    if spec.startswith("Qp(") and spec.endswith(")"):
        inner = spec[3:-1].strip()
        if not inner.isdigit():
            raise ParseError(f"bad prime {inner!r}", line, col)
        try:
            return Qp(int(inner))
        except ValueError as exc:
            raise ParseError(str(exc), line, col) from None
    raise ParseError(f"unknown field {spec!r} (expected Qp(p), Q, or Qt)", line, col)


def _parse_order_spec(spec: str, names: list[str], line: int, col: int) -> TermOrder:
    parts = spec.strip().split(None, 1)
    if not parts:
        raise ParseError("empty order specification", line, col)
    kind = parts[0]
    if kind not in ("lex", "grevlex"):
        raise ParseError(f"unknown order {kind!r} (expected lex or grevlex)", line, col)
    if len(parts) == 1:
        return TermOrder(kind)
    listed = [v.strip() for v in parts[1].split(">")]
    indices = []
    for v in listed:
        if v not in names:
            raise ParseError(f"unknown variable {v!r} in order", line, col)
        indices.append(names.index(v))
    if sorted(indices) != list(range(len(names))):
        raise ParseError(
            "order priority must list every variable exactly once", line, col
        )
    return TermOrder(kind, tuple(indices))


def parse_problem(text: str) -> ProblemFile:
    field = None
    names: list[str] | None = None
    names_at = (1, 1)  # (line, col) of the directive's argument, for errors
    order_spec: tuple[str, int, int] | None = None
    weights: tuple | None = None
    weights_at = (1, 1)
    poly_chunks: dict[str, list[tuple[str, int, int]]] = {"ideal": [], "target": []}
    section: str | None = None

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        stripped = _strip_comment(raw)
        if not stripped.strip():
            continue
        lead = stripped.lstrip()
        indent = len(stripped) - len(lead)
        directive = _DIRECTIVE.match(lead)
        if directive is not None:
            word = directive.group()
            rest = lead[len(word):]
            consumed = indent + len(word)
            if rest.startswith(":"):
                rest = rest[1:]
                consumed += 1
            rest_col = consumed + 1
            if word == "field":
                field = _parse_field_spec(rest, lineno, rest_col)
                section = None
            elif word == "vars":
                names = [v.strip() for v in rest.split(",") if v.strip()]
                if not names:
                    raise ParseError("empty variable list", lineno, rest_col)
                if len(set(names)) != len(names):
                    raise ParseError("duplicate variable names", lineno, rest_col)
                names_at = (lineno, rest_col)
                section = None
            elif word == "order":
                order_spec = (rest, lineno, rest_col)
                section = None
            elif word == "weight":
                entries = [w.strip() for w in rest.split(",") if w.strip()]
                try:
                    weights = tuple(int(w) for w in entries)
                except ValueError:
                    raise ParseError("weights must be integers", lineno, rest_col) from None
                weights_at = (lineno, rest_col)
                section = None
            else:  # ideal / target
                section = word
                if rest.strip():
                    poly_chunks[word].extend(
                        _split_on_commas(rest, lineno, rest_col)
                    )
        elif section is not None:
            poly_chunks[section].extend(_split_on_commas(stripped, lineno, 1))
        else:
            raise ParseError(f"unrecognized line {stripped.strip()!r}", lineno, 1)

    end = (len(lines) + 1, 1)  # a missing directive is reported past the input
    if field is None:
        raise ParseError("missing 'field' directive", *end)
    if names is None:
        raise ParseError("missing 'vars' directive", *end)
    if isinstance(field, RationalFunctionField) and "t" in names:
        raise ParseError("variable name 't' is reserved over Qt", *names_at)

    if order_spec is None:
        order = TermOrder("grevlex")
    else:
        order = _parse_order_spec(order_spec[0], names, order_spec[1], order_spec[2])
    if weights is None:
        weights = (0,) * len(names)
    if len(weights) != len(names):
        raise ParseError(
            f"weight length {len(weights)} does not match {len(names)} variables",
            *weights_at,
        )

    if not poly_chunks["ideal"]:
        raise ParseError("missing 'ideal:' section", *end)
    generators = [
        parse_polynomial(chunk, field, names, line, col)
        for chunk, line, col in poly_chunks["ideal"]
    ]

    target = None
    if poly_chunks["target"]:
        if len(poly_chunks["target"]) > 1:
            chunk, line, col = poly_chunks["target"][1]
            raise ParseError("only one target polynomial is allowed", line, col)
        chunk, line, col = poly_chunks["target"][0]
        target = parse_polynomial(chunk, field, names, line, col)

    return ProblemFile(field, names, order, weights, generators, target)


def _split_on_commas(text: str, line: int, col: int) -> list[tuple[str, int, int]]:
    """Split a physical line into polynomial chunks at top-level commas."""
    chunks = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            piece = text[start:i]
            if piece.strip():
                chunks.append((piece, line, col + start))
            start = i + 1
    piece = text[start:]
    if piece.strip():
        chunks.append((piece, line, col + start))
    return chunks
