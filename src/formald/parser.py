"""Expression grammar for series, operators, symbols and module descriptors.

Grammar: rationals ``p/q``, variables ``x1..xn``, derivative generators
``d1..dn``, symbol generators ``z1..zn`` (bare ``x``/``d``/``z`` are
accepted when there is a single variable), ``+ - * ^``, parentheses and
``exp(...)``.  Canonical printing of every value reparses to an equal
value at the same precision.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, UnsupportedExponent
from .modules import ModulePresentation
from .series import Series, exp_series
from .symbols import Symbol
from .weyl import DiffOp, op_product

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>\d+)
  | (?P<name>[xdz]\d*)
  | (?P<exp>exp\b)
  | (?P<op>[-+*^/()])
""", re.VERBOSE)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if match.lastgroup != "ws":
            tokens.append((match.lastgroup, match.group(), pos))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the token list.

    Values stay Fraction / Series / DiffOp / Symbol and are promoted as
    they combine; mixing d- and z-generators is rejected."""

    def __init__(self, text, num_vars, precision):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.num_vars = num_vars
        self.precision = precision

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, value):
        kind, text, at = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text!r}", at)

    def parse(self):
        value = self.expr()
        kind, text, at = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {text!r}", at)
        return value

    def expr(self):
        # a chain of Fraction and Series summands is added in one pass at
        # its end; an operator or symbol summand is added pairwise
        plain = (Fraction, Series)
        summands = [self.term()]
        while True:
            kind, text, at = self.peek()
            if text not in ("+", "-"):
                return self._sum(summands)
            self.next()
            value = self.term()
            if text == "-":
                value = self._neg(value)
            if isinstance(summands[0], plain) and isinstance(value, plain):
                summands.append(value)
            else:
                summands = [self._add(self._sum(summands), value, at)]

    def term(self):
        value = self.factor()
        while True:
            kind, text, at = self.peek()
            if text != "*":
                return value
            self.next()
            if self.peek()[1].startswith("d"):
                value = self._times_derivative(value, self.power(), at)
            else:
                value = self._mul(value, self.factor(), at)

    def factor(self):
        kind, text, at = self.peek()
        if text == "-":
            self.next()
            return self._neg(self.factor())
        return self.power()

    def power(self):
        literal = self.peek()[1].startswith("d")
        value = self.atom()
        kind, text, at = self.peek()
        if text == "^":
            self.next()
            kind, text, at = self.next()
            if kind != "num":
                raise ParseError("exponent must be a nonnegative integer", at)
            if literal:
                # d_i^k directly: the literal's coefficient 1 is exact
                value = DiffOp(self.num_vars, {tuple(a * int(text) for a in key): c
                                               for key, c in value.coeffs.items()})
            else:
                value = value ** int(text)
        return value

    def atom(self):
        kind, text, at = self.next()
        if kind == "num":
            value = Fraction(int(text))
            if self.peek()[1] == "/":
                self.next()
                kind2, text2, at2 = self.next()
                if kind2 != "num":
                    raise ParseError("denominator must be an integer", at2)
                if int(text2) == 0:
                    raise ParseError("zero denominator", at2)
                value /= int(text2)
            return value
        if kind == "name":
            return self._generator(text, at)
        if kind == "exp":
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            inner = self._as_series(inner, at)
            if inner.constant_term:
                raise UnsupportedExponent(
                    "exp needs an argument with zero constant term")
            return exp_series(inner)
        if text == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {text!r}", at)

    def _generator(self, text, at):
        letter, digits = text[0], text[1:]
        if digits:
            axis = int(digits)
        elif self.num_vars == 1:
            axis = 1
        else:
            raise ParseError(
                f"bare {letter!r} needs an index with {self.num_vars} variables", at)
        if not 1 <= axis <= self.num_vars:
            raise ParseError(f"index {axis} out of range "
                             f"for {self.num_vars} variables", at)
        if letter == "x":
            return Series.variable(self.num_vars, axis, self.precision)
        if letter == "d":
            return DiffOp.partial(self.num_vars, axis, self.precision)
        return Symbol.zeta(self.num_vars, axis, self.precision)

    # -- promotion arithmetic ------------------------------------------

    def _as_series(self, value, at):
        if isinstance(value, Fraction):
            return Series.constant(self.num_vars, value, self.precision)
        if isinstance(value, Series):
            return value
        raise ParseError("expected a plain series expression", at)

    def _sum(self, values):
        """The sum of one value, or of several Fraction and Series values."""
        if len(values) == 1:
            return values[0]
        if all(isinstance(v, Fraction) for v in values):
            return sum(values)
        return Series.sum_of([Series.constant(self.num_vars, v, self.precision)
                              if isinstance(v, Fraction) else v for v in values])

    def _neg(self, value):
        return -value

    def _add(self, a, b, at):
        return self._combine(a, b, at, add=True)

    def _mul(self, a, b, at):
        return self._combine(a, b, at, add=False)

    def _combine(self, a, b, at, add):
        if {type(a), type(b)} == {DiffOp, Symbol}:
            raise ParseError("cannot mix derivative and symbol generators", at)
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a + b if add else a * b
        if isinstance(a, DiffOp) or isinstance(b, DiffOp):
            a, b = self._promote(a, DiffOp), self._promote(b, DiffOp)
            return a + b if add else op_product(a, b)
        if isinstance(a, Symbol) or isinstance(b, Symbol):
            a, b = self._promote(a, Symbol), self._promote(b, Symbol)
            return a + b if add else a * b
        a, b = self._as_series(a, at), self._as_series(b, at)
        return a + b if add else a * b

    def _times_derivative(self, value, literal, at):
        """value * d^beta for a derivative literal d^beta: its coefficient 1
        is exact and derivatives commute, so every key of value shifts by
        beta and no coefficient is differentiated."""
        if isinstance(value, Symbol):
            raise ParseError("cannot mix derivative and symbol generators", at)
        (beta,) = literal.coeffs
        value = self._promote(value, DiffOp)
        return DiffOp(self.num_vars, {tuple(a + b for a, b in zip(alpha, beta)): c
                                      for alpha, c in value.coeffs.items()})

    def _promote(self, value, cls):
        if isinstance(value, cls):
            return value
        if isinstance(value, Fraction):
            value = Series.constant(self.num_vars, value, self.precision)
        return cls.from_series(value)


def parse_series(text, num_vars, precision):
    value = _Parser(text, num_vars, precision).parse()
    if isinstance(value, Fraction):
        return Series.constant(num_vars, value, precision)
    if not isinstance(value, Series):
        raise ParseError("expression is not a plain series", 0)
    return value


def parse_operator(text, num_vars, precision):
    return _parse_poly(text, num_vars, precision, DiffOp, "an operator")


def parse_symbol(text, num_vars, precision):
    return _parse_poly(text, num_vars, precision, Symbol, "a symbol")


def _parse_poly(text, num_vars, precision, cls, noun):
    parser = _Parser(text, num_vars, precision)
    value = parser.parse()
    if isinstance(value, (Fraction, Series)):
        return parser._promote(value, cls)
    if not isinstance(value, cls):
        raise ParseError(f"expression is not {noun}", 0)
    return value


def _split_top_level(text, separator):
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == separator and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def parse_module(text, num_vars, precision):
    """Module descriptors: ``R``, ``R_loc(f)`` or ``conn(r; A1; ...; An)``
    with each matrix written ``[[a,b],[c,d]]`` in the series grammar.

    The result is the module itself, with no truncation: the series bound
    and the pole order are given to the ladder that slices it."""
    text = text.strip()
    if text == "R":
        return ModulePresentation.structure(num_vars, precision)
    if text.startswith("R_loc(") and text.endswith(")"):
        inner = text[len("R_loc("):-1]
        return ModulePresentation.localization(
            parse_series(inner, num_vars, precision))
    if text.startswith("conn(") and text.endswith(")"):
        inner = text[len("conn("):-1]
        parts = [p.strip() for p in _split_top_level(inner, ";")]
        if len(parts) != num_vars + 1:
            raise ParseError(
                f"conn needs a rank and {num_vars} matrices", 0)
        try:
            rank = int(parts[0])
        except ValueError:
            raise ParseError("conn rank must be an integer", 0) from None
        matrices = []
        for part in parts[1:]:
            matrices.append(_parse_matrix(part, rank, num_vars, precision))
        return ModulePresentation.connection(matrices)
    raise ParseError(f"unknown module descriptor {text!r}", 0)


def _parse_matrix(text, rank, num_vars, precision):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("matrix must be bracketed", 0)
    rows = []
    for row_text in _split_top_level(text[1:-1], ","):
        row_text = row_text.strip()
        if not row_text:
            continue
        if not (row_text.startswith("[") and row_text.endswith("]")):
            raise ParseError("matrix rows must be bracketed", 0)
        entries = [parse_series(entry, num_vars, precision)
                   for entry in _split_top_level(row_text[1:-1], ",")]
        if len(entries) != rank:
            raise ParseError(f"matrix row needs {rank} entries", 0)
        rows.append(entries)
    if len(rows) != rank:
        raise ParseError(f"matrix needs {rank} rows", 0)
    return rows
