"""Expression grammar for series, operators, symbols and module descriptors.

Grammar: rationals ``p/q``, variables ``x1..xn``, derivative generators
``d1..dn``, symbol generators ``z1..zn`` (bare ``x``/``d``/``z`` are
accepted when there is a single variable), ``+ - * ^``, parentheses and
``exp(...)``.  Canonical printing of every value reparses to an equal
value at the same precision.

The text is tokenized by one regular-expression pass, one match per
token with the whitespace before it (``_TOKEN``); a token's position is
the start of its group.  A term's leading run of factors that commute is
read inline into one integer numerator and denominator, one x-exponent and
one z-exponent, and no value is built per factor: numbers ``p``, ``p/q``
and ``p/q^k``, ``x_i^k`` and ``z_i^k``, each also after a unary ``+`` or
``-``, and the parenthesised literal ``([+-]p[/q])``, q nonzero, with an
optional ``^k``, which is folded from its tokens as the number is.  Any
other parenthesis whose value is a rational, such as ``((3))`` or
``(1/2 + 1/3)``, is read by recursive descent and folded after.  From the
first other factor on (``d_i``, ``exp(...)``, a parenthesis of any other
value, ``--``), the term continues by recursive descent, factor by factor
in the order written.  A term read inline makes one ``Fraction``.  A sum
adds such monomials and its Fraction, Series and Symbol summands into one
dict, z-exponent to x-exponent to coefficient, that is wrapped once; a
key whose sum vanishes, or that only a zero summand reached, stays as a
floor, as in a sum of values.  From its first operator summand on,
summands are added pairwise, as operator coefficients may be known to
different precisions.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import NamedTuple

from .errors import (BoundOverflow, InsufficientPrecision, ParseError,
                     UnsupportedExponent)
from .modules import ModulePresentation
from .series import Series, exp_series
from .symbols import Symbol
from .weyl import DiffOp, op_product

# one match per token, the whitespace before it included, and a token's
# position is the start of its group; trailing whitespace is read with the
# end, so no match ever backtracks out of a run of whitespace
_TOKEN = re.compile(r"""\s*(?:
    (?P<num>\d+)
  | (?P<name>[xdz]\d*)
  | (?P<exp>exp\b)
  | (?P<op>[-+*^/()])
  | (?P<end>\Z)
  | (?P<bad>.)
)""", re.VERBOSE | re.DOTALL)


def _digit_limit():
    """``sys.get_int_max_str_digits()``; 0 (no limit) on an interpreter
    without one."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _check_power(p, q, k):
    """Raise BoundOverflow, before (p/q)^k is computed, when p^k or q^k
    would have more digits than the digit limit: Python would not print
    it, and the power alone can run for minutes (3^20000000).  b^k has
    floor(k*log10|b|) + 1 digits; k is compared against limit/log10|b|, as
    an int k of thousands of digits has no float.  A limit of 0 is none."""
    limit = _digit_limit()
    if limit and any(abs(b) > 1 and k >= limit / math.log10(abs(b)) for b in (p, q)):
        raise BoundOverflow(f"a coefficient has more than {limit} digits to print")


def _tokenize(text):
    """The token list.  A literal (a number, an exponent or a generator's
    index) longer than ``sys.get_int_max_str_digits()`` is a ParseError at
    its position, as Python would refuse to read it; a limit of 0 (or an
    interpreter with none) is no limit."""
    limit = _digit_limit()
    # no literal is longer than the text
    limit = limit if limit and len(text) > limit else 0
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        token = (kind, match[kind], match.start(kind))
        if kind == "bad":
            raise ParseError(f"unexpected character {token[1]!r}", token[2])
        if limit and kind in ("num", "name"):
            digits = len(token[1]) - (kind == "name")
            if digits > limit:
                raise ParseError(f"literal of {digits} digits exceeds the "
                                 f"{limit}-digit limit", token[2])
        tokens.append(token)
        if kind == "end":
            return tokens


class _Monomial(NamedTuple):
    """A term read whole by the inline reader: coeff * x^xs * z^zs.  Its
    rank is what it wraps to: 0 a Fraction (no x or z factor was read),
    1 a Series, 2 a Symbol."""

    rank: int
    coeff: Fraction
    xs: tuple
    zs: tuple


def _folds(token):
    """Whether a token opens a number or an x_i / z_i factor."""
    kind, text, _ = token
    return kind == "num" or kind == "name" and text[0] != "d"


def _add_terms(chain, z, terms):
    """chain[z] += terms, given as (x-exponent, Fraction) pairs, on
    z-exponent -> x-exponent -> Fraction dicts: a new exponent is stored, a
    repeated one summed, and dropped if the sum vanishes.  chain[z] is kept
    when it is empty: it stands for a coefficient that vanishes to the parse
    precision, which a SeriesPoly keeps as a floor.  An empty chain[z] is
    moved last when terms are added to it, as a SeriesPoly sum puts a key
    that was a floor after the coefficients it has."""
    into = chain.get(z)
    if not into:
        chain.pop(z, None)
        chain[z] = into = {}
    for e, c in terms:
        if e in into:
            c += into[e]
            if not c:
                del into[e]
                continue
        into[e] = c


class _Parser:
    """Recursive descent over the token list.

    Values stay Fraction / Series / DiffOp / Symbol and are promoted as
    they combine; mixing d- and z-generators is rejected.  ``term`` returns
    a term read whole by the inline reader as a ``_Monomial``, which
    ``expr`` adds into its chain or wraps."""

    def __init__(self, text, num_vars, precision):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.num_vars = num_vars
        self.precision = precision
        self.zero = (0,) * num_vars

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
        term = self.term()
        kind, text, at = self.peek()
        if text not in ("+", "-"):
            return self._wrap(term)
        # the summands joined so far wrap to rank 0 (Fraction), 1 (Series)
        # or 2 (Symbol); value is the pairwise sum from the first summand the
        # chain cannot hold on
        chain, rank, value = {}, -1, None
        while True:
            if value is not None:
                value = self._add(value, self._wrap(term), at)
            elif (joined := self._join(chain, term)) is not None:
                rank = max(rank, joined)
            else:
                value = self._wrap(term)
                if rank >= 0:
                    value = self._add(self._chain_value(chain, rank), value, at)
            kind, text, at = self.peek()
            if text not in ("+", "-"):
                return self._chain_value(chain, rank) if value is None else value
            self.next()
            term = self.term()
            if text == "-":
                term = self._neg(term)

    def term(self):
        """factor ('*' factor)*.  The leading run of folded factors is
        num/den * x^xs * z^zs; star is the position of the last '*' read."""
        tokens, n = self.tokens, self.num_vars
        num, den, rank, xs, zs = 1, 1, 0, [0] * n, [0] * n
        star = value = None
        while True:
            kind, text, at = tokens[self.pos]
            negative = False
            if text in ("+", "-") and _folds(tokens[self.pos + 1]):
                negative = text == "-"
                self.pos += 1
                kind, text, at = tokens[self.pos]
            if kind == "num" or text == "(" and (literal := self._literal()):
                if kind == "num":
                    p, q = self._rational()
                else:
                    # in lowest terms, as the descent's Fraction is powered
                    g = math.gcd(*literal)
                    p, q = literal[0] // g, literal[1] // g
                k = self._exponent()
                if k is not None:
                    _check_power(p, q, k)
                    p, q = p ** k, q ** k
                num, den = num * p, den * q
            elif kind == "name" and text[0] != "d":
                axis = self._axis(text, at)
                self.pos += 1
                k = self._exponent()
                exps, rank = (xs, max(rank, 1)) if text[0] == "x" else (zs, 2)
                exps[axis - 1] += 1 if k is None else k
            elif text == "(":
                self.pos += 1
                inner = self.expr()
                self.expect(")")
                value = self._raise(inner)
                if not isinstance(value, Fraction):
                    break
                num, den = num * value.numerator, den * value.denominator
                value = None
            else:
                break
            if negative:
                num = -num
            if tokens[self.pos][1] != "*":
                return _Monomial(rank, Fraction(num, den), tuple(xs), tuple(zs))
            star = self.pos
            self.pos += 1
        # the first other factor: the run so far, if any, is wrapped once
        if star is not None:
            run = self._wrap(_Monomial(rank, Fraction(num, den), tuple(xs), tuple(zs)))
            if value is None:
                self.pos, value = star, run
            else:
                value = self._mul(run, value, tokens[star][2])
        elif value is None:
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
        if text == "+":
            self.next()
            return self.factor()
        return self.power()

    def power(self):
        if not self.peek()[1].startswith("d"):
            return self._raise(self.atom())
        value = self.atom()
        k = self._exponent()
        if k is None:
            return value
        # d_i^k directly: the literal's coefficient 1 is exact
        return DiffOp(self.num_vars, {tuple(a * k for a in key): c
                                      for key, c in value.coeffs.items()})

    def atom(self):
        kind, text, at = self.peek()
        if kind == "num":
            return Fraction(*self._rational())
        self.next()
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

    def _rational(self):
        """The integers (p, q) of a literal ``p`` or ``p/q``."""
        kind, text, at = self.next()
        p, q = int(text), 1
        if self.peek()[1] == "/":
            self.next()
            kind, text, at = self.next()
            if kind != "num":
                raise ParseError("denominator must be an integer", at)
            q = int(text)
            if not q:
                raise ParseError("zero denominator", at)
        return p, q

    def _literal(self):
        """The integers (p, q) of a parenthesised literal ``([+-]p[/q])``,
        q nonzero, at the current token, which is consumed; else None, and
        nothing is."""
        tokens, at = self.tokens, self.pos + 1
        sign = tokens[at][1]
        if sign in ("+", "-"):
            at += 1
        kind, text, _ = tokens[at]
        if kind != "num":
            return None
        p, q = int(text), 1
        if tokens[at + 1][1] == "/":
            kind, text, _ = tokens[at + 2]
            if kind != "num" or not (q := int(text)):
                return None
            at += 2
        if tokens[at + 1][1] != ")":
            return None
        self.pos = at + 2
        return (-p if sign == "-" else p), q

    def _exponent(self):
        """The k of an optional ``^k``, else None."""
        if self.peek()[1] != "^":
            return None
        self.next()
        kind, text, at = self.next()
        if kind != "num":
            raise ParseError("exponent must be a nonnegative integer", at)
        return int(text)

    def _raise(self, value):
        k = self._exponent()
        if k is None:
            return value
        if isinstance(value, Fraction):
            _check_power(value.numerator, value.denominator, k)
        elif isinstance(value, Series):
            # the power's constant term is exactly c0^k
            c0 = Fraction(value.constant_term)
            _check_power(c0.numerator, c0.denominator, k)
        return value ** k

    def _axis(self, text, at):
        """The checked 1-based index of a generator literal."""
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
        if letter == "x" and self.precision < 1:
            raise InsufficientPrecision(
                f"variable {text!r} at position {at} needs precision >= 1")
        return axis

    def _generator(self, text, at):
        axis = self._axis(text, at)
        if text[0] == "x":
            return Series.variable(self.num_vars, axis, self.precision)
        if text[0] == "d":
            return DiffOp.partial(self.num_vars, axis, self.precision)
        return Symbol.zeta(self.num_vars, axis, self.precision)

    # -- sums of monomials ---------------------------------------------

    def _join(self, chain, term):
        """Add a summand into the chain and return its rank: 0 for a
        Fraction, 1 for a Series, 2 for a Symbol.  A symbol's floors are
        added as the zero series they stand for.  An operator is not
        added, nor a symbol with a coefficient or a floor known below the
        parse precision, and None is returned.  Every parsed Series is
        known to the parse precision."""
        p, zero = self.precision, self.zero
        if isinstance(term, Fraction):
            term = _Monomial(0, term, zero, zero)
        if isinstance(term, _Monomial):
            kept = term.coeff and sum(term.xs) <= p
            _add_terms(chain, term.zs, ((term.xs, term.coeff),) if kept else ())
            return term.rank
        if isinstance(term, Series):
            _add_terms(chain, zero, term.terms.items())
            return 1
        if isinstance(term, Symbol):
            entries = term.entries()
            if all(s.precision == p for s in entries.values()):
                for z, series in entries.items():
                    _add_terms(chain, z, series.terms.items())
                return 2
        return None

    def _chain_value(self, chain, rank):
        """The chain as a Fraction, a Series or a Symbol, whose empty
        entries are floors at the parse precision."""
        n, p, zero = self.num_vars, self.precision, self.zero
        if rank == 0:
            # a stored coefficient is nonzero
            return chain.get(zero, {}).get(zero) or Fraction(0)
        if rank == 1:
            return Series._raw(n, p, chain.get(zero, {}))
        return Symbol(n, {z: Series._raw(n, p, terms) for z, terms in chain.items()})

    def _wrap(self, term):
        """A folded monomial as a Fraction, Series or Symbol; any other
        value as it is."""
        if not isinstance(term, _Monomial):
            return term
        if term.rank == 0:
            return term.coeff
        chain = {}
        return self._chain_value(chain, self._join(chain, term))

    # -- promotion arithmetic ------------------------------------------

    def _as_series(self, value, at):
        if isinstance(value, Fraction):
            return Series.constant(self.num_vars, value, self.precision)
        if isinstance(value, Series):
            return value
        raise ParseError("expected a plain series expression", at)

    @staticmethod
    def _neg(value):
        if isinstance(value, _Monomial):
            return value._replace(coeff=-value.coeff)
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
        is exact and derivatives commute, so every key of value, a floor
        included, shifts by beta and no coefficient is differentiated."""
        if isinstance(value, Symbol):
            raise ParseError("cannot mix derivative and symbol generators", at)
        (beta,) = literal.coeffs
        value = self._promote(value, DiffOp)
        return DiffOp(self.num_vars, {tuple(a + b for a, b in zip(alpha, beta)): c
                                      for alpha, c in value.entries().items()})

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
        if rank < 1:
            raise ParseError("conn rank must be >= 1", 0)
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
