"""The expression grammar: canonical printing reparses, and every malformed
input is rejected with a typed error."""

import math
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from formald.derham import ModuleFamily
from formald.errors import (BoundOverflow, InsufficientPrecision, ParseError,
                            UnsupportedExponent)
from formald.parser import parse_module, parse_operator, parse_series, parse_symbol
from formald.series import Series, monomials_upto
from formald.symbols import Symbol
from formald.weyl import DiffOp

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

rationals = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3, 7]))
PARSERS = {Series: parse_series, DiffOp: parse_operator, Symbol: parse_symbol}


@st.composite
def printed_values(draw):
    """(value, num_vars, parse precision, exact): every coefficient of the
    value is known to at most the parse precision, and to exactly it when
    ``exact`` holds.  Operators have order up to 3 at every precision,
    above precision + 1 included."""
    n = draw(st.integers(1, 3))
    p = draw(st.integers(0, 6))
    exact = draw(st.booleans())

    def series():
        q = p if exact else draw(st.integers(0, p))
        exponents = st.sampled_from(monomials_upto(n, min(q, 3)))
        return Series(n, q, draw(st.dictionaries(exponents, rationals, max_size=4)))

    cls = draw(st.sampled_from(list(PARSERS)))
    if cls is Series:
        return series(), n, p, exact
    order = 3 if cls is DiffOp else 2
    keys = draw(st.lists(st.sampled_from(monomials_upto(n, order)), max_size=3,
                         unique=True))
    return cls(n, {key: series() for key in keys}), n, p, exact


@SETTINGS
@given(printed_values())
def test_canonical_printing_reparses(sample):
    value, n, p, exact = sample
    parsed = PARSERS[type(value)](str(value), n, p)
    assert type(parsed) is type(value)
    assert str(parsed) == str(value)
    if exact:
        assert parsed == value


def test_operator_of_order_above_precision_plus_one_reparses():
    value = DiffOp(1, {(3,): Series.constant(1, 1, 1)})
    assert parse_operator(str(value), 1, 1) == value


MALFORMED = [
    ("x", 2, "bare 'x' needs an index", 0),
    ("x3", 2, "index 3 out of range", 0),
    ("d0", 2, "index 0 out of range", 0),
    ("1/0", 1, "zero denominator", 2),
    ("1/x", 1, "denominator must be an integer", 2),
    ("d1*z1", 2, "cannot mix derivative and symbol generators", 2),
    ("z1 + d2", 2, "cannot mix derivative and symbol generators", 3),
    ("x1 x2", 2, "trailing input", 3),
    ("(x1", 2, "expected ')'", 3),
    ("x1^x2", 2, "exponent must be a nonnegative integer", 3),
    ("x1^(1/2)", 2, "exponent must be a nonnegative integer", 3),
    ("x1^-1", 2, "exponent must be a nonnegative integer", 3),
    ("x1 % 2", 2, "unexpected character", 3),
    ("exp(d1)", 2, "expected a plain series expression", 0),
    # a parenthesised coefficient and then the term reader's factors
    ("(1/0)*x1", 2, "zero denominator", 3),
    ("(3)*x1^-1", 2, "exponent must be a nonnegative integer", 7),
    ("(2)*x3", 2, "index 3 out of range", 4),
    ("(2)*x", 2, "bare 'x' needs an index", 4),
    ("(1/2)*x1*z1*d1", 2, "cannot mix derivative and symbol generators", 11),
    ("(2)*x1 % 3", 2, "unexpected character '%'", 7),
    ("(-)*x1", 2, "unexpected token ')'", 2),
    ("(+)*x1", 2, "unexpected token ')'", 2),
    # near misses of the inline literal ([+-]p[/q]), read by the descent
    ("(3/0)*x1", 2, "zero denominator", 3),
    ("(-3/2*x1", 2, "expected ')', found ''", 8),
    ("(- )", 2, "unexpected token ')'", 3),
    ("(3/x1)*x1", 2, "denominator must be an integer", 3),
    ("(3/2/5)*x1", 2, "expected ')', found '/'", 4),
    # and errors after one
    ("(-3/2)^2^2", 2, "trailing input '^'", 8),
    ("(-3/2)^x1", 2, "exponent must be a nonnegative integer", 7),
]


@pytest.mark.parametrize("text, num_vars, message, position", MALFORMED,
                         ids=[f"{t}-{n}-{m}" for t, n, m, _ in MALFORMED])
def test_malformed_expressions_raise_parse_error(text, num_vars, message, position):
    parse = parse_symbol if "z" in text else parse_operator
    with pytest.raises(ParseError, match=re.escape(message)) as error:
        parse(text, num_vars, 4)
    assert error.value.position == position


@st.composite
def literal_factors(draw):
    """A parenthesised literal as the term reader folds it, ``(-p/q)^k``,
    q = 0 included, or a near miss, and the same text in a second pair of
    parentheses, which the recursive descent reads."""
    sign = draw(st.sampled_from(["", "-", "+", " - "]))
    p = draw(st.integers(0, 10 ** 12))
    q = draw(st.sampled_from(["", "/1", "/0", "/6", f"/{draw(st.integers(1, 10 ** 9))}"]))
    k = draw(st.sampled_from(["", "^0", "^1", "^3", "^x1"]))
    return f"({sign}{p}{q}){k}", f"(({sign}{p}{q})){k}"


@SETTINGS
@given(literal_factors(), st.sampled_from(["*x1", " + x2", "*(2/3)", "*d1", ""]))
def test_an_inline_literal_reads_as_the_descent(literal, rest):
    # the value, or the error and its message; the descent's extra
    # parentheses move a position inside them by one, and one after them
    # by two
    inline, nested = literal
    inner_close = inline.index(")") + 1

    def read(text):
        try:
            return repr(parse_operator(text, 2, 4))
        except ParseError as error:
            return error.args[0].rsplit(" (at position", 1)[0], error.position
    value, reference = read(inline + rest), read(nested + rest)
    if isinstance(reference, tuple):
        at = reference[1]
        assert value == (reference[0], at - (1 if at <= inner_close else 2))
    else:
        assert value == reference


@pytest.mark.parametrize("text, value", [
    ("((3))^2*x1", "9*x1"),
    ("(6/4)^2*x1 + (-3/2)^3 + (+5/10)", "-23/8 + 9/4*x1"),
    ("(-0)*x1 + (0/7)", "0"),
    ("(  -  3 /  2 )*x2", "-3/2*x2"),
])
def test_parenthesised_literals(text, value):
    assert str(parse_series(text, 2, 4)) == value


# ±1, ±1/q, integers and p/q of many digits, as coefficients
printed_coeffs = st.one_of(
    st.sampled_from([1, -1, Fraction(1, 2), Fraction(-1, 3)]),
    st.integers(-10 ** 6, 10 ** 6).filter(bool),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40).filter(bool),
              st.integers(1, 10 ** 30)))


@SETTINGS
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, 6).flatmap(lambda p: st.tuples(st.just(p), st.dictionaries(
        st.sampled_from(monomials_upto(n, p)), printed_coeffs, max_size=8))))))
def test_printed_series_reparse_to_themselves(sample):
    n, (p, terms) = sample
    series = Series(n, p, terms)
    assert parse_series(str(series), n, p) == series


@pytest.mark.parametrize("text, literal, position", [
    ("2*x1", "x1", 2),           # read inline, in a term's leading run
    ("(1 + z1)*x1", "x1", 9),    # read by the descent, after a parenthesis
])
def test_variable_at_precision_zero_is_insufficient_precision(text, literal, position):
    with pytest.raises(InsufficientPrecision,
                       match=re.escape(f"variable {literal!r} at position {position}")):
        parse_symbol(text, 1, 0)


def test_exp_of_a_unit_is_unsupported():
    with pytest.raises(UnsupportedExponent):
        parse_series("exp(1 + x)", 1, 4)


@pytest.mark.parametrize("signed, plain", [
    ("+x1^2", "x1^2"),
    ("+3/2*x2 - x1", "3/2*x2 - x1"),
    ("+(1 + x1)*x2", "(1 + x1)*x2"),
    ("x1*+x2 + +1", "x1*x2 + 1"),
    ("+-x1", "-x1"),
    ("-+x1", "-x1"),
])
def test_a_unary_plus_reads_as_written_without_it(signed, plain):
    for parse in PARSERS.values():
        assert repr(parse(signed, 2, 4)) == repr(parse(plain, 2, 4))
    assert parse_operator("+d1*x1", 2, 4) == parse_operator("d1*x1", 2, 4)
    assert parse_symbol("+z1^2", 2, 4) == parse_symbol("z1^2", 2, 4)


def test_plain_series_parser_rejects_operators():
    with pytest.raises(ParseError, match="not a plain series"):
        parse_series("d1", 1, 4)
    with pytest.raises(ParseError, match="not an operator"):
        parse_operator("z1", 1, 4)


@pytest.mark.parametrize("text, message", [
    ("conn(a; [[0]]; [[0]])", "conn rank must be an integer"),
    ("conn(0;[];[])", "conn rank must be >= 1"),
    ("conn(-1;[[0]];[[0]])", "conn rank must be >= 1"),
    ("conn(1; [[0]])", "conn needs a rank and 2 matrices"),
    ("conn(2; [[0,1],[0]]; [[0,0],[0,0]])", "matrix row needs 2 entries"),
    ("conn(2; [[0,1]]; [[0,0],[0,0]])", "matrix needs 2 rows"),
    ("conn(1; 0; [[0]])", "matrix must be bracketed"),
    ("conn(1; [0]; [[0]])", "matrix rows must be bracketed"),
    ("R_loc(x1", "unknown module descriptor"),
])
def test_malformed_modules_raise_parse_error(text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_module(text, 2, 4)


def test_localization_needs_a_pole_bound():
    # a module carries no truncation: the pole bound is asked for when a
    # ladder slices it, not when it is parsed
    module = parse_module("R_loc(x1)", 2, 4)
    with pytest.raises(ValueError, match="needs a pole bound"):
        ModuleFamily(module, 4)
    assert ModuleFamily(module, 4, 2).pole(1) == 3


def repeated_product(series, k):
    result = Series.one(series.num_vars, series.precision)
    for _ in range(k):
        result = result * series
    return result


@SETTINGS
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n), st.integers(1, 6), st.integers(0, 9),
    st.lists(st.integers(0, 2), min_size=n, max_size=n), rationals.filter(bool),
    st.dictionaries(st.sampled_from(monomials_upto(n, 2)), rationals, max_size=3))))
def test_monomial_power_matches_repeated_products(sample):
    n, axis, p, k, exps, c, others = sample
    # a power of a one-term series, beyond the precision included, and a
    # power by repeated squaring of a series with further terms
    if sum(exps) <= p:
        monomial = Series.monomial(n, exps, p, c)
        others = {e: v for e, v in others.items() if sum(e) <= p}
        for base in (monomial, monomial + Series(n, p, others)):
            power = base ** k
            expected = repeated_product(base, k)
            assert power == expected and repr(power) == repr(expected)
            assert all(type(v) is Fraction for v in power.terms.values())
    # an x_i^k literal parses to the same series
    expected = repeated_product(Series.variable(n, axis, p), k)
    parsed = parse_series(f"x{axis}^{k}", n, p)
    assert parsed == expected and repr(parsed) == repr(expected)


def test_power_by_squaring_matches_the_binomial_coefficients():
    # 100000 successive products took seconds; squaring takes 2 log2(k)
    power = parse_series("(1+x1)^100000", 1, 4)
    assert power == Series(1, 4, {(i,): math.comb(100000, i) for i in range(5)})


def test_a_symbol_power_past_the_guard_is_a_typed_error():
    # (1+z1)^k multiplies k(k+1) coefficient pairs in k successive products,
    # 8.9 s at k = 800; the 50,000-pair guard stops it at k = 224
    start = time.perf_counter()
    with pytest.raises(BoundOverflow):
        parse_symbol("(1+z1)^800", 1, 4)
    assert time.perf_counter() - start < 5


def test_a_symbol_power_under_the_guard_matches_repeated_products():
    base = parse_symbol("1+z1", 1, 4)
    expected = Symbol.from_series(Series.one(1, 4))
    for _ in range(50):
        expected = expected * base
    assert parse_symbol("(1+z1)^50", 1, 4) == expected


@SETTINGS
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, 5), st.lists(st.tuples(
        st.sampled_from("+-"), rationals,
        st.lists(st.integers(0, 3), min_size=n, max_size=n)), min_size=1, max_size=30))))
def test_sum_chain_matches_pairwise_sums(sample):
    # a chain of Fraction and Series summands is added in one pass
    n, p, summands = sample
    text, expected = "", Series.zero(n, p)
    for sign, c, exps in summands:
        mono = "*".join(f"x{i}^{e}" for i, e in enumerate(exps, start=1) if e)
        text += f" {sign} ({c})" + (f"*{mono}" if mono else "")
        term = (Series.monomial(n, exps, p, c) if sum(exps) <= p
                else Series.zero(n, p))
        expected = expected + term if sign == "+" else expected - term
    parsed = parse_series(text, n, p)
    assert parsed == expected and repr(parsed) == repr(expected)


@st.composite
def folded_sums(draw):
    """(text, num_vars, precision, expected): a sum of terms written with
    the factors the term reader folds (parenthesised signed rationals, bare
    ones p/q^k, zero included, and x_i^k, z_i^k past the precision too,
    each bare factor maybe after a unary '-'), operator terms ending in a
    d literal, and the value built by constructors."""
    n, p = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    cls = draw(st.sampled_from(list(PARSERS)))
    kinds = {Series: "bpx", Symbol: "bpxz", DiffOp: "bpx"}[cls]
    text = ""
    expected = Series.zero(n, p) if cls is Series else cls.zero(n)
    for _ in range(draw(st.integers(1, 6))):
        coeff, exps, factors = Fraction(1), {"x": [0] * n, "z": [0] * n}, []
        for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4)):
            if kind == "p":
                c = draw(rationals)
                coeff *= c
                body = f"({c})"
            elif kind == "b":
                # '-' binds looser than '^': -p/q^k is -(p/q)^k
                c, k = draw(rationals), draw(st.integers(0, 3))
                coeff *= abs(c) ** k if c >= 0 else -abs(c) ** k
                body = f"{c}^{k}"
            else:
                axis, k = draw(st.integers(1, n)), draw(st.integers(0, 5))
                exps[kind][axis - 1] += k
                body = f"{kind}{axis}^{k}"
            if kind != "p" and draw(st.booleans()):
                coeff, body = -coeff, "-" + body
            factors.append(body)
        key = tuple(exps["z"])
        if cls is DiffOp:
            axis, k = draw(st.integers(1, n)), draw(st.integers(0, 3))
            if k:
                factors.append(f"d{axis}^{k}")
            key = tuple(k if i == axis else 0 for i in range(1, n + 1))
        xs = tuple(exps["x"])
        series = Series(n, p, {xs: coeff} if sum(xs) <= p else {})
        term = series if cls is Series else cls(n, {key: series})
        sign = draw(st.sampled_from("+-"))
        text += f" {sign} " + "*".join(factors)
        expected = expected + term if sign == "+" else expected - term
    return text, n, p, expected


Z1, Z2 = Symbol.zeta(2, 1, 2), Symbol.zeta(2, 2, 2)


@SETTINGS
@given(folded_sums())
# a coefficient that cancels comes back after the next one
@example(("z1 - z1 + z2 + z1", 2, 2, Z1 - Z1 + Z2 + Z1))
# one that stays cancelled, kept as a floor
@example(("z1 - z1 + x1", 2, 2, Z1 - Z1 + Series.variable(2, 1, 2)))
def test_folded_terms_match_constructed_values(sample):
    text, n, p, expected = sample
    parsed = PARSERS[type(expected)](text, n, p)
    assert type(parsed) is type(expected)
    assert parsed == expected and repr(parsed) == repr(expected)
    # in the order the pairwise sums leave
    if isinstance(parsed, Series):
        assert list(parsed.terms) == list(expected.terms)
    else:
        assert list(parsed.coeffs) == list(expected.coeffs)
        assert all(list(s.terms) == list(expected.coeffs[key].terms)
                   for key, s in parsed.coeffs.items())
        # the precision of each coefficient that vanishes is kept, also
        # under an operator term's d literal
        assert parsed.floors == expected.floors


@pytest.mark.parametrize("head, tail", [
    ("x1 + ", ""), ("x1 - 1/", "*x2"), ("x2^", ""), ("3*x", "")],
    ids=["number", "denominator", "exponent", "index"])
def test_a_literal_past_the_digit_limit_is_a_parse_error(head, tail):
    # a literal of more digits than Python converts: a number, a
    # denominator, an exponent or a generator's index; limit 0 is none
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4999)
        with pytest.raises(ParseError, match="literal of 5000 digits") as error:
            parse_series(head + "1" * 5000 + tail, 2, 4)
        assert error.value.position == len(head) - (head[-1] == "x")
        sys.set_int_max_str_digits(0)
        assert parse_series("1" * 5000 + "*x1", 2, 4).terms == {
            (1, 0): int("1" * 5000)}
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("text, base", [
    ("x1*7^{k}", 7), ("x1*1/7^{k}", Fraction(1, 7)), ("(-7)^{k}*x1", -7),
    ("exp(x1)*(2/7)^{k}", Fraction(2, 7)), ("(-14/2)^{k}*x1", -7)])
def test_a_literal_power_is_bounded_by_the_digit_limit(text, base):
    # 7^5088 has 4300 digits and 7^5089 has 4301: the first is read, the
    # second is rejected before it is computed; limit 0 is none
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        assert parse_series(text.format(k=5088), 1, 4).terms[(1,)] == base ** 5088
        with pytest.raises(BoundOverflow, match="more than 4300 digits"):
            parse_series(text.format(k=5089), 1, 4)
        sys.set_int_max_str_digits(0)
        assert parse_series(text.format(k=5089), 1, 4).terms
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("text, c0", [
    ("(7+x1)^{k}", 7), ("(1/7+x1)^{k}", Fraction(1, 7)),
    ("(x1^2-7)^{k}", -7), ("(2/7+x1+x1^3)^{k}", Fraction(2, 7))])
def test_a_series_power_is_bounded_by_its_constant_term(text, c0):
    # the constant term of a series power is exactly c0^k: 7^5088 is read,
    # and 7^5089 is rejected before the power runs; limit 0 is none
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        assert parse_series(text.format(k=5088), 1, 4).constant_term == c0 ** 5088
        start = time.perf_counter()
        with pytest.raises(BoundOverflow, match="more than 4300 digits"):
            parse_series(text.format(k=5089 * 1000), 1, 4)
        assert time.perf_counter() - start < 1
        with pytest.raises(BoundOverflow, match="more than 4300 digits"):
            parse_series(text.format(k=5089), 1, 4)
        sys.set_int_max_str_digits(0)
        assert parse_series(text.format(k=5089), 1, 4).constant_term == c0 ** 5089
    finally:
        sys.set_int_max_str_digits(saved)


def test_a_series_power_with_a_small_constant_term_still_answers():
    # c0 = 1 or 0 puts no bound on k: the power's coefficients below the
    # precision stay binomials, and (x1+x2)^k is zero past the precision
    power = parse_series("(1+x1)^20000000", 1, 3)
    assert power == Series(1, 3, {(i,): math.comb(20000000, i) for i in range(4)})
    assert parse_series("(x1+x2)^20000000", 2, 3).is_zero()
    assert parse_series("(x1-1)^20000001", 1, 2) == Series(
        1, 2, {(0,): -1, (1,): 20000001, (2,): -math.comb(20000001, 2)})


@pytest.mark.parametrize("text, message, position", [
    ("x1 + 1/2 + z1 + d2", "cannot mix derivative and symbol generators", 14),
    ("1 - x1 + d1 - z2 + x2", "cannot mix derivative and symbol generators", 12),
    ("z1 + x1 + 1 + d2 + )", "cannot mix derivative and symbol generators", 12),
    ("1/2 + 1/3 - x1^2 + d1 + d1*z1", "cannot mix derivative and symbol generators", 26),
    ("x1 + 2 - x2 + (", "unexpected token ''", 15),
    ("x1 + exp(d1) + 1", "expected a plain series expression", 5),
])
def test_sum_chain_errors_keep_their_positions(text, message, position):
    # the first error of a chain, where the pairwise sums met it
    for parse in PARSERS.values():
        with pytest.raises(ParseError, match=re.escape(message)) as error:
            parse(text, 2, 4)
        assert error.value.position == position


def test_a_d_literal_keeps_the_floor_of_its_coefficient():
    # x1^9 vanishes to precision 4, and so does its coefficient of d1
    parsed = parse_operator("x1^9*d1", 2, 4)
    assert (parsed.coeffs, parsed.floors) == ({}, {(1, 0): 4})
    product = parse_operator("x1^9", 2, 4) * DiffOp.generator(2, 1, 4)
    assert (product.coeffs, product.floors) == (parsed.coeffs, parsed.floors)


@st.composite
def operators_times_literals(draw):
    """(text of A*d^beta, text of A, text of d^beta, num_vars, precision):
    A a sum of terms c*x^e*d^gamma, x^e past the precision too, or a single
    such term, and d^beta a run of d literals."""
    n, p = draw(st.integers(1, 3)), draw(st.integers(1, 4))

    def monomial(letter, high):
        return "*".join(f"{letter}{axis}^{draw(st.integers(0, high))}"
                        for axis in draw(st.lists(st.integers(1, n), max_size=2)))

    terms = []
    for _ in range(draw(st.integers(1, 4))):
        factors = [f"({draw(rationals)})", monomial("x", 6),
                   monomial("d", 2) if draw(st.booleans()) else ""]
        terms.append("*".join(f for f in factors if f))
    signs = draw(st.lists(st.sampled_from("+-"), min_size=len(terms),
                          max_size=len(terms)))
    a = " ".join(f"{sign} {term}" for sign, term in zip(signs, terms))
    literal = monomial("d", 3) or "d1"
    whole = f"{terms[0]}*{literal}" if len(terms) == 1 else f"({a})*{literal}"
    return whole, terms[0] if len(terms) == 1 else a, literal, n, p


@SETTINGS
@given(operators_times_literals())
@example(("x1^9*d1", "x1^9", "d1", 2, 4))
@example(("(x1 - x1)*d1^2", "x1 - x1", "d1^2", 1, 3))
@example(("(0)*d1*d1", "(0)*d1", "d1", 1, 1))
def test_a_d_literal_shifts_every_key_of_its_operand(sample):
    # A*d^beta moves each key of A, a floor included, by beta, with its
    # precision: the literal's coefficient 1 is exact
    whole, a, literal, n, p = sample
    parsed, left = parse_operator(whole, n, p), parse_operator(a, n, p)
    (beta,) = parse_operator(literal, n, p).coeffs
    shift = lambda entries: {tuple(map(sum, zip(alpha, beta))): v
                             for alpha, v in entries.items()}
    assert parsed.coeffs == shift(left.coeffs)
    assert parsed.floors == shift(left.floors)
    if set(left.entries()) <= {(0,) * n}:
        # with no d in A the DiffOp product moves nothing either: A*d^beta
        # reads as the product of its parsed parts, floors included
        product = left * parse_operator(literal, n, p)
        assert (parsed.coeffs, parsed.floors) == (product.coeffs, product.floors)
