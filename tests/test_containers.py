"""Properties of the coefficient container shared by operators and symbols
(``series.SeriesPoly``): the additive group, promotion of scalars and
series, powers, and the separation of the two subclasses."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from formald.series import Series, monomials_upto
from formald.symbols import Symbol
from formald.weyl import DiffOp

CLASSES = pytest.mark.parametrize("cls", [DiffOp, Symbol],
                                  ids=lambda c: c.__name__)
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3]))
scalars = st.one_of(st.integers(-3, 3), rationals)


def series(num_vars, precision):
    exponents = st.sampled_from(monomials_upto(num_vars, min(precision, 2)))
    return st.dictionaries(exponents, rationals, max_size=4).map(
        lambda terms: Series(num_vars, precision, terms))


@st.composite
def samples(draw, cls, count=3, max_order=2, max_precision=8):
    """``count`` values of ``cls`` and one series, all in the same number
    of variables with every coefficient known to the same precision."""
    n = draw(st.integers(1, 2))
    p = draw(st.integers(2, max_precision))
    keys = st.sampled_from(monomials_upto(n, max_order))
    values = [cls(n, draw(st.dictionaries(keys, series(n, p), max_size=3)))
              for _ in range(count)]
    return values, draw(series(n, p))


@CLASSES
@SETTINGS
@given(data=st.data())
def test_additive_group_laws(cls, data):
    (a, b, c), _ = data.draw(samples(cls))
    zero = cls.zero(a.num_vars)
    assert a + zero == a == zero + a
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a + (-a)).is_zero()
    assert -(-a) == a
    assert a - b == a + (-b)


@CLASSES
@SETTINGS
@given(data=st.data())
def test_promotion_on_both_sides(cls, data):
    (a,), s = data.draw(samples(cls, count=1))
    k = data.draw(scalars)
    # a scalar is known to the least precision of a's coefficients
    lifted = cls.from_series(Series.constant(a.num_vars, k, a.min_precision()))
    assert a + k == a + lifted == k + a
    assert a - k == a - lifted
    assert k - a == lifted - a
    scaled = cls(a.num_vars, {key: v * k for key, v in a.coeffs.items()})
    assert a * k == scaled == k * a
    lifted = cls.from_series(s)
    assert a + s == a + lifted and s + a == lifted + a
    assert a - s == a - lifted and s - a == lifted - a
    assert a * s == a * lifted and s * a == lifted * a


@CLASSES
@SETTINGS
@given(data=st.data(), k=st.integers(1, 3))
def test_powers_are_repeated_products(cls, data, k):
    # order <= 1 keeps the k - 1 <= 2 derivatives of a product within the
    # precision (>= 2) of the coefficients
    (a,), _ = data.draw(samples(cls, count=1, max_order=1))
    assert a ** 0 == cls.from_series(Series.one(a.num_vars, a.min_precision()))
    product = a
    for _ in range(k - 1):
        product = product * a
    assert a ** k == product
    with pytest.raises(ValueError):
        a ** -1


@CLASSES
@SETTINGS
@given(data=st.data())
def test_scalar_zero(cls, data):
    (a,), _ = data.draw(samples(cls, count=1))
    for zero in (0, Fraction(0)):
        assert (a * zero).is_zero() and (zero * a).is_zero()
        assert a + zero == a == zero + a
        assert a - zero == a and zero - a == -a


@SETTINGS
@given(data=st.data())
def test_operators_and_symbols_do_not_mix(data):
    (op,), s = data.draw(samples(DiffOp, count=1))
    sym = Symbol(op.num_vars, {(0,) * op.num_vars: s, **op.coeffs})
    for combine in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            combine(op, sym)
        with pytest.raises(TypeError):
            combine(sym, op)
    assert op != sym and sym != op
    assert Symbol(op.num_vars, op.coeffs) != op
