"""Normal-form operator arithmetic, principal symbols."""

import itertools
import math
import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from formald.errors import InsufficientPrecision
from formald.series import Series, monomials_upto
from formald.symbols import Symbol
from formald.weyl import DiffOp, commutator, op_product

from conftest import coeffs_agree, random_series, series_agree
from test_containers import samples


def random_op(rng, num_vars, precision, max_order=2, density=0.5):
    coeffs = {}
    for alpha in monomials_upto(num_vars, max_order):
        if rng.random() < density:
            s = random_series(rng, num_vars, precision, degree=2)
            if not s.is_zero():
                coeffs[alpha] = s
    if not coeffs:
        coeffs[(0,) * num_vars] = Series.one(num_vars, precision)
    return DiffOp(num_vars, coeffs)


def test_commutation_relation():
    d = DiffOp.partial(1, 1, 8)
    xop = DiffOp.from_series(Series.variable(1, 1, 8))
    prod = op_product(d, xop)
    expected = xop * d + DiffOp.from_series(Series.one(1, 7))
    assert coeffs_agree(prod, expected)


def test_left_coefficients_already_normal():
    d = DiffOp.partial(1, 1, 8)
    xop = DiffOp.from_series(Series.variable(1, 1, 8))
    prod = op_product(xop, d)
    assert set(prod.coeffs) == {(1,)}
    assert prod.coeffs[(1,)] == Series.variable(1, 1, 8)


def test_product_matches_action_composition():
    rng = random.Random(20)
    for _ in range(20):
        n = rng.choice([1, 2])
        a = random_op(rng, n, 10)
        b = random_op(rng, n, 10)
        g = random_series(rng, n, 10)
        via_product = op_product(a, b).apply(g)
        via_actions = a.apply(b.apply(g))
        assert series_agree(via_product, via_actions)


def test_apply_basics():
    d = DiffOp.partial(1, 1, 9)
    t = Series.variable(1, 1, 9)
    assert d.apply(t ** 3) == (3 * t * t).truncate(8)
    euler = op_product(DiffOp.from_series(t), d)
    for i in range(1, 6):
        assert series_agree(euler.apply(t ** i), i * t ** i)


def test_apply_leibniz_expansion():
    # (f d)^2 = f d(f) d + f^2 d^2 as actions
    rng = random.Random(21)
    for _ in range(10):
        f = random_series(rng, 1, 10)
        g = random_series(rng, 1, 10)
        d = DiffOp.partial(1, 1, 10)
        fd = DiffOp.from_series(f) * d
        lhs = op_product(fd, fd).apply(g)
        rhs = f * f.partial(1) * g.partial(1) + f * f * g.partial(1).partial(1)
        assert series_agree(lhs, rhs)


def test_order():
    n, prec = 2, 6
    d1 = DiffOp.partial(n, 1, prec)
    d2 = DiffOp.partial(n, 2, prec)
    assert op_product(d1, d2).order == 2
    assert DiffOp.from_series(Series.variable(n, 1, prec) ** 5).order == 0
    f = random_series(random.Random(22), n, prec)
    op = DiffOp.from_series(f) * (d2 * d2) + d1
    assert op.order == 2
    assert DiffOp.zero(n).order is None


def test_principal_symbol_examples():
    n, prec = 2, 8
    d2 = DiffOp.partial(n, 2, prec)
    assert d2.principal_symbol() == Symbol.zeta(n, 2, prec)
    f = Series.variable(n, 1, prec)
    op = DiffOp.from_series(f) * (d2 * d2) + DiffOp.partial(n, 1, prec)
    sym = op.principal_symbol()
    assert sym == Symbol(n, {(0, 2): f})


def test_symbol_of_twisted_derivation_powers():
    rng = random.Random(23)
    n, prec = 2, 12
    d2 = DiffOp.partial(n, 2, prec)
    for q in range(1, 5):
        f = random_series(rng, n, prec, degree=2)
        if f.is_zero():
            continue
        fd = DiffOp.from_series(f) * d2
        sym = (fd ** q).principal_symbol()
        fz = Symbol(n, {(0, 1): f})
        assert sym == fz ** q


def test_commutator_examples():
    n, prec = 2, 8
    d1, d2 = DiffOp.partial(n, 1, prec), DiffOp.partial(n, 2, prec)
    x1 = Series.variable(n, 1, prec)
    x2 = Series.variable(n, 2, prec)
    one = commutator(DiffOp.partial(1, 1, prec),
                     DiffOp.from_series(Series.variable(1, 1, prec)))
    assert coeffs_agree(one, DiffOp.from_series(Series.one(1, prec)))
    assert commutator(d1, d2).is_zero()
    got = commutator(op_product(d1, d2), DiffOp.from_series(x1 * x2))
    expected = (DiffOp.from_series(x1) * d1 + DiffOp.from_series(x2) * d2
                + DiffOp.from_series(Series.one(n, prec)))
    assert coeffs_agree(got, expected)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_product_associativity(data):
    (a, b, c), s = data.draw(samples(DiffOp, max_order=1, max_precision=9))
    left = op_product(op_product(a, b), c)
    right = op_product(a, op_product(b, c))
    for key in left.coeffs.keys() & right.coeffs.keys():
        assert series_agree(left.coeffs[key], right.coeffs[key])
    # a key on one side only vanished on the other, to a precision its
    # floor keeps; each side differentiates a coefficient at most twice, so
    # that precision is at least p - 2
    for key in left.coeffs.keys() ^ right.coeffs.keys():
        coeff = left.coeffs.get(key, right.coeffs.get(key))
        assert coeff.truncate(min(coeff.precision, s.precision - 2)).is_zero()


def test_product_associativity_keeps_vanishing_precision():
    # a(bc) has x2^2 * 1 known to precision 1, which vanishes there; (ab)c
    # has x2^2 and d2(1), zero known to 1, on the same key; both keep the
    # key as a floor at precision 1, not as an exact zero
    p = 2
    x2 = Series.variable(2, 2, p)
    a = DiffOp.from_series(x2 * x2)
    b = DiffOp(2, {(0, 0): Series.one(2, p), (0, 1): x2})
    c = DiffOp.from_series(Series.one(2, p))
    left = op_product(op_product(a, b), c)
    right = op_product(a, op_product(b, c))
    assert coeffs_agree(left, right)
    assert left.floors == right.floors == {(0, 0): 1, (0, 1): 2}


def test_a_sum_keeps_the_precision_of_a_cancelled_key():
    # d - d leaves d1 as zero known to 8, so the scalar 1 is known to 8
    d = DiffOp.partial(1, 1, 8)
    one = (d - d) + 1
    assert one == DiffOp.from_series(Series.one(1, 8))
    assert one.coeffs[(0,)].precision == 8
    assert one.floors == {(1,): 8}


def test_partials_and_principal_symbols_keep_floors():
    # z - z is zero known to 5 on z1: after d/dx1 it is zero known to 4,
    # after d/dz1 zero known to 5 on the constant key
    z = Symbol.zeta(2, 1, 5)
    dx = (z - z).x_partial(1)
    assert dx.floors == {(1, 0): 4} and dx.min_precision() == 4
    dz = (z - z).zeta_partial(1)
    assert dz.floors == {(0, 0): 5} and dz.min_precision() == 5
    # d1 - d1 + d2: the top order keeps the floor on d1
    d1, d2 = DiffOp.partial(2, 1, 5), DiffOp.partial(2, 2, 5)
    top = (d1 - d1 + d2).principal_symbol()
    assert top == Symbol.zeta(2, 2, 5) and top.floors == {(1, 0): 5}


def test_product_keeps_precision_of_vanishing_summands():
    # in a(bc) the constant coefficient is 1 + d1(1), where d1(1) is zero
    # known only to precision 0; the true coefficient is 1 + x2 + x1*x2
    p = 2
    x1, x2 = Series.variable(2, 1, p), Series.variable(2, 2, p)
    a = DiffOp.from_series(Series.one(2, p)) + DiffOp.partial(2, 1, p)
    b = DiffOp.from_series(x1) + DiffOp.partial(2, 2, p)
    c = DiffOp.from_series(x2)
    left = op_product(op_product(a, b), c)
    right = op_product(a, op_product(b, c))
    assert right.coeffs[(0, 0)].precision == 0
    assert series_agree(left.coeffs[(0, 0)],
                        Series(2, p, {(0, 0): 1, (0, 1): 1}))
    assert coeffs_agree(left, right)


def _series_sum_product(a, b):
    """The normal-form product as one Series product per (alpha, beta,
    gamma), summed as series: the formulation op_product replaced, kept
    as its oracle."""
    out = {}
    for alpha, ca in a.entries().items():
        for beta, cb in b.entries().items():
            for gamma in itertools.product(*(range(k + 1) for k in alpha)):
                binom = math.prod(map(math.comb, alpha, gamma))
                moved = tuple(ai - gi for ai, gi in zip(alpha, gamma))
                coeff = ca * cb.partial_multi(moved) * binom
                key = tuple(gi + bi for gi, bi in zip(gamma, beta))
                DiffOp._accumulate(out, key, coeff)
    return DiffOp(a.num_vars, out)


def _raised(compute):
    """compute()'s value with its floors, or the type and message of the
    InsufficientPrecision it raises."""
    try:
        value = compute()
    except InsufficientPrecision as err:
        return type(err), str(err)
    return value, value.floors


@st.composite
def mixed_precision_ops(draw, n):
    """An operator of order <= 2 whose coefficients have precisions of
    their own, 0 to 4, so that differentiating one can exhaust it."""
    keys = st.sampled_from(monomials_upto(n, 2))
    coeffs = {}
    for key in draw(st.lists(keys, max_size=3, unique=True)):
        prec = draw(st.integers(0, 4))
        terms = draw(st.dictionaries(st.sampled_from(monomials_upto(n, prec)),
                                     st.builds(Fraction, st.integers(-4, 4),
                                               st.sampled_from([1, 2, 3, 6])),
                                     max_size=4))
        coeffs[key] = Series(n, prec, terms)
    return DiffOp(n, coeffs)


@st.composite
def mixed_precision_pairs(draw):
    n = draw(st.integers(1, 2))
    return draw(mixed_precision_ops(n)), draw(mixed_precision_ops(n))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(mixed_precision_pairs())
# key d1: x2 d1 (known to 3) plus d1 of x2 (zero, known only to 1)
@example((DiffOp.partial(2, 1, 8),
          DiffOp(2, {(0, 0): Series(2, 3, {(0, 1): 1}),
                     (1, 0): Series(2, 2, {(0, 1): 1})})))
# d1^2 on a coefficient known to 1 cannot be formed
@example((DiffOp(1, {(2,): Series.one(1, 3)}),
          DiffOp.from_series(Series(1, 1, {(1,): 1}))))
# a one-term coefficient with no generator shifts and scales the other
# side, a floor (d1: zero known to 1) included
@example((DiffOp.from_series(Series(2, 4, {(1, 0): Fraction(-3, 2)})),
          DiffOp(2, {(1, 0): Series.zero(2, 1), (0, 1): Series(2, 3, {(0, 1): 1, (2, 1): 2}),
                     (0, 0): Series(2, 2, {(0, 0): Fraction(1, 3), (1, 1): 1})})))
def test_op_product_matches_the_series_sum_formulation(pair):
    # coefficients, each key's precision (the least over its summands, a
    # vanishing one included) and the InsufficientPrecision raise
    a, b = pair
    assert _raised(lambda: op_product(a, b)) == _raised(
        lambda: _series_sum_product(a, b))
    assert _raised(lambda: commutator(a, b)) == _raised(
        lambda: _series_sum_product(a, b) - _series_sum_product(b, a))


def test_normal_form_faithful_on_actions():
    rng = random.Random(25)
    for _ in range(100):
        n = rng.choice([1, 2])
        a = random_op(rng, n, 8, max_order=1, density=0.4)
        b = random_op(rng, n, 8, max_order=1, density=0.4)
        g = random_series(rng, n, 8, degree=3)
        assert series_agree(op_product(a, b).apply(g), a.apply(b.apply(g)))


def test_symbol_multiplicativity_when_orders_add():
    rng = random.Random(26)
    checked = 0
    while checked < 30:
        n = 2
        a = random_op(rng, n, 8, max_order=2)
        b = random_op(rng, n, 8, max_order=2)
        ab = op_product(a, b)
        if ab.is_zero() or ab.order != a.order + b.order:
            continue
        assert ab.principal_symbol() == a.principal_symbol() * b.principal_symbol()
        checked += 1


# -- tau = f*d_n as an operator ---------------------------------------------


def test_tau_square_euler():
    # for f = x, tau^2 = (x d)^2 = x^2 d^2 + x d acts on x^i by i^2
    x = Series.variable(1, 1, 10)
    d = DiffOp.partial(1, 1, 10)
    tau = DiffOp.from_series(x) * d
    sq = tau * tau
    expected = DiffOp.from_series(x * x) * (d * d) + DiffOp.from_series(x) * d
    assert coeffs_agree(sq, expected)
    for i in range(1, 5):
        assert series_agree(sq.apply(x ** i), (i * i) * x ** i)


def test_constant_tau_op_is_multiplication():
    rng = random.Random(27)
    g = random_series(rng, 1, 9)
    h = random_series(rng, 1, 9)
    assert series_agree(DiffOp.from_series(g).apply(h), g * h)
