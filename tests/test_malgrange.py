"""Indicial data and exact kernel/cokernel dims."""

import random
from fractions import Fraction

import pytest

from formald.errors import InsufficientPrecision, ZeroOperator
from formald.linalg import Matrix
from formald.malgrange import (_eval_poly, _integer_roots, finite_dims,
                               indicial_data, truncated_cokernel_rank)
from formald.series import Series
from formald.weyl import DiffOp

PREC = 64


def one_var_op(coeffs):
    """The one-variable operator sum_i coeffs[i] d^i."""
    return DiffOp(1, {(i,): r for i, r in enumerate(coeffs)})


def one_var(*coeff_terms):
    """Build an operator from dicts of exponent -> value."""
    return one_var_op([Series(1, PREC, {(e,): v for e, v in terms.items()})
                       for terms in coeff_terms])


def test_valuation():
    # the valuation the indicial data reads is Series.order()
    s = Series(1, 6, {(3,): 1, (5,): 1})
    assert s.order() == 3
    assert Series.constant(1, 7, 6).order() == 0
    assert Series.zero(1, 6).order() is None


def test_indicial_data_first_derivative():
    op = one_var({}, {0: 1})                      # d
    data = indicial_data(op)
    assert (data.s, data.index_set, data.t0) == (1, (1,), 1)
    assert data.poly == (Fraction(0), Fraction(1))


def test_indicial_data_euler():
    op = one_var({}, {1: 1})                      # x d
    data = indicial_data(op)
    assert (data.s, data.index_set, data.t0) == (0, (1,), 1)
    assert data.poly == (Fraction(0), Fraction(1))


def test_indicial_data_unit_perturbation():
    op = one_var({0: 1}, {2: 1})                  # x^2 d + 1
    data = indicial_data(op)
    assert (data.s, data.index_set, data.t0) == (0, (0,), 0)
    assert data.poly == (Fraction(1),)


def test_solve_uniqueness_via_invertible_block():
    # the restriction of the operator to m^t -> m^{t-s} is invertible on a
    # 10-step window at t = t0: exact determinant nonzero
    for op in [one_var({}, {0: 1}), one_var({}, {1: 1}),
               one_var({0: 1}, {2: 1}), one_var({0: 0, 1: 1})]:
        if op.is_zero():
            continue
        data = indicial_data(op)
        t, width = data.t0, 10
        cols = []
        for j in range(t, t + width):
            image = op.apply(Series.monomial(1, (j,), PREC))
            cols.append({deg - (t - data.s): c for (deg,), c in image.terms.items()
                         if t - data.s <= deg < t - data.s + width})
        m = Matrix.from_cols(cols, width)
        assert m.rank() == width


def test_finite_dims_named_cases():
    cases = [(one_var({}, {0: 1}), 0, 1),                 # d
             (one_var({}, {1: 1}), 1, 1),                 # x d
             (one_var({0: 1}, {2: 1}), 0, 0),             # x^2 d + 1
             (one_var({1: 1}), 1, 0)]                     # x
    for op, cokernel, kernel in cases:
        dims = finite_dims(op)
        assert (dims.cokernel, dims.kernel) == (cokernel, kernel)


def test_zero_operator_rejected():
    with pytest.raises(ZeroOperator):
        indicial_data(one_var_op([Series.zero(1, 6)]))


def random_regular_one_var(rng):
    """Random operator with l <= 3, valuations <= 3, nonzero top."""
    order = rng.randint(0, 3)
    coeffs = []
    for i in range(order + 1):
        terms = {}
        for e in range(4):
            if rng.random() < 0.5:
                terms[(e,)] = Fraction(rng.randint(-3, 3))
        coeffs.append(Series(1, PREC, terms))
    if coeffs[-1].is_zero():
        nu = rng.randint(0, 3)
        coeffs[-1] = Series(1, PREC, {(nu,): Fraction(rng.choice([1, -1, 2]))})
    return one_var_op(coeffs)


def test_cokernel_dim_matches_bruteforce():
    rng = random.Random(71)
    for _ in range(20):
        op = random_regular_one_var(rng)
        expected = finite_dims(op).cokernel
        r20 = truncated_cokernel_rank(op, 20)
        r30 = truncated_cokernel_rank(op, 30)
        assert r20 == r30 == expected


def test_coefficients_must_be_one_variable():
    with pytest.raises(ValueError):
        finite_dims(DiffOp.partial(2, 2, PREC))


def test_images_stay_within_the_coefficient_precision():
    # the 20-column oracle reads Delta(x^j) to degree 18, past precision 10
    with pytest.raises(InsufficientPrecision):
        truncated_cokernel_rank(DiffOp.partial(1, 1, 10), 20)
    assert truncated_cokernel_rank(DiffOp.partial(1, 1, 30), 20) == 0


def test_integer_roots_are_those_a_scan_finds():
    # the rational root theorem's candidates against every integer up to
    # the Cauchy bound, on products of (t - r) with small rational factors
    rng = random.Random(29)
    for _ in range(200):
        poly = [Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2, 3]))]
        for _ in range(rng.randint(0, 4)):
            r = Fraction(rng.randint(-12, 12), rng.choice([1, 1, 2, 3]))
            poly = [a - r * b for a, b in zip([Fraction(0)] + poly,
                                              poly + [Fraction(0)])]
        limit = 1 + max(map(abs, poly[:-1]), default=0) / abs(poly[-1])
        scan = [t for t in range(-int(limit), int(limit) + 1)
                if len(poly) > 1 and _eval_poly(poly, t) == 0]
        assert _integer_roots(poly) == scan
