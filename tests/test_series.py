"""Exact series arithmetic, Weierstrass division/preparation, coordinate
changes."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from formald.errors import (InsufficientPrecision, NotAUnit, NotRegular,
                            UnsupportedExponent)
from formald.series import (Divisor, LinearSubstitution, Series,
                            apply_linear_substitution, exp_series,
                            find_regularizing_substitution, invert_unit,
                            is_xn_regular, monomials_upto, product_by,
                            weierstrass_divide, weierstrass_prepare,
                            xn_coefficient)

from conftest import random_series, random_xn_regular, series_agree


def x(i, n, prec):
    return Series.variable(n, i, prec)


def test_difference_of_squares():
    one = Series.one(1, 6)
    t = x(1, 1, 6)
    assert (one + t) * (one - t) == one - t * t


def test_multiplication_by_zero():
    rng = random.Random(1)
    a = random_series(rng, 2, 7)
    z = Series.zero(2, 5)
    prod = a * z
    assert prod.is_zero()
    assert prod.precision == 5


def test_two_variable_product():
    n, prec = 2, 4
    x1, x2 = x(1, n, prec), x(2, n, prec)
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        Series(1, 3, {(1,): 0.5})


def test_terms_beyond_precision_rejected():
    with pytest.raises(ValueError):
        Series(1, 2, {(3,): 1})


def test_ring_laws_on_random_triples():
    rng = random.Random(2)
    for _ in range(30):
        a = random_series(rng, 2, 5)
        b = random_series(rng, 2, 5)
        c = random_series(rng, 2, 5)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a


def test_invert_geometric_series():
    one = Series.one(1, 3)
    t = x(1, 1, 3)
    inv = invert_unit(one + t)
    assert inv == one - t + t * t - t * t * t


def test_invert_constant():
    two = Series.constant(1, 2, 4)
    assert invert_unit(two) == Series.constant(1, Fraction(1, 2), 4)


def test_invert_two_variable_frozen():
    n, prec = 2, 2
    a = Series.one(n, prec) + x(1, n, prec) + x(2, n, prec)
    inv = invert_unit(a)
    expected = Series(n, prec, {
        (0, 0): 1, (1, 0): -1, (0, 1): -1,
        (2, 0): 1, (1, 1): 2, (0, 2): 1,
    })
    assert inv == expected
    assert a * inv == Series.one(n, prec)


def test_invert_random_units_multiply_back():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.choice([1, 2, 3])
        a = random_series(rng, n, 5, unit=True)
        assert a * invert_unit(a) == Series.one(n, 5)


def test_invert_requires_unit():
    with pytest.raises(NotAUnit):
        invert_unit(x(1, 1, 4))


def test_exp_of_zero():
    assert exp_series(Series.zero(1, 4)) == Series.one(1, 4)


def test_exp_one_variable():
    e = exp_series(x(1, 1, 3))
    assert e == Series(1, 3, {(0,): 1, (1,): 1, (2,): Fraction(1, 2),
                             (3,): Fraction(1, 6)})


def test_exp_inside_product_frozen():
    # x3*x4*exp(x4) at total degree 3 keeps only x3*x4 and x3*x4^2
    n, prec = 4, 3
    x3, x4 = x(3, n, prec), x(4, n, prec)
    value = x3 * x4 * exp_series(x4)
    assert value == Series(n, prec, {(0, 0, 1, 1): 1, (0, 0, 1, 2): 1})


def test_exp_rejects_constant_term():
    with pytest.raises(UnsupportedExponent):
        exp_series(Series.one(1, 4))


def test_partial_derivative_basics():
    t = x(1, 1, 6)
    assert t.partial(1).precision == 5
    assert (t * t).partial(1) == (2 * t).truncate(5)
    n = 2
    f = x(1, n, 6) * x(2, n, 6) + x(2, n, 6) ** 3
    assert f.partial(1) == x(2, n, 5)


def test_partial_precision_contract():
    rng = random.Random(4)
    f = random_series(rng, 3, 5)
    assert f.partial(2).precision == 4


def test_partial_at_zero_precision_raises():
    with pytest.raises(InsufficientPrecision):
        Series.one(1, 0).partial(1)


def test_xn_coefficient_examples():
    n, prec = 2, 6
    f = x(1, n, prec) + x(1, n, prec) * x(2, n, prec) ** 2
    c2 = xn_coefficient(f, 2)
    assert c2 == Series(1, 4, {(1,): 1})
    c0 = xn_coefficient(f, 0)
    assert c0 == Series(1, 6, {(1,): 1})


def test_xn_coefficient_beyond_precision():
    f = Series.one(2, 3)
    c = xn_coefficient(f, 5)
    assert c.is_zero() and c.precision == 0


def test_xn_coefficient_derivative_identity():
    # f_j = (1/j!) (d_n^j f)|_{x_n = 0}
    rng = random.Random(5)
    for _ in range(50):
        n = rng.choice([2, 3])
        f = random_series(rng, n, 7)
        j = rng.randint(0, 3)
        lhs = xn_coefficient(f, j)
        dj = f
        for _ in range(j):
            dj = dj.partial(n)
        fact = 1
        for k in range(1, j + 1):
            fact *= k
        assert lhs == xn_coefficient(dj, 0) / fact


def test_is_xn_regular_examples():
    n, prec = 2, 6
    f = x(2, n, prec) ** 2 + x(1, n, prec)
    assert is_xn_regular(f).order == 2
    g = x(1, n, prec) * x(2, n, prec)
    reg = is_xn_regular(g)
    assert reg.order is None
    assert reg.certified_to_precision == prec


def test_is_xn_regular_transcendental_example():
    n, prec = 4, 6
    x1, x2, x3, x4 = (x(i, n, prec) for i in (1, 2, 3, 4))
    f = x1 * x4 + x2 + x3 * x4 * exp_series(x4)
    assert is_xn_regular(f).order is None


def test_weierstrass_divide_monomials():
    n = 1
    g = x(1, n, 8) ** 2
    q, r = weierstrass_divide(g, x(1, n, 8))
    assert q == x(1, n, 7)
    assert len(r) == 1 and r[0].is_zero()


def test_weierstrass_divide_constant_by_linear():
    n, prec = 2, 7
    g = Series.one(n, prec)
    f = x(2, n, prec) - x(1, n, prec)
    q, r = weierstrass_divide(g, f)
    assert q.is_zero()
    assert r[0] == Series.one(1, prec - 1)


def test_weierstrass_divide_reconstruction():
    rng = random.Random(6)
    n, prec = 3, 10
    f = (x(3, n, prec) ** 2 + x(1, n, prec) * x(3, n, prec) + x(2, n, prec))
    for _ in range(10):
        g = random_series(rng, n, prec)
        q, r = weierstrass_divide(g, f)
        recon = q * f.truncate(q.precision)
        for i, ri in enumerate(r):
            mono = Series.monomial(n, (0, 0, i), q.precision)
            recon = recon + ri.lift(n) * mono
        assert series_agree(recon, g, q.precision)


def test_weierstrass_divide_requires_regularity():
    n = 2
    with pytest.raises(NotRegular):
        weierstrass_divide(Series.one(n, 5), x(1, n, 5) * x(2, n, 5))


def test_weierstrass_prepare_monomial():
    form = weierstrass_prepare(x(1, 1, 6))
    assert form.degree == 1
    assert form.unit == Series.one(1, 5)
    assert form.tail[0].is_zero()


def test_weierstrass_prepare_already_distinguished():
    n, prec = 2, 8
    f = x(2, n, prec) ** 2 + x(1, n, prec) * x(2, n, prec) + x(1, n, prec)
    form = weierstrass_prepare(f)
    assert form.degree == 2
    assert form.unit == Series.one(n, prec - 2)
    assert form.tail[1] == Series(1, prec - 2, {(1,): 1})
    assert form.tail[0] == Series(1, prec - 2, {(1,): 1})


def test_weierstrass_prepare_unit_factor():
    n, prec = 2, 7
    f = (Series.one(n, prec) + x(1, n, prec)) * x(2, n, prec) + x(1, n, prec)
    form = weierstrass_prepare(f)
    assert form.degree == 1
    assert form.unit == (Series.one(n, prec - 1) + x(1, n, prec - 1))
    # b0 = x1/(1 + x1), frozen via the geometric series
    b0 = form.tail[0]
    geom = Series(1, prec - 1,
                  {(k,): (-1) ** (k + 1) for k in range(1, prec)})
    assert b0 == geom
    assert form.reconstruct() == f.truncate(form.precision)


def test_weierstrass_prepare_idempotent():
    rng = random.Random(7)
    for _ in range(5):
        f = random_xn_regular(rng, 2, 8, rng.randint(1, 3))
        first = weierstrass_prepare(f)
        second = weierstrass_prepare(f)
        assert first == second
        assert repr(first.unit) == repr(second.unit)


def test_weierstrass_prepare_tail_in_maximal_ideal():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.choice([2, 3])
        f = random_xn_regular(rng, n, 8, rng.randint(0, 3))
        form = weierstrass_prepare(f)
        for b in form.tail:
            assert b.constant_term == 0
        assert form.reconstruct() == f.truncate(form.precision)


def test_apply_linear_substitution_swap():
    n, prec = 2, 5
    swap = LinearSubstitution.permutation((1, 0))
    assert apply_linear_substitution(x(1, n, prec), swap) == x(2, n, prec)


def test_apply_linear_substitution_shear():
    n, prec = 2, 6
    sub = LinearSubstitution([[1, 0], [1, 1]])   # x1 -> x1, x2 -> x1 + x2
    f = x(1, n, prec) * x(2, n, prec)
    expected = x(1, n, prec) ** 2 + x(1, n, prec) * x(2, n, prec)
    assert apply_linear_substitution(f, sub) == expected


def test_substitution_round_trip():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.choice([2, 3])
        while True:
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            try:
                sub = LinearSubstitution(rows)
                break
            except ValueError:
                continue
        f = random_series(rng, n, 5)
        g = apply_linear_substitution(
            apply_linear_substitution(f, sub), sub.inverse())
        assert g == f


def test_substitution_is_ring_homomorphism():
    rng = random.Random(10)
    sub = LinearSubstitution([[1, 1], [0, 1]])
    for _ in range(20):
        a = random_series(rng, 2, 5)
        b = random_series(rng, 2, 5)
        lhs = apply_linear_substitution(a * b, sub)
        rhs = apply_linear_substitution(a, sub) * apply_linear_substitution(b, sub)
        assert lhs == rhs


def test_singular_substitution_rejected():
    with pytest.raises(ValueError):
        LinearSubstitution([[1, 1], [1, 1]])


def test_find_regularizing_identity():
    f = x(1, 1, 6) ** 3
    sub, order = find_regularizing_substitution(f)
    assert sub == LinearSubstitution.identity(1)
    assert order == 3


def test_find_regularizing_swap():
    n = 2
    f = x(1, n, 5)
    sub, order = find_regularizing_substitution(f)
    assert order == 1
    assert apply_linear_substitution(f, sub) == x(2, n, 5)


def test_find_regularizing_shear():
    n = 2
    f = x(1, n, 6) * x(2, n, 6)
    sub, order = find_regularizing_substitution(f)
    assert order == 2
    g = apply_linear_substitution(f, sub)
    assert is_xn_regular(g).order == 2


def test_try_divide():
    n, prec = 2, 8
    x1, x2 = x(1, n, prec), x(2, n, prec)
    assert Divisor(x1).divide(x1 * x2) == x2.truncate(x2.precision - 1)
    assert Divisor(x2).divide(x1) is None
    rng = random.Random(11)
    g = random_series(rng, n, prec)
    q = Divisor(x1 * x2).divide(g * (x1 * x2))
    assert series_agree(q, g)


def test_printing_is_graded_lex():
    n, prec = 2, 4
    f = Series(n, prec, {(0, 0): 1, (2, 0): -2, (0, 1): Fraction(1, 2)})
    assert str(f) == "1 + 1/2*x2 - 2*x1^2"


# -- the truncated product kernel against sympy ------------------------------

KERNEL_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)
nonzero_rationals = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                              st.sampled_from([1, 2, 3]))


def _poly_dicts(n, max_degree, coeffs=nonzero_rationals):
    return st.dictionaries(st.sampled_from(monomials_upto(n, max_degree)),
                           coeffs, max_size=6)


def _sympy_product(n, a, b):
    gens = sympy.symbols(f"x1:{n + 1}")

    def poly(terms):
        return sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator) for e, c in terms.items()}
            or {(0,) * n: 0}, gens, domain=sympy.QQ)

    return {e: Fraction(int(c.p), int(c.q))
            for e, c in (poly(a) * poly(b)).terms() if c}


@st.composite
def product_cases(draw):
    n = draw(st.integers(1, 3))
    return (n, draw(_poly_dicts(n, 5)), draw(_poly_dicts(n, 5)),
            draw(_poly_dicts(n, 8)), draw(st.integers(-1, 10)),
            draw(st.sampled_from([1, -1, 2, Fraction(-3, 2), 0])))


@KERNEL_SETTINGS
@given(product_cases())
def test_product_by_matches_sympy(case):
    n, a, b, out, bound, factor = case
    expected = dict(out)
    for e, c in _sympy_product(n, a, b).items():
        if sum(e) <= bound:
            expected[e] = expected.get(e, 0) + factor * c
    expected = {e: c for e, c in expected.items() if c}
    result = product_by(b, bound)(dict(out), a, factor)
    assert result == expected
    assert all(result.values())


@st.composite
def reused_product_cases(draw):
    n = draw(st.integers(1, 3))
    factors = draw(st.lists(_poly_dicts(n, 6), min_size=1, max_size=3))
    return (n, draw(_poly_dicts(n, 6)), factors,
            [draw(_poly_dicts(n, 8)) for _ in factors],
            draw(st.integers(-1, 8)),
            draw(st.sampled_from([1, -1, 0, Fraction(-3, 2), Fraction(2, 5)])),
            draw(st.booleans()))


@KERNEL_SETTINGS
@given(reused_product_cases())
# a bound of 0, and every product term cancelling into out
@example((2, {(0, 0): 2, (1, 0): 1}, [{(0, 0): 3}], [{(5, 0): 1}], 0, 1, True))
def test_a_prepared_product_is_reusable(case):
    # one product_by(b, bound) serves every a: each result equals a product
    # prepared for that a alone and the sympy product, cut at the bound,
    # with keys of out that the product cancels dropped
    n, b, factors, outs, bound, factor, cancel = case
    prepared = product_by(b, bound)
    for a, out in zip(factors, outs):
        product = {e: factor * c for e, c in _sympy_product(n, a, b).items()
                   if sum(e) <= bound and factor}
        if cancel:
            out = {**out, **{e: -c for e, c in list(product.items())[::2]}}
        expected = dict(out)
        for e, c in product.items():
            expected[e] = expected.get(e, 0) + c
        expected = {e: c for e, c in expected.items() if c}
        assert prepared(dict(out), a, factor) == expected
        assert product_by(b, bound)(dict(out), a, factor) == expected


@st.composite
def series_pairs(draw, coeffs=nonzero_rationals, size=2):
    n = draw(st.integers(1, 3))
    precisions = [draw(st.integers(0, 6)) for _ in range(size)]
    return tuple(Series(n, p, draw(_poly_dicts(n, p, coeffs))) for p in precisions)


@KERNEL_SETTINGS
@given(series_pairs())
def test_series_product_matches_sympy_at_smaller_precision(pair):
    a, b = pair
    prec = min(a.precision, b.precision)
    product = a * b
    assert product.precision == prec
    assert product.terms == {e: c for e, c in
                             _sympy_product(a.num_vars, a.terms, b.terms).items()
                             if sum(e) <= prec}


@st.composite
def substitution_cases(draw):
    """An invertible integer 3x3 substitution and a series in 3 variables."""
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                         min_size=3, max_size=3).filter(
        lambda rows: sympy.Matrix(rows).det() != 0))
    prec = draw(st.integers(0, 6))
    return rows, Series(3, prec, draw(_poly_dicts(3, prec)))


@KERNEL_SETTINGS
@given(substitution_cases())
def test_linear_substitution_matches_sympy(case):
    # f(L x) expanded by sympy and cut at f's precision
    rows, f = case
    gens = sympy.symbols("x1:4")
    images = [sympy.Poly(sum(c * g for c, g in zip(row, gens)), *gens, domain=sympy.QQ)
              for row in rows]
    expected = sympy.Poly(0, *gens, domain=sympy.QQ)
    for exps, c in f.terms.items():
        term = sympy.Poly(sympy.Rational(c.numerator, c.denominator), *gens,
                          domain=sympy.QQ)
        for image, e in zip(images, exps):
            term *= image ** e
        expected += term
    got = apply_linear_substitution(f, LinearSubstitution(rows))
    assert got.precision == f.precision
    assert got.terms == {e: Fraction(int(c.p), int(c.q)) for e, c in expected.terms()
                         if c and sum(e) <= f.precision}


# -- graded solves against the power-sum and fixed-point references ----------

GRADED_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
_MAX_PRECISION = {1: 10, 2: 7, 3: 5}


def _geometric_inverse(a):
    """1/a as the geometric series in 1 - a/c0, one full product a term."""
    c0 = a.constant_term
    n, prec = a.num_vars, a.precision
    e = Series.one(n, prec) - a / c0
    acc = power = Series.one(n, prec)
    for _ in range(prec):
        power = power * e
        if power.is_zero():
            break
        acc = acc + power
    return acc / c0


def _fixed_point_divide(g, f):
    """Weierstrass division by iterating q -> f_high^{-1} T(g - q*f_low)
    to its fixed point, T the x_n^d-quotient."""
    d = is_xn_regular(f).order
    window = min(g.precision, f.precision)
    g, f = g.truncate(window), f.truncate(window)
    n = f.num_vars
    low = Series(n, window, {e: c for e, c in f.terms.items() if e[-1] < d})

    def quotient(h):
        return Series(n, window, {e[:-1] + (e[-1] - d,): c
                                  for e, c in h.terms.items() if e[-1] >= d})

    inv_high = _geometric_inverse(quotient(f))
    q = Series.zero(n, window)
    for _ in range(window + 2):
        new_q = inv_high * quotient(g - q * low)
        if new_q == q:
            break
        q = new_q
    remainder = g - q * f
    out = window - d
    return (q.truncate(out),
            [xn_coefficient(remainder, i).truncate(out) for i in range(d)])


@st.composite
def graded_series(draw, unit=False, coeffs=nonzero_rationals):
    n = draw(st.integers(1, 3))
    prec = draw(st.integers(0, _MAX_PRECISION[n]))
    terms = draw(_poly_dicts(n, prec, coeffs))
    terms.pop((0,) * n, None)
    if unit:
        terms[(0,) * n] = draw(coeffs)
    return Series(n, prec, terms)


@st.composite
def regular_series(draw, coeffs=nonzero_rationals):
    """An x_n-regular f of order d (d = 0 included) at precision >= d."""
    n = draw(st.integers(1, 3))
    prec = draw(st.integers(0, _MAX_PRECISION[n]))
    d = draw(st.integers(0, min(prec, 3)))
    axis = (0,) * (n - 1)
    terms = {e: c for e, c in draw(_poly_dicts(n, prec, coeffs)).items()
             if e[:-1] != axis or e[-1] > d}
    terms[axis + (d,)] = draw(coeffs)
    return Series(n, prec, terms)


@st.composite
def division_cases(draw, coeffs=nonzero_rationals):
    """(g, f) with g at precision d (window = d), at f's or at another."""
    f = draw(regular_series(coeffs))
    d = is_xn_regular(f).order
    prec = draw(st.sampled_from([d, f.precision, f.precision + 1,
                                 max(d, f.precision - 1)]))
    return Series(f.num_vars, prec, draw(_poly_dicts(f.num_vars, prec, coeffs))), f


@GRADED_SETTINGS
@given(graded_series(unit=True))
def test_invert_unit_matches_geometric_series(a):
    b = invert_unit(a)
    assert b == _geometric_inverse(a)
    assert a * b == Series.one(a.num_vars, a.precision)


@GRADED_SETTINGS
@given(graded_series())
def test_exp_series_matches_power_sum(a):
    n, prec = a.num_vars, a.precision
    gens = sympy.symbols(f"x1:{n + 1}")

    def truncated(poly):
        return sympy.Poly.from_dict(
            {e: c for e, c in poly.terms() if sum(e) <= prec} or {(0,) * n: 0},
            gens, domain=sympy.QQ)

    base = truncated(sympy.Poly.from_dict(
        {e: sympy.Rational(c.numerator, c.denominator) for e, c in a.terms.items()}
        or {(0,) * n: 0}, gens, domain=sympy.QQ))
    total = power = sympy.Poly(1, *gens, domain=sympy.QQ)
    for k in range(1, prec + 1):
        power = truncated(power * base) * sympy.Rational(1, k)
        total = total + power
    expected = Series(n, prec, {e: Fraction(int(c.p), int(c.q))
                                for e, c in total.terms() if c})
    assert exp_series(a) == expected


@GRADED_SETTINGS
@given(division_cases())
def test_weierstrass_divide_matches_fixed_point(case):
    g, f = case
    n, d = f.num_vars, is_xn_regular(f).order
    q, r = weierstrass_divide(g, f)
    assert (q, r) == _fixed_point_divide(g, f)
    assert len(r) == d and all(ri.num_vars == n - 1 for ri in r)
    out = q.precision
    rest = g.truncate(out) - q * f.truncate(out)
    for i, ri in enumerate(r):
        assert ri.precision == out
        if i <= out:
            rest = rest - ri.lift(n) * Series.monomial(n, (0,) * (n - 1) + (i,), out)
    assert rest.is_zero()


@GRADED_SETTINGS
@given(regular_series())
def test_weierstrass_form_reconstructs(f):
    form = weierstrass_prepare(f)
    assert form.reconstruct() == f.truncate(form.precision)


# -- cost: each graded solve is about one truncated product ------------------


def _pairs(a, b, bound):
    """Term pairs of a*b that a product cut at the bound multiplies."""
    degrees = [sum(e) for e in b]
    return sum(1 for ea in a for db in degrees if sum(ea) + db <= bound)


@pytest.fixture
def product_pairs(monkeypatch):
    """Counts the term pairs every truncated product multiplies: each call
    of the one pair loop, series.packed_products."""
    import formald.series as series_module
    kernel = series_module.packed_products
    count = [0]

    def counted(acc, terms, shifts, factor=1):
        count[0] += sum(1 for _, _, room in terms for cost, _, _ in shifts if cost <= room)
        return kernel(acc, terms, shifts, factor)

    monkeypatch.setattr(series_module, "packed_products", counted)
    return count


def test_graded_solves_cost_about_one_product(product_pairs):
    rng = random.Random(12)
    n, prec = 2, 12
    a = random_series(rng, n, prec, density=0.9, unit=True)
    b = invert_unit(a)
    assert 0 < product_pairs[0] <= _pairs(a.terms, b.terms, prec)

    product_pairs[0] = 0
    a = random_series(rng, n, prec, density=0.9, zero_constant=True)
    e = exp_series(a)
    assert 0 < product_pairs[0] <= _pairs(a.terms, e.terms, prec)

    product_pairs[0] = 0
    f = random_xn_regular(rng, n, prec, 3)
    g = random_series(rng, n, prec, density=0.9)
    q, _ = weierstrass_divide(g, f)
    assert 0 < product_pairs[0] <= 3 * _pairs(q.terms, f.terms, prec)


# -- the integer kernels against the Fraction code they replaced -------------

# numerators up to 6 over 1..6, or over a factorial up to 12!, as exp-like
# series have them
kernel_rationals = st.one_of(
    st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6)),
    st.builds(lambda c, k: Fraction(c, math.factorial(k)),
              st.integers(-6, 6).filter(bool), st.integers(2, 12)))


def _fraction_product(out, a, b, bound, factor=1):
    """out += factor*a*b on exponent -> Fraction dicts, pair by pair, in
    Fraction arithmetic."""
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(i + j for i, j in zip(ea, eb))
            if sum(key) <= bound:
                _fraction_accumulate(out, {key: factor * ca * cb})
    return out


def _fraction_accumulate(out, terms):
    for e, c in terms.items():
        new = out.get(e, 0) + c
        if new:
            out[e] = new
        else:
            out.pop(e, None)
    return out


def _fraction_mul(a, b):
    prec = min(a.precision, b.precision)
    return Series(a.num_vars, prec, _fraction_product({}, a.terms, b.terms, prec))


def _fraction_solve_graded(rhs, step, grade, top):
    """The graded solve on Fraction layers: ``step(layer, out)``."""
    pending, x = dict(rhs), {}
    for k in range(top + 1):
        layer = {e: c for e, c in pending.items() if grade(e) == k}
        for e in layer:
            del pending[e]
        x.update(layer)
        step(layer, pending)
    return x


def _fraction_invert(a):
    n, prec = a.num_vars, a.precision
    inv = 1 / a.constant_term
    rest = {e: c for e, c in a.terms.items() if any(e)}
    return Series(n, prec, _fraction_solve_graded(
        {(0,) * n: inv},
        lambda layer, out: _fraction_product(out, layer, rest, prec, -inv),
        sum, prec))


def _fraction_exp(a):
    n, prec = a.num_vars, a.precision
    theta_a = {e: c * sum(e) for e, c in a.terms.items()}

    def step(layer, out):
        product = _fraction_product({}, layer, theta_a, prec)
        _fraction_accumulate(out, {e: c / sum(e) for e, c in product.items()})

    return Series(n, prec, _fraction_solve_graded({(0,) * n: Fraction(1)}, step,
                                                  sum, prec))


def _fraction_divide(g, f):
    """Weierstrass division as a weighted graded solve on Fraction layers."""
    d = is_xn_regular(f).order
    window = min(g.precision, f.precision)
    g, f = g.truncate(window), f.truncate(window)
    n = f.num_vars

    def quotient(terms, j):
        return {e[:-1] + (e[-1] - j,): c for e, c in terms.items() if e[-1] >= j}

    f_high = quotient(f.terms, d)
    inv = 1 / f_high.pop((0,) * n)
    low_coeffs = [{e[:-1] + (0,): c for e, c in f.terms.items() if e[-1] == k}
                  for k in range(d)]

    def step(layer, out):
        _fraction_product(out, layer, f_high, window, -inv)
        for k, coeff in enumerate(low_coeffs):
            _fraction_product(out, quotient(layer, d - k), coeff, window - d, -inv)

    q = Series(n, window, _fraction_solve_graded(
        {e: c * inv for e, c in quotient(g.terms, d).items()}, step,
        lambda e: (d + 1) * sum(e) - d * e[-1], (d + 1) * window))
    remainder = g - _fraction_mul(q, f)
    out = window - d
    return (q.truncate(out),
            [xn_coefficient(remainder, i).truncate(out) for i in range(d)])


@KERNEL_SETTINGS
@given(series_pairs(kernel_rationals, size=3))
def test_ring_laws_keep_the_least_precision(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a * b).precision == (a + b).precision == min(a.precision, b.precision)


# one-term factors, which Series.__mul__ multiplies as a shift: a monomial
# times a series and the other way round, a monomial beyond the other
# factor's precision (the product is zero), and a constant
_SERIES = Series(2, 5, {(0, 0): Fraction(1, 3), (2, 0): 2, (1, 2): Fraction(-5, 6),
                        (0, 4): Fraction(7, 2), (3, 2): 1})
_MONOMIAL = Series(2, 4, {(1, 1): Fraction(-3, 2)})


@KERNEL_SETTINGS
@given(series_pairs(kernel_rationals))
@example((_MONOMIAL, _SERIES))
@example((_SERIES, _MONOMIAL))
@example((Series(2, 6, {(4, 2): Fraction(2, 3)}), _SERIES))
@example((_SERIES, Series.constant(2, Fraction(-4, 3), 6)))
def test_series_product_matches_the_fraction_product(pair):
    a, b = pair
    assert a * b == _fraction_mul(a, b)


# edge cases of the packed solve: n = 1, a term of degree exactly N in one
# variable (its exponent is the pack base minus one, so any carry would
# show), and a constant -3/2 over denominators, so that the multiplier is
# not +-1
@GRADED_SETTINGS
@given(graded_series(unit=True, coeffs=kernel_rationals))
@example(Series(1, 7, {(0,): Fraction(-3, 2), (1,): Fraction(1, 3), (7,): 2}))
@example(Series(2, 5, {(0, 0): Fraction(-3, 2), (5, 0): Fraction(1, 2), (0, 1): Fraction(2, 3),
                       (0, 5): -1}))
def test_invert_unit_matches_the_fraction_solve(a):
    assert invert_unit(a) == _fraction_invert(a)


@GRADED_SETTINGS
@given(graded_series(coeffs=kernel_rationals))
@example(Series(1, 7, {(1,): Fraction(1, 2), (7,): Fraction(-1, 3)}))
@example(Series(3, 4, {(1, 0, 0): 1, (0, 0, 4): Fraction(2, 3), (0, 1, 1): Fraction(-3, 2)}))
def test_exp_series_matches_the_fraction_solve(a):
    assert exp_series(a) == _fraction_exp(a)


@GRADED_SETTINGS
@given(division_cases(kernel_rationals))
# n = 1
@example((Series(1, 6, {(0,): 1, (4,): 3, (6,): Fraction(1, 3)}),
          Series(1, 6, {(2,): 1, (3,): Fraction(1, 2), (5,): -2})))
# d = 0: f a unit, no low shifts
@example((Series(2, 5, {(1, 1): 1, (0, 4): Fraction(-2, 3)}),
          Series(2, 5, {(0, 0): 2, (1, 0): Fraction(1, 3), (0, 2): -1, (2, 3): Fraction(1, 2)})))
# window = d
@example((Series(2, 3, {(0, 0): 1, (1, 2): Fraction(1, 2), (0, 3): 5}),
          Series(2, 3, {(0, 3): 1, (1, 0): 2, (1, 1): -1})))
# x2^2 in q meets the low shift x1*x2 / x2^3 at e_n = d - k exactly
@example((Series(2, 8, {(0, 5): 1, (1, 4): 1}),
          Series(2, 8, {(0, 3): 1, (1, 1): 1, (2, 0): 1})))
# terms of degree exactly N in one variable: the pack base, no carry
@example((Series(2, 5, {(5, 0): 1, (0, 5): 1}),
          Series(2, 5, {(0, 2): 1, (5, 0): Fraction(1, 2), (1, 1): 1})))
# f_high(0) = -3/2 with denominators in f, so the multiplier is not +-1
@example((Series(2, 6, {(0, 0): Fraction(1, 5), (0, 3): 1, (2, 2): Fraction(-2, 3)}),
          Series(2, 6, {(0, 2): Fraction(-3, 2), (1, 0): Fraction(1, 3), (1, 3): Fraction(2, 5),
                        (0, 4): Fraction(1, 6)})))
def test_weierstrass_divide_matches_the_fraction_solve(case):
    g, f = case
    assert weierstrass_divide(g, f) == _fraction_divide(g, f)


def test_a_wrong_quotient_fails_the_remainder_check(monkeypatch):
    # q + 1 leaves -f in the remainder, whose x2^2 term has x_n-degree d
    import formald.series as series_module
    solve = series_module._solve_graded

    def planted(*args, **kwargs):
        q = solve(*args, **kwargs)
        return {**q, (0, 0): q.get((0, 0), 0) + 1}

    g, f = x(1, 2, 6) ** 3 + x(2, 2, 6), x(2, 2, 6) ** 2 + x(1, 2, 6) * Fraction(1, 3)
    assert weierstrass_divide(g, f) == _fraction_divide(g, f)
    monkeypatch.setattr(series_module, "_solve_graded", planted)
    with pytest.raises(AssertionError, match="x_n-degree >= d"):
        weierstrass_divide(g, f)


def test_factorial_denominators_match_the_fraction_code():
    # every coefficient c/(|e|+j)! is dense and exp-like, so each layer of a
    # solve brings a new denominator
    rng = random.Random(9)

    def dense(n, prec, constant=None):
        terms = {e: Fraction(rng.randint(-3, 3), math.factorial(sum(e) + rng.randint(0, 3)))
                 for e in monomials_upto(n, prec)}
        if constant is not None:
            terms[(0,) * n] = constant
        return Series(n, prec, terms)

    for n, prec in ((1, 14), (2, 9), (3, 6)):
        a, b = dense(n, prec), dense(n, prec)
        assert a * b == _fraction_mul(a, b)
        unit = dense(n, prec, Fraction(rng.choice([1, -2, 3]), rng.randint(1, 6)))
        assert invert_unit(unit) == _fraction_invert(unit)
        small = dense(n, prec, 0)
        assert exp_series(small) == _fraction_exp(small)
        axis = (0,) * (n - 1)
        f = Series(n, prec, {**{e: c for e, c in dense(n, prec).terms.items()
                                if e[:-1] != axis}, axis + (2,): Fraction(1, 2)})
        assert weierstrass_divide(b, f) == _fraction_divide(b, f)


def test_graded_solves_on_edge_cases():
    # answers the generators never draw: no variables, precision 0, g = 0,
    # regularity order d equal to the window, and d = 0
    a = Series.constant(0, Fraction(2, 3), 3)
    assert invert_unit(a) == Series.constant(0, Fraction(3, 2), 3) == _fraction_invert(a)
    a = Series.zero(0, 3)
    assert exp_series(a) == Series.one(0, 3) == _fraction_exp(a)
    a = Series.constant(2, 3, 0)
    assert invert_unit(a) == Series.constant(2, Fraction(1, 3), 0) == _fraction_invert(a)

    x1, x2 = x(1, 2, 5), x(2, 2, 5)
    g, f = Series.zero(2, 5), x2 ** 2 + x1
    expected = (Series.zero(2, 3), [Series.zero(1, 3)] * 2)
    assert weierstrass_divide(g, f) == expected == _fraction_divide(g, f)

    x1, x2 = x(1, 2, 3), x(2, 2, 3)
    g, f = x1 + x2 ** 3, x2 ** 3 + x1
    expected = (Series.one(2, 0), [Series.zero(1, 0)] * 3)
    assert weierstrass_divide(g, f) == expected == _fraction_divide(g, f)

    t = x(1, 1, 4)
    g, f = 1 + t, 2 + t
    q = Series(1, 4, {(0,): Fraction(1, 2), (1,): Fraction(1, 4), (2,): Fraction(-1, 8),
                      (3,): Fraction(1, 16), (4,): Fraction(-1, 32)})
    assert weierstrass_divide(g, f) == (q, []) == _fraction_divide(g, f)


def test_graded_solves_accumulate_integers_only(monkeypatch):
    """Pending terms of every graded solve are summed as integers: each
    pass through the pair loop gets an int factor, int coefficients and an
    int-valued target, also for inputs over denominators 2 and 3 with a
    unit constant of 3/2."""
    import formald.series as series_module
    kernel = series_module.packed_products
    calls = [0]

    def integer_only(acc, terms, shifts, factor=1):
        assert type(factor) is int
        assert all(type(v) is int for v in acc.values())
        assert all(type(c) is int for _, c, _ in terms)
        assert all(type(c) is int for _, _, c in shifts)
        calls[0] += 1
        return kernel(acc, terms, shifts, factor)

    monkeypatch.setattr(series_module, "packed_products", integer_only)
    half, third = Fraction(1, 2), Fraction(1, 3)
    unit = Series(2, 5, {(0, 0): 3 * half, (1, 0): half, (0, 1): -third,
                         (1, 1): 2 * third, (0, 3): 5 * half})
    f = Series(2, 5, {(0, 2): 3 * half, (1, 0): half, (1, 1): -third,
                      (0, 3): 2 * third, (2, 1): half})
    invert_unit(unit)
    exp_series(unit - 3 * half)
    weierstrass_divide(unit, f)
    weierstrass_prepare(f)
    assert calls[0]
