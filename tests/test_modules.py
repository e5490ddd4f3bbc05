"""Module presentations: integrability, derivative actions, normalization."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from formald.derham import (ModuleFamily, kernel_of_dn,
                            stable_cohomology_dims)
from formald.errors import PoleBudgetExceeded, WrongVariant
from formald.modules import (LocElement, ModulePresentation,
                             check_integrability, loc_normalize,
                             partial_action, scalar_action)
from formald.series import Series, monomials_upto, product_by

from conftest import random_series, series_agree


def test_zero_connection_is_integrable():
    n, prec = 2, 6
    zero = Series.zero(n, prec)
    M = ModulePresentation.connection([[[zero]], [[zero]]])
    assert check_integrability(M).integrable


def test_exponential_twist_is_integrable():
    n, prec = 2, 8
    g = Series.variable(n, 1, prec) * Series.variable(n, 2, prec)
    M = ModulePresentation.connection([[[g.partial(1)]], [[g.partial(2)]]])
    assert check_integrability(M).integrable


def test_noncommuting_matrices_fail_integrability():
    n, prec = 2, 6
    zero = Series.zero(n, prec)
    one = Series.one(n, prec)
    a1 = [[zero, one], [zero, zero]]
    a2 = [[zero, zero], [one, zero]]
    M = ModulePresentation.connection([a1, a2])
    report = check_integrability(M)
    assert not report.integrable
    assert report.witness is not None


def test_integrability_needs_connection():
    x1 = Series.variable(2, 1, 6)
    with pytest.raises(WrongVariant):
        check_integrability(ModulePresentation.localization(x1))


def test_a_connection_of_rank_zero_is_rejected():
    with pytest.raises(ValueError, match="must be nonempty"):
        ModulePresentation.connection([[], []])


def test_partial_action_on_localization():
    prec = 10
    x = Series.variable(1, 1, prec)
    M = ModulePresentation.localization(x)
    e = LocElement(Series.one(1, prec), 1)             # 1/x
    d = partial_action(M, e, 1)
    assert d.pole_order == 2
    assert series_agree(d.numerator, -Series.one(1, prec))

    n2 = 2
    x1 = Series.variable(n2, 1, prec)
    x2 = Series.variable(n2, 2, prec)
    M2 = ModulePresentation.localization(x1)
    e2 = LocElement(x2, 1)                             # x2/x1
    d2 = partial_action(M2, e2, 1)
    assert d2.pole_order == 2
    assert series_agree(d2.numerator, -x2)


def test_partial_action_cancels_pole():
    prec = 10
    x = Series.variable(1, 1, prec)
    M = ModulePresentation.localization(x)
    e = LocElement(x * x, 1)                           # x^2/x
    d = partial_action(M, e, 1)
    assert d.pole_order == 0
    assert series_agree(d.numerator, Series.one(1, prec))


def test_loc_normalize():
    prec = 9
    x = Series.variable(1, 1, prec)
    f = x
    e = loc_normalize(LocElement(x, 1), f)
    assert e.pole_order == 0 and series_agree(e.numerator, Series.one(1, prec))
    e = loc_normalize(LocElement(x * x, 2), f)
    assert e.pole_order == 0 and series_agree(e.numerator, Series.one(1, prec))
    rng = random.Random(50)
    g = random_series(rng, 1, prec)
    e = loc_normalize(LocElement(x * g, 1), f)
    assert e.pole_order == 0
    assert series_agree(e.numerator, g)
    # idempotence
    again = loc_normalize(e, f)
    assert again == e


def test_pole_budget_enforced():
    # the budget is the ladder's pole, checked when an element is embedded
    prec = 8
    x = Series.variable(1, 1, prec)
    M = ModulePresentation.localization(x)
    ladder = ModuleFamily(M, 4, 1)
    e = LocElement(Series.one(1, prec), 1)
    M.embed(ladder, e)
    d = partial_action(M, e, 1)
    assert d.pole_order == 2
    with pytest.raises(PoleBudgetExceeded, match="pole order 2 exceeds budget 1"):
        M.embed(ladder, d)


def test_mixed_partials_commute_on_localization():
    rng = random.Random(51)
    prec = 12
    n = 2
    x1 = Series.variable(n, 1, prec)
    x2 = Series.variable(n, 2, prec)
    M = ModulePresentation.localization(x1 * x2 + x1)
    for _ in range(10):
        e = LocElement(random_series(rng, n, prec, degree=3), rng.randint(0, 2))
        d12 = partial_action(M, partial_action(M, e, 1), 2)
        d21 = partial_action(M, partial_action(M, e, 2), 1)
        space_prec = min(d12.numerator.precision, d21.numerator.precision)
        # compare over the common denominator
        k = max(d12.pole_order, d21.pole_order)
        lhs = d12.numerator * (M.f ** (k - d12.pole_order))
        rhs = d21.numerator * (M.f ** (k - d21.pole_order))
        assert series_agree(lhs, rhs, precision=space_prec - 2)


def test_leibniz_on_localization():
    rng = random.Random(52)
    prec = 12
    x = Series.variable(1, 1, prec)
    M = ModulePresentation.localization(x)
    for _ in range(10):
        r = random_series(rng, 1, prec, degree=3)
        e = LocElement(random_series(rng, 1, prec, degree=3), rng.randint(0, 3))
        lhs = partial_action(M, scalar_action(M, e, r), 1)
        d_e = partial_action(M, e, 1)
        rhs_a = scalar_action(M, e, r.partial(1))
        rhs_b = scalar_action(M, d_e, r)
        k = max(lhs.pole_order, rhs_a.pole_order, rhs_b.pole_order)
        combine = (rhs_a.numerator * x ** (k - rhs_a.pole_order)
                   + rhs_b.numerator * x ** (k - rhs_b.pole_order))
        assert series_agree(lhs.numerator * x ** (k - lhs.pole_order),
                            combine, precision=prec - 5)


def test_connection_action():
    n, prec = 2, 8
    zero = Series.zero(n, prec)
    one = Series.one(n, prec)
    # rank-2 with A_1 upper triangular constant: integrable with A_2 = 0
    a1 = [[zero, one], [zero, zero]]
    a2 = [[zero, zero], [zero, zero]]
    M = ModulePresentation.connection([a1, a2])
    assert check_integrability(M).integrable
    v = (Series.variable(n, 1, prec), Series.one(n, prec))
    out = partial_action(M, v, 1)
    assert series_agree(out[0], 2 * Series.one(n, prec))
    assert out[1].is_zero()


# the conftest coefficient class: numerator in [-4, 4], denominator 1, 1, 2
# or 3; f runs over polynomials of degree <= 3 in two variables
rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
localized = st.dictionaries(st.sampled_from(monomials_upto(2, 3)), rationals,
                            min_size=1, max_size=5).map(
    lambda terms: Series(2, 6, terms)).filter(lambda f: not f.is_zero())


def ladder_f(f):
    """c*f, c the lcm of the denominators of f's coefficients: the series a
    localization ladder localizes at (R_f = R_(c*f)), with its level-t
    basis x^e / (c*f)^(K+t)."""
    return f * math.lcm(*(c.denominator for c in f.terms.values()))


def product_columns(module, ladder, axis, t, bound=None):
    """The quotient rule through the truncated product, over c*f: the
    columns of d_axis on level t, every product cut at ``bound``, or uncut
    (cut at deg a + deg b) when it is None."""
    index = ladder.index(t + 1)
    k = ladder.pole(t)
    j = axis - 1
    f = ladder_f(module.f)
    f_terms, df_terms = f.terms, f.partial(axis).terms

    def add_times(out, a, b, factor=1):
        cut = bound if bound is not None else max(map(sum, a)) + max(map(sum, b), default=0)
        product_by(b, cut)(out, a, factor)

    cols = []
    for _, e in ladder.basis(t):
        part = {}
        if e[j]:
            lowered = e[:j] + (e[j] - 1,) + e[j + 1:]
            add_times(part, {lowered: e[j]}, f_terms)
        add_times(part, {e: 1}, df_terms, -k)
        cols.append({index[(0, exps)]: c for exps, c in part.items()})
    return cols


@settings(max_examples=60, deadline=None, derandomize=True)
@given(f=localized, trunc=st.integers(0, 2), pole=st.integers(0, 2))
# a constant term, degree 1 (where the level bound does not grow), and a
# unit of degree 0 (whose derivatives vanish)
@example(f=Series(2, 6, {(0, 0): 1, (1, 1): Fraction(-2, 3)}), trunc=1, pole=2)
@example(f=Series(2, 6, {(1, 0): 3, (0, 1): Fraction(1, 2)}), trunc=2, pole=1)
@example(f=Series(2, 6, {(0, 0): 1, (0, 1): -4}), trunc=0, pole=2)
@example(f=Series(2, 6, {(0, 0): Fraction(-3, 2)}), trunc=2, pole=1)
def test_shifted_columns_match_the_truncated_product(f, trunc, pole):
    module = ModulePresentation.localization(f)
    ladder = ModuleFamily(module, trunc, pole)
    for axis in (1, 2):
        for t in (0, 1):
            cols = ladder.partial_columns(axis, t)
            assert cols == product_columns(module, ladder, axis, t,
                                           ladder.bound(t + 1))
            # no term ever reaches past level t+1: the uncut product agrees
            assert cols == product_columns(module, ladder, axis, t)


def flat_connection(g, constants, rank):
    """A flat connection with rational matrices: A_j = d_j g * I plus
    constants[j] times the nilpotent e_1 e_2^T at rank 2.  The A_j are
    spans of I and one nilpotent, so they commute, and d_i A_j = d_j A_i."""
    n = g.num_vars
    zero = Series.zero(n, g.precision - 1)
    return ModulePresentation.connection(
        [[[g.partial(j + 1) if row == col else
           zero + a if (row, col) == (0, 1) else zero
           for col in range(rank)] for row in range(rank)]
         for j, a in enumerate(constants)])


def ladder_values(module, trunc, pole):
    """Every coefficient a ladder of the module builds: each axis's
    columns on levels -1..2 of the window and 0..2 of the weight block
    (which has no cells below degree 0), the comparison columns into the
    deepened ladder, and the d_n image."""
    window = ModuleFamily(module, trunc, pole)
    block = ModuleFamily(module, trunc, pole, block=True)
    for ladder, low in ((window, -1), (block, 0)):
        for axis in range(1, module.num_vars + 1):
            for t in range(low, 3):
                for col in ladder.partial_columns(axis, t):
                    yield from (col or {}).values()
    deep = ModuleFamily(module, *module.deepened(trunc, pole))
    _, _, maps = module.comparison(window, deep)
    for t in range(module.num_vars + 1):
        for col in maps(t):
            yield from col.values()
    for col in module.dn_image_columns(window)[0]:
        yield from col.values()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(f=localized, g=localized, constants=st.lists(rationals, min_size=2, max_size=2),
       rank=st.integers(1, 2), q=rationals.filter(bool), trunc=st.integers(1, 3),
       pole=st.integers(1, 2))
@example(f=Series(2, 6, {(2, 0): Fraction(1, 2), (0, 3): Fraction(-1, 3)}),
         g=Series(2, 6, {(1, 1): Fraction(1, 2)}), constants=[Fraction(1, 2), 0],
         rank=2, q=Fraction(-2, 3), trunc=2, pole=1)
def test_rational_data_builds_integer_ladders(f, g, constants, rank, q, trunc, pole):
    # the ladder localizes at c*f and scales nabla by the lcm of A's
    # denominators, so no column holds a Fraction
    conn = flat_connection(g, constants, rank)
    for module, ladder_pole in ((ModulePresentation.localization(f), pole),
                                (conn, None)):
        values = list(ladder_values(module, trunc, ladder_pole))
        assert all(type(v) is int for v in values)
    # R_f = R_(q*f): the same dims and the same kernel texts, whatever
    # constant the ladder's c*f differs by
    scaled = ModulePresentation.localization(f * q)
    local = ModulePresentation.localization(f)
    assert (stable_cohomology_dims(scaled, trunc, pole).dims
            == stable_cohomology_dims(local, trunc, pole).dims)
    assert (kernel_of_dn(scaled, trunc, pole).basis_texts
            == kernel_of_dn(local, trunc, pole).basis_texts)


# flat connections with nonzero matrices: rank 1, and rank 2 with an
# off-diagonal entry in A_2 and with constant ones
CONNECTIONS = ["conn(1; [[x2]]; [[x1+1]])",
               "conn(2; [[0,0],[0,0]]; [[x2,1],[0,1+x2^2]])",
               "conn(2; [[0,1],[0,0]]; [[1,0],[0,1]])"]


@pytest.mark.parametrize("text", CONNECTIONS)
@pytest.mark.parametrize("trunc", [1, 3, 5])
def test_connection_columns_are_nabla_cut_at_the_target_bound(text, trunc):
    # every level-t label, as a tuple of Series, under nabla_axis = d_axis +
    # A_axis with Series arithmetic, cut at level t+1's bound
    from formald.parser import parse_module

    module = parse_module(text, 2, 12)
    ladder = ModuleFamily(module, trunc)
    n, rows = module.num_vars, range(module.rank)
    for axis in range(1, n + 1):
        a = module.matrices[axis - 1]
        for t in range(-1, n):
            bound, index = ladder.bound(t + 1), ladder.index(t + 1)
            expected = []
            for comp, e in ladder.basis(t):
                w = [Series.monomial(n, e, trunc + 2) if c == comp
                     else Series.zero(n, trunc + 2) for c in rows]
                image = [sum((a[row][c] * w[c] for c in rows), w[row].partial(axis))
                         for row in rows]
                assert all(s.precision > bound for s in image)
                expected.append({index[(row, x)]: c for row, s in enumerate(image)
                                 for x, c in s.terms.items() if sum(x) <= bound})
            assert ladder.partial_columns(axis, t) == expected


# d_n images the cover probe spans: the ring, rank-1 and rank-2
# connections with nonzero flat matrices, and rational, transcendental and
# unit f, each parsed at precision 12 and at 6 (below most windows at K >= 2,
# where the d_n f term is known to one degree less)
DN_MODULES = ["R", "conn(1; [[x2]]; [[x1+1]])",
              "conn(2; [[0,1],[0,0]]; [[1,0],[0,1]])",
              "conn(2; [[0,0],[0,0]]; [[x2,1],[0,1+x2^2]])",
              "R_loc(x1*x2)", "R_loc(x1^2-x2^3)", "R_loc(exp(x1)-1+x2)",
              "R_loc(1+x1+x2^2)", "R_loc(1/2*x1^2+1/3*x2^3)"]


def reference_dn_image(module, ladder):
    """d_n of each numerator the probe spans, built with Series arithmetic,
    as (level-0 coordinates up to the precision, that precision).  A
    connection differentiates every component tag times every x^e with
    |e| <= N + 1, tags inner, and so does a localization at K = 0; at K >=
    1 a localization every x^e / (c*f)^(K-1) with |e| <= N + K*deg f, by
    the quotient rule over (c*f)^K, treating f's stored terms as an exact
    polynomial as its ladder does."""
    n, trunc, index = module.num_vars, ladder.trunc, ladder.index(0)
    if ladder.pole0 is None:
        rows = range(module.rank)
        a_n = module.matrices[n - 1]
        images = []
        for e in monomials_upto(n, trunc + 1):
            for comp in rows:
                w = [Series.monomial(n, e, trunc + 1) if c == comp
                     else Series.zero(n, trunc + 1) for c in rows]
                images.append([sum((a_n[row][c] * w[c] for c in rows),
                                   w[row].partial(n)) for row in rows])
        bound = trunc
    elif ladder.pole0 == 0:
        # level 0 is the ring's window: the ring's image, x^e with |e| <= N + 1
        images = [[Series.monomial(n, e, trunc + 1).partial(n)]
                  for e in monomials_upto(n, trunc + 1)]
        bound = trunc
    else:
        k, f = ladder.pole0, ladder_f(module.f)
        bound = trunc + k * f.degree()
        high = bound + f.degree() + 2
        exact_f = Series(n, high, f.terms)
        images = []
        for e in monomials_upto(n, bound):
            x_e = Series.monomial(n, e, high)
            image = x_e.partial(n) * exact_f
            if k > 1:
                image = image - x_e * f.partial(n) * (k - 1)
            images.append([image])
    known = min([bound] + [s.precision for image in images for s in image])
    return [{index[(row, e)]: c for row, s in enumerate(image)
             for e, c in s.terms.items() if sum(e) <= known}
            for image in images], known


@pytest.mark.parametrize("text", DN_MODULES)
@pytest.mark.parametrize("precision", [12, 6])
def test_dn_image_columns_match_the_series_quotient_rule(text, precision):
    from formald.parser import parse_module

    module = parse_module(text, 2, precision)
    local = text.startswith("R_loc")
    for trunc in (1, 3, 7):
        for pole in (0, 1, 2, 3) if local else (None,):
            ladder = ModuleFamily(module, trunc, pole)
            cols, known = module.dn_image_columns(ladder)
            expected, expected_known = reference_dn_image(module, ladder)
            assert known == expected_known
            labels = ladder.basis(0)
            assert [{i: c for i, c in col.items() if sum(labels[i][1]) <= known}
                    for col in cols] == expected
