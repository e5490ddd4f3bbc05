"""Poisson brackets, truncated ideal membership, involutivity probes."""

import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from formald import symbols
from formald.linalg import ColumnEchelon
from formald.parser import parse_symbol
from formald.series import Series, monomials_upto
from formald.symbols import (MEMBER, NOT_MEMBER, Symbol,
                             bracket_chain_probe, involutivity_check,
                             membership_truncated, poisson_bracket)
from formald.weyl import DiffOp, commutator

from conftest import random_series, random_xn_regular, coeffs_agree
from test_cli import GOLDEN
from test_weyl import _raised, random_op


def test_bracket_zeta_x():
    n, prec = 2, 8
    z2 = Symbol.zeta(n, 2, prec)
    x2 = Symbol.from_series(Series.variable(n, 2, prec))
    assert poisson_bracket(z2, x2) == Symbol.from_series(Series.one(n, prec - 1))


def test_bracket_zeta_series_is_derivative():
    n, prec = 2, 8
    z2 = Symbol.zeta(n, 2, prec)
    f = Series.variable(n, 1, prec) * Series.variable(n, 2, prec) ** 2
    got = poisson_bracket(z2, Symbol.from_series(f))
    assert got == Symbol.from_series(f.partial(2))


def test_bracket_quadratic_example():
    n, prec = 2, 8
    z1z2 = Symbol.zeta(n, 1, prec) * Symbol.zeta(n, 2, prec)
    x1x2 = Symbol.from_series(
        Series.variable(n, 1, prec) * Series.variable(n, 2, prec))
    got = poisson_bracket(z1z2, x1x2)
    x1 = Series.variable(n, 1, prec - 1)
    x2 = Series.variable(n, 2, prec - 1)
    expected = (Symbol(n, {(1, 0): x1}) + Symbol(n, {(0, 1): x2}))
    assert coeffs_agree(got, expected)


def random_symbol(rng, num_vars, precision, max_zeta=2):
    coeffs = {}
    for z in monomials_upto(num_vars, max_zeta):
        if rng.random() < 0.5:
            s = random_series(rng, num_vars, precision, degree=2)
            if not s.is_zero():
                coeffs[z] = s
    return Symbol(num_vars, coeffs)


def test_antisymmetry_and_square_zero():
    rng = random.Random(40)
    for _ in range(30):
        a = random_symbol(rng, 2, 7)
        b = random_symbol(rng, 2, 7)
        assert coeffs_agree(poisson_bracket(a, b), -poisson_bracket(b, a))
        assert poisson_bracket(a, a).is_zero()


def test_biderivation():
    rng = random.Random(41)
    for _ in range(20):
        a = random_symbol(rng, 2, 8, max_zeta=1)
        b = random_symbol(rng, 2, 8, max_zeta=1)
        c = random_symbol(rng, 2, 8, max_zeta=1)
        lhs = poisson_bracket(a * b, c)
        rhs = a * poisson_bracket(b, c) + b * poisson_bracket(a, c)
        assert coeffs_agree(lhs, rhs)


def test_jacobi_identity():
    rng = random.Random(42)
    for _ in range(15):
        a = random_symbol(rng, 2, 9, max_zeta=1)
        b = random_symbol(rng, 2, 9, max_zeta=1)
        c = random_symbol(rng, 2, 9, max_zeta=1)
        total = (poisson_bracket(a, poisson_bracket(b, c))
                 + poisson_bracket(b, poisson_bracket(c, a))
                 + poisson_bracket(c, poisson_bracket(a, b)))
        assert total.is_zero() or coeffs_agree(total, Symbol.zero(2))


def test_bracket_matches_commutator_symbol():
    # when [a, b] has order order(a) + order(b) - 1, its symbol is the
    # bracket of the symbols: the lift construction is the oracle here
    rng = random.Random(43)
    checked = 0
    while checked < 30:
        a = random_op(rng, 2, 8, max_order=2)
        b = random_op(rng, 2, 8, max_order=2)
        if a.is_zero() or b.is_zero():
            continue
        c = commutator(a, b)
        if c.is_zero() or c.order != a.order + b.order - 1:
            continue
        lhs = poisson_bracket(a.principal_symbol(), b.principal_symbol())
        assert coeffs_agree(lhs, c.principal_symbol())
        checked += 1


def _series_pair_product(a, b):
    """The symbol product as one Series product per coefficient pair,
    summed as series: the formulation the container's product replaced,
    kept as its oracle."""
    out = {}
    for za, sa in a.entries().items():
        for zb, sb in b.entries().items():
            key = tuple(i + j for i, j in zip(za, zb))
            Symbol._accumulate(out, key, sa * sb)
    return Symbol(a.num_vars, out)


def _series_pair_bracket(a, b):
    """poisson_bracket with every product taken by the oracle above."""
    out = Symbol.zero(a.num_vars)
    for i in range(1, a.num_vars + 1):
        out = out + _series_pair_product(a.zeta_partial(i), b.x_partial(i))
        out = out - _series_pair_product(a.x_partial(i), b.zeta_partial(i))
    return out


@st.composite
def mixed_precision_symbols(draw, n):
    """A symbol of z-degree <= 2 whose coefficients have precisions of
    their own, 0 to 4."""
    keys = st.sampled_from(monomials_upto(n, 2))
    coeffs = {}
    for key in draw(st.lists(keys, max_size=3, unique=True)):
        prec = draw(st.integers(0, 4))
        terms = draw(st.dictionaries(st.sampled_from(monomials_upto(n, prec)),
                                     st.builds(Fraction, st.integers(-4, 4),
                                               st.sampled_from([1, 2, 3, 6])),
                                     max_size=4))
        coeffs[key] = Series(n, prec, terms)
    return Symbol(n, coeffs)


@st.composite
def mixed_precision_symbol_pairs(draw):
    n = draw(st.integers(1, 2))
    return draw(mixed_precision_symbols(n)), draw(mixed_precision_symbols(n))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(mixed_precision_symbol_pairs())
# (z1 + x1)(x1 - z1) = x1^2 - z1^2: the summands on z1 cancel, and the key
# goes; x1^2 is known to 2 and z1^2 to 3
@example((Symbol(1, {(1,): Series.one(1, 3), (0,): Series(1, 2, {(1,): 1})}),
          Symbol(1, {(0,): Series(1, 4, {(1,): 1}), (1,): Series(1, 3, {(0,): -1})})))
# a one-term coefficient with no generator shifts and scales the other
# side, a floor (z2: zero known to 1) included
@example((Symbol.from_series(Series(2, 4, {(0, 1): Fraction(2, 3)})),
          Symbol(2, {(0, 1): Series.zero(2, 1), (1, 0): Series(2, 3, {(1, 0): 1, (0, 3): -2}),
                     (0, 0): Series(2, 2, {(0, 0): Fraction(1, 2), (1, 1): 3})})))
def test_symbol_product_matches_the_series_pair_formulation(pair):
    # coefficients and each key's precision (the least over its summands, a
    # vanishing one included), of products and of brackets
    a, b = pair
    assert _raised(lambda: a * b) == _raised(lambda: _series_pair_product(a, b))
    assert _raised(lambda: b * a) == _raised(lambda: _series_pair_product(b, a))
    assert _raised(lambda: poisson_bracket(a, b)) == _raised(
        lambda: _series_pair_bracket(a, b))


def test_membership_generator():
    n, prec = 2, 6
    z2 = Symbol.zeta(n, 2, prec)
    assert membership_truncated(z2, [z2], 4, 2).status == MEMBER


def test_membership_unit_not_in_graded_ideal():
    n, prec = 2, 6
    one = Symbol.from_series(Series.one(n, prec))
    x2 = Symbol.from_series(Series.variable(n, 2, prec))
    z2 = Symbol.zeta(n, 2, prec)
    verdict = membership_truncated(one, [x2, z2], 4, 2)
    assert verdict.status == NOT_MEMBER


def test_membership_certified_negative():
    n, prec = 2, 8
    x1 = Series.variable(n, 1, prec)
    x2 = Series.variable(n, 2, prec)
    target = Symbol.from_series(2 * x2)
    gens = [Symbol.from_series(x2 * x2 + x1), Symbol.zeta(n, 2, prec)]
    verdict = membership_truncated(target, gens, 4, 2)
    assert verdict.status == NOT_MEMBER


def test_membership_witness_reproduces_target():
    rng = random.Random(44)
    n, prec = 2, 6
    for _ in range(10):
        g1 = random_symbol(rng, n, prec, max_zeta=1)
        g2 = random_symbol(rng, n, prec, max_zeta=1)
        if g1.is_zero() or g2.is_zero():
            continue
        a = random_symbol(rng, n, prec, max_zeta=1)
        target = g1 * a
        assert membership_truncated(target, [g1, g2], 3, 2).status == MEMBER


def _reference_membership(target, gens, x_bound, zeta_bound):
    """The system on tuple keys and Fraction columns, solved by a tracked
    express: the formulation membership_truncated replaced, kept as its
    oracle.  (status, multipliers); NotMember and the early verdicts have
    no multipliers."""
    n = target.num_vars
    live = [(i, g) for i, g in enumerate(gens) if not g.is_zero()]
    precs = [g.min_precision() for _, g in live] + [target.min_precision()]
    x_used = min([x_bound] + precs)
    if target.is_zero() and not live:
        return MEMBER, None
    columns, labels, row_of = [], [], {}
    for i, g in live:
        zmax = zeta_bound - g.zeta_order()
        for zu in monomials_upto(n, zmax):
            for mu in monomials_upto(n, x_used):
                col = {}
                for zg, s in g.coeffs.items():
                    zrow = tuple(a + b for a, b in zip(zu, zg))
                    if sum(zrow) > zeta_bound:
                        continue
                    for eg, c in s.terms.items():
                        erow = tuple(a + b for a, b in zip(mu, eg))
                        if sum(erow) <= x_used:
                            col[row_of.setdefault((erow, zrow), len(row_of))] = c
                if col:
                    columns.append(col)
                    labels.append((i, mu, zu))
    rhs = {}
    for z, s in target.coeffs.items():
        if sum(z) <= zeta_bound:
            for e, c in s.terms.items():
                if sum(e) <= x_used:
                    rhs[row_of.setdefault((e, z), len(row_of))] = c
    combo = ColumnEchelon(columns, track=True).express(rhs)
    if combo is None:
        return NOT_MEMBER, None
    terms = [{} for _ in gens]
    for j, value in sorted(combo.items()):
        i, mu, zu = labels[j]
        terms[i].setdefault(zu, {})[mu] = value
    return MEMBER, [Symbol(n, {zu: Series(n, x_used, t) for zu, t in by_zeta.items()})
                    for by_zeta in terms]


def _truncated_terms(symbol, x_bound, zeta_bound):
    """{(e, z): c} over x-degree <= x_bound and z-degree <= zeta_bound."""
    return {(e, z): c for z, s in symbol.coeffs.items() if sum(z) <= zeta_bound
            for e, c in s.terms.items() if sum(e) <= x_bound}


def _membership_draws():
    """240 seeded (target, gens, x_bound, zeta_bound): members g1*a + g2*b,
    units, arbitrary symbols (mostly non-members), the zero target, a zero
    generator, and coefficients whose precisions clamp the x-bound."""
    rng = random.Random(29)
    for k in range(240):
        n = rng.choice([1, 2, 2])
        prec = rng.randint(2, 5)
        x_bound, zeta_bound = rng.randint(0, 4), rng.randint(0, 2)
        gens = [random_symbol(rng, n, prec, max_zeta=1)
                for _ in range(rng.randint(1, 3))]
        if k % 7 == 0:
            gens.insert(rng.randrange(len(gens) + 1), Symbol.zero(n))
        kind = k % 4
        if kind in (0, 1):
            target = Symbol.zero(n)
            for g in gens:
                target = target + g * random_symbol(rng, n, prec, max_zeta=1)
        elif kind == 2:
            target = Symbol.from_series(random_series(rng, n, prec, degree=1, unit=True))
        else:
            target = random_symbol(rng, n, rng.randint(2, prec), max_zeta=2)
        yield target, gens, x_bound, zeta_bound


def test_membership_matches_the_tracked_fraction_system():
    # the span decision gives the status of the tracked system on Fraction
    # columns, and each multiplier set that system finds gives back the
    # target in the truncation
    statuses = []
    for target, gens, x_bound, zeta_bound in _membership_draws():
        verdict = membership_truncated(target, gens, x_bound, zeta_bound)
        status, expected = _reference_membership(target, gens, x_bound, zeta_bound)
        statuses.append(status)
        assert verdict.status == status
        if expected is None:
            continue
        recon = Symbol.zero(target.num_vars)
        for mult, gen in zip(expected, gens):
            recon = recon + mult * gen
        used = verdict.x_bound_used
        assert _truncated_terms(recon, used, zeta_bound) == \
            _truncated_terms(target, used, zeta_bound)
    # every status is reached, each many times
    assert min(statuses.count(s) for s in (MEMBER, NOT_MEMBER)) >= 40


class _CountedEchelon(ColumnEchelon):
    """A ColumnEchelon that counts the echelons built, tracked and not."""

    built = {True: 0, False: 0}

    def __init__(self, columns=(), track=False):
        _CountedEchelon.built[track] += 1
        super().__init__(columns, track)


def _lagrangian_generators():
    case = next(c for c in GOLDEN
                if c["argv"][0] == "involutive" and "status: pass" in c["stdout"])
    n, trunc = int(case["argv"][-3]), int(case["argv"][-1])
    return [parse_symbol(text, n, trunc) for text in case["argv"][1:-4]], trunc


def test_involutivity_builds_no_tracked_echelon(monkeypatch):
    monkeypatch.setattr(symbols, "ColumnEchelon", _CountedEchelon)
    monkeypatch.setattr(_CountedEchelon, "built", {True: 0, False: 0})
    gens, trunc = _lagrangian_generators()
    assert involutivity_check(gens, trunc, 3).status == "pass"
    assert _CountedEchelon.built == {True: 0, False: 1}
    n, prec = 2, 6
    failing = [Symbol.from_series(Series.variable(n, 2, prec)), Symbol.zeta(n, 2, prec)]
    assert involutivity_check(failing, 4, 2).status == "fail"
    assert _CountedEchelon.built == {True: 0, False: 2}


def test_involutivity_pass_for_commuting_generators():
    n, prec = 3, 6
    gens = [Symbol.zeta(n, i, prec) for i in range(1, n + 1)]
    assert involutivity_check(gens, 4, 2).status == "pass"


def test_involutivity_fails_with_unit_witness():
    n, prec = 2, 6
    gens = [Symbol.from_series(Series.variable(n, 2, prec)),
            Symbol.zeta(n, 2, prec)]
    outcome = involutivity_check(gens, 4, 2)
    assert outcome.status == "fail"
    assert outcome.witness_bracket == Symbol.from_series(Series.one(n, prec - 1))


def test_involutivity_disjoint_pair_passes():
    n, prec = 2, 6
    gens = [Symbol.from_series(Series.variable(n, 1, prec)),
            Symbol.zeta(n, 2, prec)]
    assert involutivity_check(gens, 4, 2).status == "pass"


def test_chain_probe_linear():
    n, prec = 2, 6
    f = Series.variable(n, 2, prec)
    outcome = bracket_chain_probe(f, 6)
    assert outcome.status == "unit_reached" and outcome.step == 1


def test_chain_probe_order_two():
    n, prec = 2, 6
    x1 = Series.variable(n, 1, prec)
    x2 = Series.variable(n, 2, prec)
    outcome = bracket_chain_probe(x2 * x2 + x1, 6)
    assert outcome.status == "unit_reached" and outcome.step == 2


def test_chain_probe_non_regular():
    n, prec = 2, 6
    x1 = Series.variable(n, 1, prec)
    x2 = Series.variable(n, 2, prec)
    outcome = bracket_chain_probe(x1 * x2, 6)
    assert outcome.status in ("stable", "budget_exhausted")
    assert outcome.status != "unit_reached"


def test_chain_probe_step_equals_regularity_order():
    rng = random.Random(45)
    from formald.series import is_xn_regular
    for _ in range(30):
        n = rng.choice([2, 3])
        order = rng.randint(0, 3)
        f = random_xn_regular(rng, n, 8, order)
        outcome = bracket_chain_probe(f, 8)
        assert outcome.status == "unit_reached"
        assert outcome.step == is_xn_regular(f).order
