"""Exact sparse linear algebra: echelon bases, rank, nullspace, solve.

The property tests check the echelon against sympy's ``DomainMatrix`` over
QQ, which serves only as a test oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from formald.linalg import ColumnEchelon, Matrix
from formald.series import LinearSubstitution

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)


def dense_to_cols(rows):
    nrows = len(rows)
    ncols = len(rows[0])
    cols = []
    for j in range(ncols):
        col = {}
        for i in range(nrows):
            if rows[i][j]:
                col[i] = Fraction(rows[i][j])
        cols.append(col)
    return Matrix.from_cols(cols, nrows)


def test_rank_and_nullity():
    m = dense_to_cols([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert m.rank() == 2
    assert m.nullity() == 1


def test_nullspace_vectors_annihilate():
    rng = random.Random(0)
    for _ in range(20):
        nrows, ncols = rng.randint(2, 5), rng.randint(2, 6)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        m = dense_to_cols(rows)
        basis = m.nullspace()
        assert len(basis) == m.nullity()
        for vec in basis:
            assert not m.apply(vec)


def test_solve_consistency():
    rng = random.Random(1)
    for _ in range(20):
        nrows, ncols = rng.randint(2, 5), rng.randint(2, 5)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        m = dense_to_cols(rows)
        x = {j: Fraction(rng.randint(-2, 2)) for j in range(ncols)}
        rhs = m.apply(x)
        sol = m.solve(rhs)
        assert sol is not None
        assert m.apply(sol) == rhs


def test_solve_detects_infeasible():
    m = dense_to_cols([[1, 0], [0, 0]])
    assert m.solve({1: Fraction(1)}) is None


def test_echelon_membership_and_projection():
    ech = ColumnEchelon()
    ech.add({0: Fraction(1), 1: Fraction(1)})
    ech.add({1: Fraction(1)})
    assert ech.contains({0: Fraction(2), 1: Fraction(5)})
    residual = ech.project({2: Fraction(3), 0: Fraction(1)})
    assert residual == {2: Fraction(3)}


def test_compose_matches_manual():
    a = dense_to_cols([[1, 2], [0, 1]])
    b = dense_to_cols([[1, 0], [1, 1]])
    ab = a.compose(b)
    assert ab.cols == dense_to_cols([[3, 2], [1, 1]]).cols


# -- sympy as an independent oracle ------------------------------------------


def dense_rows(nrows, ncols):
    entry = st.integers(-2, 2)
    return st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


@st.composite
def int_matrices(draw, max_rows=5, max_cols=6):
    return draw(dense_rows(draw(st.integers(1, max_rows)),
                           draw(st.integers(1, max_cols))))


def oracle(rows):
    return DomainMatrix([[QQ(v) for v in row] for row in rows],
                        (len(rows), len(rows[0])), QQ)


@SETTINGS
@given(int_matrices())
def test_rank_and_nullspace_match_sympy(rows):
    m = dense_to_cols(rows)
    rank = oracle(rows).rank()
    assert m.rank() == rank
    basis = m.nullspace()
    assert len(basis) == m.ncols - rank
    for vec in basis:
        assert not m.apply(vec)


@SETTINGS
@given(int_matrices())
def test_dependent_column_combination_uses_insertion_positions(rows):
    m = dense_to_cols(rows)
    ech = ColumnEchelon(track=True)
    rank = 0
    for j, col in enumerate(m.cols):
        comb = ech.add(col)
        prefix_rank = oracle([row[:j + 1] for row in rows]).rank()
        assert (comb is None) == (prefix_rank > rank)
        rank = prefix_rank
        if comb is not None:
            assert all(0 <= k < j for k in comb)
            assert m.apply(comb) == col


@SETTINGS
@given(int_matrices(), st.data())
def test_express_fails_exactly_when_rank_rises(rows, data):
    rhs = data.draw(st.lists(st.integers(-2, 2), min_size=len(rows),
                             max_size=len(rows)))
    m = dense_to_cols(rows)
    target = {i: Fraction(v) for i, v in enumerate(rhs) if v}
    augmented = [row + [v] for row, v in zip(rows, rhs)]
    rises = oracle(augmented).rank() > oracle(rows).rank()
    combo = ColumnEchelon(m.cols, track=True).express(target)
    assert (combo is None) == rises
    if combo is not None:
        assert m.apply(combo) == target


def prefix_rank(rows, count):
    """Rank of the first ``count`` rows."""
    return oracle(rows[:count]).rank() if count else 0


@SETTINGS
@given(int_matrices())
def test_pivot_rows_are_where_the_row_prefix_rank_rises(rows):
    pivots = set(ColumnEchelon(dense_to_cols(rows).cols).pivots())
    for r in range(len(rows)):
        rises = prefix_rank(rows, r + 1) > prefix_rank(rows, r)
        assert (r in pivots) == rises


@SETTINGS
@given(int_matrices(), st.data())
def test_projection_is_off_the_pivots_and_differs_by_the_span(rows, data):
    v = data.draw(st.lists(st.integers(-2, 2), min_size=len(rows),
                           max_size=len(rows)))
    ech = ColumnEchelon(dense_to_cols(rows).cols)
    residual = ech.project({i: Fraction(c) for i, c in enumerate(v) if c})
    assert not set(residual) & set(ech.pivots())
    difference = [c - residual.get(i, 0) for i, c in enumerate(v)]
    augmented = [row + [c] for row, c in zip(rows, difference)]
    assert oracle(augmented).rank() == oracle(rows).rank()


@SETTINGS
@given(int_matrices(), st.data())
def test_tracking_changes_no_answer(rows, data):
    v = data.draw(st.lists(st.integers(-2, 2), min_size=len(rows),
                           max_size=len(rows)))
    vec = {i: Fraction(c) for i, c in enumerate(v) if c}
    tracked, untracked = ColumnEchelon(track=True), ColumnEchelon()
    for col in dense_to_cols(rows).cols:
        assert (tracked.add(col) is None) == (untracked.add(col) is None)
        assert tracked.pivots() == untracked.pivots()
        assert tracked.project(vec) == untracked.project(vec)
    assert tracked.rank == untracked.rank
    assert tracked.contains(vec) == untracked.contains(vec)


def test_untracked_echelon_does_not_express():
    ech = ColumnEchelon([{0: Fraction(1)}])
    assert ech.add({0: Fraction(2)}) is not None   # dependent
    with pytest.raises(ValueError):
        ech.express({0: Fraction(1)})


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: dense_rows(n, n)))
def test_substitution_inverse_matches_sympy_determinant(rows):
    n = len(rows)
    if oracle(rows).det() == 0:
        with pytest.raises(ValueError):
            LinearSubstitution(rows)
        return
    inverse = LinearSubstitution(rows).inverse().rows
    product = [[sum(inverse[i][k] * rows[k][j] for k in range(n))
                for j in range(n)] for i in range(n)]
    assert product == [[int(i == j) for j in range(n)] for i in range(n)]
