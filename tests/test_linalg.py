"""Exact sparse linear algebra: echelon bases, rank, nullspace, express.

The property tests check the echelon against sympy's ``DomainMatrix`` over
QQ, which serves only as a test oracle."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from formald.linalg import (_LABELS, ColumnEchelon, Matrix, scale_to_integers,
                            vec_add_scaled)
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
    assert m.ncols - m.rank() == 1


def test_nullspace_vectors_annihilate():
    rng = random.Random(0)
    for _ in range(20):
        nrows, ncols = rng.randint(2, 5), rng.randint(2, 6)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        m = dense_to_cols(rows)
        basis = m.nullspace()
        assert len(basis) == m.ncols - m.rank()
        for vec in basis:
            assert not m.apply(vec)
        # the kernel ladder reads coordinates off this shape: each vector
        # is 1 at its largest key, which no other vector holds
        leads = [max(vec) for vec in basis]
        assert all(vec[lead] == 1 for vec, lead in zip(basis, leads))
        assert all(lead not in other for lead in leads for other in basis
                   if max(other) != lead)


def test_solve_consistency():
    rng = random.Random(1)
    for _ in range(20):
        nrows, ncols = rng.randint(2, 5), rng.randint(2, 5)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        m = dense_to_cols(rows)
        x = {j: Fraction(rng.randint(-2, 2)) for j in range(ncols)}
        rhs = m.apply(x)
        sol = ColumnEchelon(m.cols, track=True).express(rhs)
        assert sol is not None
        assert m.apply(sol) == rhs


def test_solve_detects_infeasible():
    m = dense_to_cols([[1, 0], [0, 0]])
    assert ColumnEchelon(m.cols, track=True).express({1: Fraction(1)}) is None


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


def test_the_constructor_inserts_through_add_and_builds_no_combination(monkeypatch):
    # a dependent column's combination is built only for a caller of add
    import formald.linalg as linalg
    combination, add = linalg._combination, ColumnEchelon.add
    built, added = [], []
    monkeypatch.setattr(linalg, "_combination",
                        lambda w, label: built.append(label) or combination(w, label))
    monkeypatch.setattr(ColumnEchelon, "add",
                        lambda self, vec, **kw: added.append(vec) or add(self, vec, **kw))
    columns = [{0: 1}, {0: 2}, {1: Fraction(1, 2)}, {0: 1, 1: 1}]
    ech = ColumnEchelon(columns, track=True)
    assert added == columns and ech.rank == 2 and not built
    assert ech.add({0: 3, 1: 1}) == {0: 3, 2: 2} and built == [4]
    assert ech.express({1: 1}) == {2: 2}


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


@st.composite
def sparse_int_columns(draw, max_rows=12, max_cols=10):
    """Columns of at most four nonzero small ints on up to max_rows rows."""
    nrows = draw(st.integers(1, max_rows))
    entry = st.integers(-3, 3).filter(bool)
    return draw(st.lists(st.dictionaries(st.integers(0, nrows - 1), entry,
                                         max_size=4), max_size=max_cols))


@SETTINGS
@given(sparse_int_columns(), st.data())
def test_pivots_and_rank_do_not_depend_on_the_column_order(columns, data):
    # the pivots are the least rows the span's vectors reach, a property of
    # the span alone: the given order, the reversed one and a shuffled one
    # give one pivot list and one rank
    shuffled = data.draw(st.permutations(columns))
    echelons = [ColumnEchelon(order) for order in (columns, columns[::-1], shuffled)]
    assert len({tuple(ech.pivots()) for ech in echelons}) == 1
    assert len({ech.rank for ech in echelons}) == 1


@SETTINGS
@given(sparse_int_columns(), st.data())
def test_matrix_pivots_and_rank_leave_out_the_skipped_columns(columns, data):
    skip = frozenset(data.draw(st.sets(st.integers(0, max(len(columns) - 1, 0)))))
    kept = [col for j, col in enumerate(columns) if j not in skip]
    matrix = Matrix.from_cols(columns, 12)
    assert matrix.pivots(skip) == ColumnEchelon(kept).pivots()
    assert matrix.rank(skip) == ColumnEchelon(kept).rank
    assert matrix.rank() == ColumnEchelon(columns).rank


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


# -- the fraction-free echelon against a Fraction elimination ----------------


class FractionEchelon:
    """The elimination ``ColumnEchelon`` replaced, kept as a test oracle:
    forward only, over ``Fraction``, stored vectors unscaled."""

    def __init__(self, track=False):
        self.rows = {}
        self.track = track
        self.added = 0

    def reduce(self, vec):
        vec = {k: Fraction(v) for k, v in vec.items() if v}
        comb = {} if self.track else None
        pending = sorted(row for row in vec if row in self.rows)
        while pending:
            pivot = pending.pop(0)
            if not vec.get(pivot):
                continue
            basis_vec, basis_comb = self.rows[pivot]
            factor = -vec[pivot] / basis_vec[pivot]
            for row, v in basis_vec.items():
                new = vec.get(row, 0) + factor * v
                if new:
                    vec[row] = new
                else:
                    vec.pop(row, None)
            if comb is not None:
                for label, v in basis_comb.items():
                    new = comb.get(label, 0) + factor * v
                    if new:
                        comb[label] = new
                    else:
                        comb.pop(label, None)
            pending = sorted(row for row in vec if row in self.rows and row > pivot)
        return vec, comb

    def add(self, vec):
        label = self.added
        self.added += 1
        vec, comb = self.reduce(vec)
        if not vec:
            return True if comb is None else {k: -v for k, v in comb.items()}
        if comb is not None:
            comb[label] = Fraction(1)
        self.rows[min(vec)] = (vec, comb)
        return None

    def express(self, vec):
        residual, comb = self.reduce(vec)
        return None if residual else {k: -v for k, v in comb.items()}


def rational_entry():
    """0 a third of the time, else num/den with den in 1..6; an integral
    value is passed as an int or as a Fraction."""
    value = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
    return st.one_of(st.just(0), value, value.map(
        lambda v: v.numerator if v.denominator == 1 else v))


@st.composite
def rational_columns(draw, max_rows=6, max_cols=7):
    """(columns, a probe vector), with mixed int/Fraction entries."""
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    vector = st.lists(rational_entry(), min_size=nrows, max_size=nrows).map(
        lambda vals: {i: v for i, v in enumerate(vals) if v})
    return draw(st.lists(vector, min_size=ncols, max_size=ncols)), draw(vector)


def echelon_answers(make, columns, probe):
    """Every answer of an echelon built by ``make`` from the columns."""
    answers = []
    for track in (False, True):
        ech = make(track)
        answers.append([ech.add(col) for col in columns])
    # ech is the tracked one from here on
    if isinstance(ech, ColumnEchelon):
        pivots, rank = ech.pivots(), ech.rank
        project, contains = ech.project(probe), ech.contains(probe)
    else:
        pivots, rank = sorted(ech.rows), len(ech.rows)
        project = ech.reduce(probe)[0]
        contains = not project
    return answers, pivots, rank, ech.express(probe), project, contains


def fraction_nullspace(columns):
    """Matrix.nullspace's basis, from the Fraction elimination."""
    ech, basis = FractionEchelon(track=True), []
    for j, col in enumerate(columns):
        comb = ech.add(col)
        if comb is not None:
            basis.append({j: Fraction(1), **{k: -v for k, v in comb.items()}})
    return basis


def fraction_solve(columns, rhs):
    ech = FractionEchelon(track=True)
    for col in columns:
        ech.add(col)
    return ech.express(rhs)


def excess_bits(den, nums):
    """Bits that den and nums take beyond the Fractions nums/den written
    over their least common denominator."""
    fractions = [Fraction(v, den) for v in nums]
    lcm = math.lcm(*(f.denominator for f in fractions))
    lowest = [lcm, *(int(f * lcm) for f in fractions)]
    return (max(abs(v).bit_length() for v in (den, *nums))
            - max(abs(v).bit_length() for v in lowest))


def assert_combinations_in_lowest_terms(ech):
    """A stored vector's combination, its label part, shares no factor with
    the rest of it: the vector is an integer vector primitive over all its
    entries, and carries labels only when tracked."""
    for vec in ech._rows.values():
        assert all(type(v) is int for v in vec.values())
        assert math.gcd(*vec.values()) == 1
        assert ech.track or max(vec) < _LABELS


@SETTINGS
@given(rational_columns())
def test_fraction_free_echelon_matches_the_fraction_elimination(sample):
    columns, probe = sample
    assert (echelon_answers(lambda track: ColumnEchelon(track=track), columns, probe)
            == echelon_answers(FractionEchelon, columns, probe))
    matrix = Matrix.from_cols(columns, nrows=6)
    assert matrix.nullspace() == fraction_nullspace(columns)
    assert (ColumnEchelon(columns, track=True).express(probe)
            == fraction_solve(columns, probe))
    assert_combinations_in_lowest_terms(ColumnEchelon(columns, track=True))


@SETTINGS
@given(rational_columns(), st.data())
def test_stored_vectors_are_primitive_integer_vectors(sample, data):
    columns, _ = sample
    ech = ColumnEchelon(columns, track=data.draw(st.booleans()))
    for pivot, vec in ech._rows.items():
        # the pivot is the least row, and it is not a label
        assert pivot == min(vec) < _LABELS and vec[pivot] > 0
    assert_combinations_in_lowest_terms(ech)


@SETTINGS
@given(rational_columns(), st.data())
def test_echelon_answers_do_not_change_when_a_column_is_rescaled(sample, data):
    columns, probe = sample
    j = data.draw(st.integers(0, len(columns) - 1))
    factor = data.draw(st.builds(Fraction, st.integers(-6, 6).filter(bool),
                                 st.integers(1, 6)))
    scaled = list(columns)
    scaled[j] = {k: v * factor for k, v in columns[j].items()}

    def unscale(comb, label):
        # a combination of the rescaled columns, as one of the originals
        if comb is None or comb is True:
            return comb
        if label == j:
            return {k: v / factor for k, v in unscale(comb, None).items()}
        return {k: v * factor if k == j else v for k, v in comb.items()}

    (untracked, tracked), *rest = echelon_answers(
        lambda track: ColumnEchelon(track=track), columns, probe)
    (untracked_s, tracked_s), *rest_s = echelon_answers(
        lambda track: ColumnEchelon(track=track), scaled, probe)
    assert untracked_s == untracked
    assert [unscale(c, label) for label, c in enumerate(tracked_s)] == tracked
    pivots, rank, express, project, contains = rest
    pivots_s, rank_s, express_s, project_s, contains_s = rest_s
    assert (pivots_s, rank_s, project_s, contains_s) == (pivots, rank, project,
                                                         contains)
    assert unscale(express_s, None) == express


def test_factorial_denominators_match_and_stay_near_primitive():
    # exp-like columns: entry i of column j is c/(i+j+1)!, so the
    # multipliers of a reduction grow with the factorials
    rng = random.Random(7)
    n = 14
    for _ in range(10):
        columns = [{i: Fraction(c, math.factorial(i + j + 1))
                    for i in range(n) if (c := rng.randint(-3, 3))}
                   for j in range(n - 2)]
        probe = {i: Fraction(1, math.factorial(2 * i + 1)) for i in range(n)}
        assert (echelon_answers(lambda track: ColumnEchelon(track=track), columns, probe)
                == echelon_answers(FractionEchelon, columns, probe))
        assert Matrix.from_cols(columns, n).nullspace() == fraction_nullspace(columns)
        assert_combinations_in_lowest_terms(ColumnEchelon(columns, track=True))
        w = ColumnEchelon(columns)._reduce(probe)
        assert w and math.gcd(*w.values()).bit_length() <= 64
        # the content step keeps the label part of a tracked reduction, the
        # probe's scale on its own label over the combination on the others,
        # near its lowest terms too: 70 bits over them here, about 500 without
        label = _LABELS + len(columns)
        w = ColumnEchelon(columns, track=True)._reduce(probe, len(columns))
        comb = [v for k, v in w.items() if k >= _LABELS and k != label]
        assert excess_bits(w[label], comb) <= 128


@SETTINGS
@given(rational_columns(), st.data())
def test_label_rows_do_not_leak_into_answers(sample, data):
    columns, _ = sample
    factors = data.draw(st.lists(rational_entry(), min_size=len(columns),
                                 max_size=len(columns)))
    v = {}
    for col, factor in zip(columns, factors):
        vec_add_scaled(v, col, factor)
    ech = ColumnEchelon(columns, track=True)
    assert ech.contains(v) is True
    assert ech.project(v) == {}
    assert all(pivot < _LABELS for pivot in ech._rows)
    rank, pivots = ech.rank, ech.pivots()
    assert ech.add(v) is not None
    assert (ech.rank, ech.pivots()) == (rank, pivots)


@SETTINGS
@given(rational_columns(), st.data())
def test_a_residual_has_a_positive_int_scale(sample, data):
    columns, probe = sample
    ech = ColumnEchelon(columns, track=data.draw(st.booleans()))
    ints, scale = ech.residual(probe)
    assert type(scale) is int and scale > 0
    assert all(type(c) is int for c in ints.values())
    assert not set(ints) & set(ech.pivots()) and max(ints, default=0) < _LABELS


@SETTINGS
@given(rational_columns(), st.data())
def test_projection_is_the_residual_over_its_scale(sample, data):
    columns, probe = sample
    ech = ColumnEchelon(columns, track=data.draw(st.booleans()))
    ints, scale = ech.residual(probe)
    assert ech.project(probe) == {k: Fraction(c, scale) for k, c in ints.items()}
    # lowest terms: the scale is the lcm of the projection's denominators
    assert math.gcd(scale, *ints.values()) == 1


@SETTINGS
@given(rational_columns())
def test_tracking_changes_no_residual(sample):
    # the label rows change how the stored vectors are scaled, and so the
    # reduction's multipliers, but not the residual over its scale; in
    # lowest terms that is one pair
    columns, probe = sample
    tracked, untracked = ColumnEchelon(track=True), ColumnEchelon()
    for col in columns:
        tracked.add(col)
        untracked.add(col)
        assert tracked.residual(probe) == untracked.residual(probe)


@st.composite
def scaled_int_columns(draw):
    """(integer columns, one nonzero rational scale per column); a third of
    the scales are 1, so those columns enter as Fraction(c, 1) entries."""
    columns = [{i: v for i, v in enumerate(col) if v}
               for col in zip(*draw(int_matrices(max_rows=6, max_cols=7)))]
    scale = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                      st.integers(1, 6))
    scales = draw(st.lists(st.one_of(st.just(Fraction(1)), scale),
                           min_size=len(columns), max_size=len(columns)))
    return columns, scales


def primitive(vec):
    """vec times the rational that makes it a gcd-1 integer vector with a
    positive entry on its least row."""
    ints, _ = scale_to_integers(vec)
    content = math.gcd(*ints.values())
    return {k: v // (content if ints[min(ints)] > 0 else -content)
            for k, v in ints.items()}


@SETTINGS
@given(scaled_int_columns())
# the third column's reduction by the first cancels row 1, already queued
# for the second pivot, so that key is skipped when it is popped (in the
# second example after the multiplier a = 2)
@example(([{0: 1, 1: 1}, {1: 1}, {0: 1, 1: 1, 2: 1}],
          [Fraction(1), Fraction(-2, 3), Fraction(5)]))
@example(([{0: 2, 1: 4, 2: 1}, {1: 1}, {0: 1, 1: 2, 2: 5}],
          [Fraction(1), Fraction(1), Fraction(3, 2)]))
def test_integer_columns_enter_as_their_fraction_copies_do(sample):
    # the same columns as ints and as rescaled Fractions: a stored vector
    # of the rescaled copy, its label l times column l's scale, is the
    # integer echelon's stored vector made primitive
    columns, scales = sample
    fractions = [{k: Fraction(v) * q for k, v in col.items()}
                 for col, q in zip(columns, scales)]
    for track in (False, True):
        ints, rescaled = (ColumnEchelon(columns, track=track),
                          ColumnEchelon(fractions, track=track))
        assert ints.pivots() == rescaled.pivots()
        assert_combinations_in_lowest_terms(ints)
        for pivot, vec in rescaled._rows.items():
            relabeled = {k: v * scales[k - _LABELS] if k >= _LABELS else v
                         for k, v in vec.items()}
            assert primitive(relabeled) == ints._rows[pivot]
            if all(q == 1 for q in scales):
                assert vec == ints._rows[pivot]
