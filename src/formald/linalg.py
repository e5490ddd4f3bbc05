"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping row index -> nonzero Fraction; matrices are kept
column-major (one vector per basis element of the source).  Pivots are
always the smallest available row index, so every computation here is
deterministic: no pivoting randomness, no floats.

``ColumnEchelon`` is formald's only elimination: every rank, kernel, solve
and span test in the package, the inverse of a linear substitution
included, is a sequence of its insertions.  ``vec_add_scaled`` is the one
scaled accumulate of sparse vectors; truncated products of exponent dicts
go through :func:`formald.series.add_product`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def vec_add_scaled(target, source, factor):
    """target += factor * source, dropping cancellations."""
    if not factor:
        return target
    for k, v in source.items():
        new = target.get(k, Fraction(0)) + factor * v
        if new:
            target[k] = new
        else:
            target.pop(k, None)
    return target


def vec_scale(vec, factor):
    return {k: v * factor for k, v in vec.items()}


class ColumnEchelon:
    """A fully reduced echelon basis of a growing family of column vectors.

    Supports rank queries, span membership with an explicit combination in
    terms of the added columns, and projection onto the complement of the
    pivot coordinates (used for cokernel representatives).  A column's
    label in every combination is its insertion position: the number of
    columns added before it, dependent ones included.
    """

    def __init__(self, columns=()):
        # list of (pivot_row, vector, combination) sorted by pivot_row;
        # each vector is reduced against all others and has pivot entry 1
        self.rows = []
        self.added = 0
        for col in columns:
            self.add(col)

    @property
    def rank(self):
        return len(self.rows)

    def pivots(self):
        return [p for p, _, _ in self.rows]

    def _reduce(self, vec, comb):
        vec = dict(vec)
        comb = dict(comb)
        for pivot, basis_vec, basis_comb in self.rows:
            factor = vec.get(pivot)
            if factor:
                vec_add_scaled(vec, basis_vec, -factor)
                vec_add_scaled(comb, basis_comb, -factor)
        return vec, comb

    def add(self, vec):
        """Insert a column.  Returns None if independent, otherwise the
        combination expressing it through previously added columns."""
        label = self.added
        self.added += 1
        vec, comb = self._reduce(vec, {})
        if not vec:
            # vec_orig + sum comb[l]*col_l = 0, so col_label = -sum comb*col
            return {k: -v for k, v in comb.items()}
        pivot = min(vec)
        inv = Fraction(1) / vec[pivot]
        vec = vec_scale(vec, inv)
        comb = vec_scale(comb, inv)
        comb[label] = inv  # the label is new, so comb has no entry yet
        # back-eliminate the new pivot from the stored basis
        for _, basis_vec, basis_comb in self.rows:
            factor = basis_vec.get(pivot)
            if factor:
                vec_add_scaled(basis_vec, vec, -factor)
                vec_add_scaled(basis_comb, comb, -factor)
        self.rows.append((pivot, vec, comb))
        self.rows.sort(key=lambda item: item[0])
        return None

    def express(self, vec):
        """Combination of added columns giving vec, or None if outside the span."""
        residual, comb = self._reduce(vec, {})
        if residual:
            return None
        return {k: -v for k, v in comb.items()}

    def contains(self, vec):
        residual, _ = self._reduce(vec, {})
        return not residual

    def project(self, vec):
        """Residual of vec after reduction (supported off the pivot rows)."""
        residual, _ = self._reduce(vec, {})
        return residual


@dataclass
class Matrix:
    """A sparse exact matrix, column-major."""

    nrows: int
    ncols: int
    cols: list

    @classmethod
    def from_cols(cls, cols, nrows):
        return cls(nrows=nrows, ncols=len(cols), cols=[dict(c) for c in cols])

    def apply(self, vec):
        """Image of a coordinate vector (dict col -> Fraction)."""
        out = {}
        for col, factor in vec.items():
            vec_add_scaled(out, self.cols[col], factor)
        return out

    def compose(self, other):
        """self o other as a Matrix (other is applied first)."""
        if other.nrows != self.ncols:
            raise ValueError("dimension mismatch in composition")
        cols = [self.apply(c) for c in other.cols]
        return Matrix(nrows=self.nrows, ncols=other.ncols, cols=cols)

    def is_zero(self):
        return all(not c for c in self.cols)

    def rank(self):
        return ColumnEchelon(self.cols).rank

    def nullity(self):
        return self.ncols - self.rank()

    def nullspace(self):
        """Deterministic basis of the kernel (vectors over column indices)."""
        ech = ColumnEchelon()
        basis = []
        for j, col in enumerate(self.cols):
            comb = ech.add(col)
            if comb is not None:
                null = {j: Fraction(1)}
                vec_add_scaled(null, comb, Fraction(-1))
                basis.append(null)
        return basis

    def solve(self, rhs):
        """One solution of self * x = rhs (free coordinates 0), or None."""
        return ColumnEchelon(self.cols).express(rhs)


def intersection_dim(vectors_a, vectors_b):
    """dim(span A  intersect  span B) = rank A + rank B - rank (A u B)
    for two lists of dict vectors."""
    return (ColumnEchelon(vectors_a).rank + ColumnEchelon(vectors_b).rank
            - ColumnEchelon(vectors_a + vectors_b).rank)
