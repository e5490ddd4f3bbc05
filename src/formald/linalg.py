"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping row index -> nonzero Fraction; matrices are kept
column-major (one vector per basis element of the source).  Pivots are
always the smallest available row index, so every computation here is
deterministic: no pivoting randomness, no floats.

``ColumnEchelon`` is formald's only elimination: every rank, kernel, solve
and span test in the package, the inverse of a linear substitution
included, is a sequence of its insertions.  It eliminates forward only,
and keeps combinations of the added columns only where they are read.
``vec_add_scaled`` is the one scaled accumulate of sparse vectors;
truncated products of exponent dicts go through
:func:`formald.series.add_product`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction


def vec_add_scaled(target, source, factor):
    """target += factor * source, dropping cancellations."""
    if not factor:
        return target
    for k, v in source.items():
        new = target[k] + factor * v if k in target else factor * v
        if new:
            target[k] = new
        else:
            target.pop(k, None)
    return target


class ColumnEchelon:
    """A forward echelon basis of a growing family of column vectors.

    A column is reduced only against the stored pivots it meets, in
    increasing order; if anything is left, it is stored as it is under its
    pivot, the least row left, and no stored vector is touched.  Supports
    rank queries, span membership and projection onto the complement of
    the pivot rows (used for cokernel representatives).  ``track=True``
    also keeps each stored vector's combination of the added columns, for
    ``add``'s answer on a dependent column and for ``express``; a column's
    label is its insertion position, dependent columns included.  Without
    tracking, ``add`` returns True for a dependent column and ``express``
    raises.
    """

    def __init__(self, columns=(), track=False):
        # pivot row -> (vector, 1 / vector[pivot], combination or None)
        self._rows = {}
        self.track = track
        self.added = 0
        for col in columns:
            self.add(col)

    @property
    def rank(self):
        return len(self._rows)

    def pivots(self):
        return sorted(self._rows)

    def _reduce(self, vec):
        """(residual, combination): residual = vec + sum comb[l]*col_l."""
        vec = dict(vec)
        comb = {} if self.track else None
        rows = self._rows
        heap = [row for row in vec if row in rows]
        heapq.heapify(heap)
        while heap:
            pivot = heapq.heappop(heap)
            entry = vec.get(pivot)
            if not entry:
                continue  # cancelled, or a repeated key already reduced
            basis_vec, inv, basis_comb = rows[pivot]
            factor = -entry * inv
            # basis_vec lives on rows >= pivot; queue the stored pivots
            # among them that vec does not hold yet
            for row in basis_vec:
                if row not in vec and row in rows:
                    heapq.heappush(heap, row)
            vec_add_scaled(vec, basis_vec, factor)
            if comb is not None:
                vec_add_scaled(comb, basis_comb, factor)
        return vec, comb

    def add(self, vec):
        """Insert a column.  Returns None if it is independent of the
        columns before it; otherwise its combination of them (tracked)
        or True."""
        label = self.added
        self.added += 1
        vec, comb = self._reduce(vec)
        if not vec:
            # vec_orig + sum comb[l]*col_l = 0, so col_label = -sum comb*col
            return True if comb is None else {k: -v for k, v in comb.items()}
        pivot = min(vec)
        if comb is not None:
            comb[label] = Fraction(1)  # the label is new
        self._rows[pivot] = (vec, Fraction(1) / vec[pivot], comb)
        return None

    def express(self, vec):
        """Combination of added columns giving vec, or None if outside the span."""
        if not self.track:
            raise ValueError("express needs an echelon built with track=True")
        residual, comb = self._reduce(vec)
        return None if residual else {k: -v for k, v in comb.items()}

    def contains(self, vec):
        return not self._reduce(vec)[0]

    def project(self, vec):
        """Residual of vec after reduction; it has no entry on a pivot row."""
        return self._reduce(vec)[0]


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
        ech = ColumnEchelon(track=True)
        basis = []
        for j, col in enumerate(self.cols):
            comb = ech.add(col)
            if comb is not None:  # its labels are all below j
                basis.append({j: Fraction(1), **{k: -v for k, v in comb.items()}})
        return basis

    def solve(self, rhs):
        """One solution of self * x = rhs (free coordinates 0), or None."""
        return ColumnEchelon(self.cols, track=True).express(rhs)

