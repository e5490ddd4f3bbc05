"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping row index -> nonzero ``int | Fraction``;
matrices are kept column-major (one vector per basis element of the
source).  Pivots are always the smallest available row index, so every
computation here is deterministic: no pivoting randomness, no floats.

``ColumnEchelon`` is formald's only elimination: every rank, kernel, solve
and span test in the package, the inverse of a linear substitution
included, is a sequence of its insertions, except the kernel ladder's
coordinates, which are read off the shape of ``Matrix.nullspace``'s
basis with no elimination.  It eliminates forward only and
fraction-free, and its one state is an integer vector per pivot: int
rows below ``_LABELS`` are the columns' own, and label rows at or above
it carry the combination of added columns that a vector stands for.
Each pivot step of a reduction is one pass over the stored vector, which
adds it in and queues the stored pivots it brings, and a column with no
``Fraction`` entry enters unscaled.  ``Fraction``s are made only in what
``add``, ``express`` and ``project`` return, and so in
``Matrix.nullspace``; ``project`` returns ints when its reduction's scale
is 1, an int column reduced against pivots whose leads divide the
entries they clear.  ``residual`` makes none: it returns the integer
residual and its scale in lowest terms, and the cokernel ladder scales
each level's residuals to one denominator with it.  ``Matrix.eliminate``
is the one nullspace loop: it returns the tracked echelon with the
basis, for a caller that also projects against the span.
``scale_to_integers`` is the one Fraction -> integer scaler and
``vec_add_scaled`` the one scaled accumulate of sparse vectors outside
the echelon; truncated products of exponent dicts go through
:func:`formald.series.packed_products`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

# rows from here on are labels: row _LABELS + l stands for added column l
_LABELS = 1 << 62


def scale_to_integers(*dicts):
    """(ints_1, ..., ints_k, den): integer dicts with dicts[i] = ints_i/den,
    den the lcm of every denominator; zero entries are dropped."""
    den = 1
    for d in dicts:
        for c in d.values():
            if den % c.denominator:
                den = math.lcm(den, c.denominator)
    return *[{e: c.numerator * (den // c.denominator) for e, c in d.items() if c}
             for d in dicts], den


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

    The one invariant: ``_rows`` maps each pivot to an integer vector with
    gcd 1 whose least row is the pivot, with a positive entry there.  The
    columns' rows are ints below ``_LABELS``; rows at or above it are
    labels, reduced like any row but never pivots.  With ``track=True``
    column l, the l-th added (dependent columns included), enters as
    s*col + s*e_{_LABELS+l}, s the lcm of its denominators, so every
    vector's label part is the combination of added columns that gives
    its other rows.

    A vector is scaled to integers (a column of ints is copied as it is)
    and reduced only against the stored pivots it meets, in increasing
    order, by w <- a*w - c*b with a = b[p]/g, c = w[p]/g and
    g = gcd(w[p], b[p]) (gcd-based fraction-free elimination), each step
    one pass over b that also queues the stored pivots b brings.  Once
    the multipliers a since the last such step pass 64 bits, w is divided
    by its content, so its entries stay within 64 bits of the primitive
    residual's.  ``add`` stores what is left, divided by its content,
    under its least row; if only labels are left they are a dependence,
    which ``add`` returns as the combination of the columns before
    (``True`` untracked) and does not store.  ``express`` and ``residual``
    give their vector the next unused label, whose final entry is the
    scale to divide by; ``contains`` and ``residual`` ignore label rows.
    Residuals, pivot rows and combinations over the independent columns
    do not depend on how the stored vectors are scaled, so every answer
    is the one a ``Fraction`` elimination gives.
    """

    def __init__(self, columns=(), track=False):
        self._rows = {}  # pivot row -> integer vector
        self.track = track
        self.added = 0
        for col in columns:
            self.add(col, combine=False)

    @property
    def rank(self):
        return len(self._rows)

    def pivots(self):
        return sorted(self._rows)

    def _reduce(self, vec, label=None):
        """vec over the lcm of its denominators (1 for a column with no
        Fraction, copied as it is), that lcm on row _LABELS + label if a
        label is given, reduced until no entry is on a pivot row."""
        # an integer column enters unscaled; the scaler also drops zeros
        if Fraction in map(type, vec.values()) or 0 in vec.values():
            w, den = scale_to_integers(vec)
        else:
            w, den = dict(vec), 1
        if label is not None:
            w[_LABELS + label] = den
        rows = self._rows
        heap = [row for row in w if row in rows]
        heapq.heapify(heap)
        push, pop = heapq.heappush, heapq.heappop
        scale = 1  # product of the multipliers since w was last made primitive
        while heap:
            pivot = pop(heap)
            entry = w.get(pivot)
            if not entry:
                continue  # cancelled, or a repeated key already reduced
            basis_vec = rows[pivot]
            lead = basis_vec[pivot]
            g = math.gcd(entry, lead)
            a = lead // g
            if a != 1:
                for k in w:
                    w[k] *= a
                scale *= a
            # w -= c*basis_vec in one pass; basis_vec lives on rows >=
            # pivot, and a stored pivot among them that w did not hold
            # is queued
            c = entry // g
            for row, v in basis_vec.items():
                if row in w:
                    new = w[row] - c * v
                    if new:
                        w[row] = new
                    else:
                        del w[row]
                else:
                    w[row] = -c * v
                    if row in rows:
                        push(heap, row)
            if scale.bit_length() > 64:
                content = math.gcd(*w.values())
                if content != 1:
                    for k in w:
                        w[k] //= content
                scale = 1
        return w

    def add(self, vec, combine=True):
        """Insert a column.  Returns None if it is independent of the
        columns before it; otherwise its combination of them (tracked and
        ``combine``) or True."""
        label = self.added
        self.added += 1
        w = self._reduce(vec, label if self.track else None)
        pivot = min(w) if w else _LABELS
        if pivot >= _LABELS:
            return _combination(w, label) if self.track and combine else True
        content = math.gcd(*w.values())
        if w[pivot] < 0:
            content = -content
        if content != 1:
            w = {k: v // content for k, v in w.items()}
        self._rows[pivot] = w
        return None

    def express(self, vec):
        """Combination of added columns giving vec, or None if outside the span."""
        if not self.track:
            raise ValueError("express needs an echelon built with track=True")
        w = self._reduce(vec, self.added)
        return None if min(w) < _LABELS else _combination(w, self.added)

    def contains(self, vec):
        w = self._reduce(vec)
        return not w or min(w) >= _LABELS

    def residual(self, vec):
        """(ints, scale): vec's residual after reduction, which has no entry
        on a pivot row, as an integer vector over a positive int, in lowest
        terms: scale is the lcm of the residual's denominators, 1 for an
        empty one."""
        w = self._reduce(vec, self.added)
        scale = w.pop(_LABELS + self.added)
        ints = {k: v for k, v in w.items() if k < _LABELS}
        g = math.gcd(scale, *ints.values())
        if g != 1:
            ints = {k: v // g for k, v in ints.items()}
        return ints, scale // g

    def project(self, vec):
        """Residual of vec after reduction, ints/scale for ``residual``'s
        pair: its entries are ints when the scale is 1."""
        ints, scale = self.residual(vec)
        if scale == 1:
            return ints
        return {k: Fraction(v, scale) for k, v in ints.items()}


def _combination(w, label):
    """The dependence s*vec + sum m_l*col_l = 0 that a residual w left on
    label rows only records, s = w[_LABELS + label], as vec's combination
    {l: -m_l/s} of the added columns."""
    scale = w.pop(_LABELS + label)
    return {k - _LABELS: Fraction(-v, scale) for k, v in w.items()}


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
        """Image of a coordinate vector (dict col -> int | Fraction)."""
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

    def pivots(self, skip=frozenset()):
        """Pivot rows, increasing, of one untracked echelon of the columns
        whose indices are not in ``skip``."""
        return ColumnEchelon(col for j, col in enumerate(self.cols)
                             if j not in skip).pivots()

    def rank(self, skip=frozenset()):
        """Rank of the columns whose indices are not in ``skip``."""
        return len(self.pivots(skip))

    def nullspace(self):
        """Deterministic basis of the kernel (vectors over column indices).

        Each vector is 1 at its largest key, a column dependent on the
        columns before it, and no other returned vector has that key: the
        other keys are labels of independent columns."""
        return self.eliminate()[1]

    def eliminate(self):
        """(echelon, nullspace): one tracked echelon of the columns, in
        order, and the kernel basis :meth:`nullspace` returns, read off its
        dependences.  A caller that also projects against the columns'
        span or reads their pivots keeps the echelon."""
        ech = ColumnEchelon(track=True)
        basis = []
        for j, col in enumerate(self.cols):
            comb = ech.add(col)
            if comb is not None:  # its labels are all below j
                basis.append({j: Fraction(1), **{k: -v for k, v in comb.items()}})
        return ech, basis
