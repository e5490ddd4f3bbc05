"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping row index -> nonzero ``int | Fraction``;
matrices are kept column-major (one vector per basis element of the
source).  Pivots are always the smallest available row index, so every
computation here is deterministic: no pivoting randomness, no floats.

``ColumnEchelon`` is formald's only elimination: every rank, kernel, solve
and span test in the package, the inverse of a linear substitution
included, is a sequence of its insertions, except the kernel ladder's
coordinates, which are read off the shape of ``Matrix.nullspace``'s
basis with no elimination.  It eliminates forward only
and fraction-free: every stored vector is a primitive integer vector, and
it keeps combinations of the added columns, as integers over one
denominator, only where they are read.  ``Fraction``s are made only in
what ``add``, ``express`` and ``project`` return, and so in
``Matrix.nullspace``.
``vec_add_scaled`` is the one scaled accumulate of sparse vectors;
truncated products of exponent dicts go through
:func:`formald.series.add_product`.
"""

from __future__ import annotations

import heapq
import math
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

    A column is scaled to integers by the lcm of its denominators and
    reduced only against the stored pivots it meets, in increasing order,
    by w <- a*w - c*b with a = b[p]/g, c = w[p]/g and g = gcd(w[p], b[p])
    (gcd-based fraction-free elimination).  Once the multipliers a since
    the last such step pass 64 bits, w is divided by its content, so its
    entries stay within 64 bits of the primitive residual's.  If anything
    is left, it is divided by its content and stored under its pivot, the
    least row left, with a positive pivot entry; no stored vector is
    touched.  Supports rank queries, span membership and projection onto
    the complement of the pivot rows (used for cokernel representatives).
    ``track=True`` also keeps each stored vector b's combination of the
    added columns, for ``add``'s answer on a dependent column and for
    ``express``; a column's label is its insertion position, dependent
    columns included.  It is an integer dict B with a positive integer
    beta, beta*b = sum B[l]*col_l.  A reduction updates its combination
    with the same a and c as the vector, over the lcm of the denominators
    it meets, and divides it by the common gcd with its denominator at the
    content step; B and beta are divided by theirs when b is stored.
    Without tracking, ``add`` returns True for a dependent column and
    ``express`` raises.  Residuals, pivot rows and combinations over the
    independent labels do not depend on how the stored vectors are
    scaled, so every answer is the one a ``Fraction`` elimination gives;
    the ``Fraction``s are made only in what ``add``, ``express`` and
    ``project`` return.
    """

    def __init__(self, columns=(), track=False):
        # pivot row -> (primitive integer vector, (B, beta) or None)
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
        """(w, (sigma, tau), comb): integers with tau*w = sigma*vec +
        sum comb[l]*col_l, sigma and tau positive, and no entry of w on a
        pivot row; comb is None untracked."""
        sigma = math.lcm(*(v.denominator for v in vec.values()))
        w = {k: v.numerator * (sigma // v.denominator)
             for k, v in vec.items() if v}
        tau = 1
        comb = {} if self.track else None
        rows = self._rows
        heap = [row for row in w if row in rows]
        heapq.heapify(heap)
        scale = 1  # product of the multipliers since w was last made primitive
        while heap:
            pivot = heapq.heappop(heap)
            entry = w.get(pivot)
            if not entry:
                continue  # cancelled, or a repeated key already reduced
            basis_vec, basis_comb = rows[pivot]
            lead = basis_vec[pivot]
            g = math.gcd(entry, lead)
            # basis_vec lives on rows >= pivot; queue the stored pivots
            # among them that w does not hold yet
            for row in basis_vec:
                if row not in w and row in rows:
                    heapq.heappush(heap, row)
            a = lead // g
            if a != 1:
                for k in w:
                    w[k] *= a
                scale *= a
            c = entry // g
            vec_add_scaled(w, basis_vec, -c)
            if comb is not None:
                # tau*w and beta*b are integer combinations; over their
                # common denominator lcm(tau, beta), sigma and comb take
                # w's multiplier a times the lift common/tau
                basis, beta = basis_comb
                common = math.lcm(tau, beta)
                a *= common // tau
                if a != 1:
                    for k in comb:
                        comb[k] *= a
                vec_add_scaled(comb, basis, -c * (common // beta))
                tau = common
            sigma *= a
            if scale.bit_length() > 64 and w:
                content = math.gcd(*w.values())
                if content != 1:
                    for k in w:
                        w[k] //= content
                    tau *= content
                    g = math.gcd(tau, sigma, *(comb or {}).values())
                    if g != 1:
                        tau //= g
                        sigma //= g
                        for k in comb or ():
                            comb[k] //= g
                scale = 1
        return w, (sigma, tau), comb

    def add(self, vec):
        """Insert a column.  Returns None if it is independent of the
        columns before it; otherwise its combination of them (tracked)
        or True."""
        label = self.added
        self.added += 1
        w, (sigma, tau), comb = self._reduce(vec)
        if not w:
            # sigma*col_label + sum comb[l]*col_l = 0
            return True if comb is None else {k: Fraction(-v, sigma)
                                              for k, v in comb.items()}
        pivot = min(w)
        content = math.gcd(*w.values())
        if w[pivot] < 0:
            content = -content
        if content != 1:
            w = {k: v // content for k, v in w.items()}
        if comb is not None:
            comb[label] = sigma  # the label is new
            beta = tau * content
            g = math.gcd(beta, *comb.values())
            if beta < 0:
                g = -g
            if g != 1:
                comb = {k: v // g for k, v in comb.items()}
            comb = (comb, beta // g)
        self._rows[pivot] = (w, comb)
        return None

    def express(self, vec):
        """Combination of added columns giving vec, or None if outside the span."""
        if not self.track:
            raise ValueError("express needs an echelon built with track=True")
        w, (sigma, _), comb = self._reduce(vec)
        return None if w else {k: Fraction(-v, sigma) for k, v in comb.items()}

    def contains(self, vec):
        return not self._reduce(vec)[0]

    def project(self, vec):
        """Residual of vec after reduction; it has no entry on a pivot row."""
        w, (sigma, tau), _ = self._reduce(vec)
        return {k: Fraction(v * tau, sigma) for k, v in w.items()}


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

    def rank(self):
        return ColumnEchelon(self.cols).rank

    def nullspace(self):
        """Deterministic basis of the kernel (vectors over column indices).

        Each vector is 1 at its largest key, a column dependent on the
        columns before it, and no other returned vector has that key: the
        other keys are labels of independent columns."""
        ech = ColumnEchelon(track=True)
        basis = []
        for j, col in enumerate(self.cols):
            comb = ech.add(col)
            if comb is not None:  # its labels are all below j
                basis.append({j: Fraction(1), **{k: -v for k, v in comb.items()}})
        return basis
