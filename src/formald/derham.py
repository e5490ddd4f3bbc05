"""Truncated de Rham complexes and exact cohomology dimensions.

A module presentation is sliced into a ladder of finite-dimensional
truncations ("levels"); each derivative maps level t into level t+1, so
composites never silently lose coefficients and d o d = 0 holds exactly
as a matrix identity.  Cohomology of the filtered union is approximated
by running a schedule of truncation parameters and marking a degree
stabilized when two consecutive runs agree; the report never upgrades
truncation evidence to a proof.

The ladder alone holds the truncation (N = series bound, K = pole
budget) and the geometry that reads only the lattice, the rank and the
pole: the basis labels (component, exponent) and their text, the weight
blocks and every column that shifts a term dict, from the form (F, T)
of nabla_j each presentation gives (:meth:`ModuleFamily.shift_columns`).
A whole-window ladder lays its labels out once, in one window order: a
level's basis is the prefix of degree <= its bound, and a shift column
adds packed int keys (:class:`ModuleFamily`).  Each presentation also
gives the bound of every level (see :mod:`formald.modules`):

* connection of rank r, the ring R being rank 1 with zero matrices:
  component tags times degree <= N - t monomials, with maps truncated to
  the target bound (this is what keeps d o d = 0 exact when flatness only
  holds to precision);
* localization at f: monomials x^e / f^(K+t) with
  |e| <= N + K*deg f + t*(deg f - 1), f's stored terms being treated as an
  exact polynomial.  The baseline N + K*deg f keeps every x^e/f^k with
  k <= K and |e| <= N representable at the common denominator, and the
  per-level growth of deg f - 1 matches exactly what the quotient rule
  adds, so no top-of-window shell escapes the differential.

A complex is assembled on cells (label, form): degree i pairs level-i
labels with i-forms.  Stable dims (:func:`stable_cohomology_dims`) keep
only the cells x^e dx_I / f^k of multidegree W.e + W.1_I - k*D = 0 for
the presentation's weight lattice W (f is W-homogeneous of degrees D).
For the Euler field E of a weight, Cartan's formula L_E = d iota_E +
iota_E d makes every other multidegree of the comparison map zero, so
the image of H(source) in H(target) lives in the block.  That is exact
on this ladder because of three conditions: (i) every window is a span
of monomial cells, (ii) d and the comparison map (multiplication by f,
or a connection's truncation) preserve multidegree, and (iii) iota_E of
a source level-i cell's image fits in target level i-1, whose bound
exceeds source level i's by deg f + 1 for a localization; a connection
level's bound N - t rises by one for each degree down, and iota adds
one to |e|.  The ring and R^r given by zero matrices are the case D = 0
with the coordinate weights: their block is the r cells of level 0 with
e = 0 and no form.  An m-adic ladder (truncating f) must recheck (iii).
An empty lattice (non-zero connections, and f such as x + x^2) gives
the whole window in its usual order, and the kernel, cokernel and
long-exact-sequence checks always assemble whole windows: they print
window sizes.

Stable dims are ranks only.  With D = d_src^i, M the comparison's level
maps and B = d_tgt^{i-1}, h^i = rank [B | M ker D] - rank B, and
rank [[0, D], [B, M]] = rank D + rank [B | M ker D].  So one untracked
echelon per degree takes B in rows >= off = dim C^{i+1}_src and then
each source cell's stacked column (D x in rows < off, M x in rows >=
off).  A forward echelon stores each vector under its least row, so the
pivots >= off span exactly the vectors of the span that vanish in rows
< off: there are rank [B | M ker D] of them, and no kernel is formed.

The pivot set of a forward echelon depends only on the span, so the
echelon skips the columns that add nothing to it ("clearing"; Chen and
Kerber, *Persistent homology computation with a twist*, 2011).  The
pivot rows P of an echelon of a differential d^{i-1} are cells of C^i;
the cells off P and im d^{i-1} span C^i, and d^i kills im d^{i-1}, so
d^i has the same column span on the cells off P.  Degree i's echelon so
takes B only at the cells of C^{i-1}_tgt off the pivots of d_tgt^{i-2},
which are degree i-1's pivots right after its B, less that degree's off,
and the stacked columns only at the cells of C^i_src off the pivots of
d_src^{i-1}, which are degree i-1's pivots < off: for x = d y the stacked
column is (0; M d y) = (0; d_tgt M y), in the span of B.  Both rest on
two premises: d o d = 0, which :func:`complex_from_family` checks on
every complex, and the comparison maps M forming a chain map,
M d_src = d_tgt M.  :func:`cohomology_dims` clears in the same way.

The kernel and cokernel of the last derivative acting on the ladder are
again ladders with one variable less, so the same complex builder serves
the long-exact-sequence checks.  Each level's d_n is eliminated once:
one tracked echelon of its columns (:meth:`ModuleFamily.dn_elimination`),
whose nullspace is the kernel ladder's basis and whose pivots and
projections give the cokernel ladder's.

The stable cokernel (:func:`cokernel_of_dn`) counts the comparison
columns into target level t+1 that stay independent of d_n(target level
t) and of the comparison columns before them.  With a weight lattice it
builds only the d_n columns of the multidegrees some comparison column
has, which is exact: (i) the windows are spans of monomial cells, so
target level t+1 is the direct sum of its multidegree parts; (ii) d_n is
multidegree-homogeneous, shifting the multidegree of x^e/f^k by -W_n,
and so is the comparison (multiplication by a power of c*f, or a
connection's prefix projection), which keeps it.  A homogeneous vector
in the span of homogeneous ones lies in the span of those of its own
multidegree, so whether a comparison column is independent depends only
on the columns of its multidegree, and every dim and representative is
the one the whole target gives.  An m-adic ladder (truncating f) must
recheck this homogeneity, as it must recheck (iii).

Every ladder column is an ``int`` column, for any presentation: a
localization's ladder localizes at c*f, c the lcm of the denominators of
f's coefficients (R_f = R_(c*f)), and a connection's ladder scales nabla
by L, the lcm of the denominators of its matrix entries.  Either rescales
each level's basis by one nonzero constant, (c*f)^-(K+t) against f^-(K+t)
or L^-t, so every map of the complex is a constant times the unscaled
one: ranks, pivots, spans and the nullspace vectors (1 at their lead) are
those of f and A.  The texts ``(x^e)/f^k`` read f as c*f.  So the
differentials, the d o d compose and the comparison maps run on ints, and
:class:`formald.linalg.ColumnEchelon` stores them as primitive integer
vectors unscaled: an exact rank costs no ``Fraction`` arithmetic.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .linalg import ColumnEchelon, Matrix, scale_to_integers, vec_add_scaled
from .series import format_poly, monomials_of_degree, monomials_upto

# -- level families --------------------------------------------------------


class _Ladder:
    """What complex assembly reads of a ladder besides its levels: the
    cells of each degree."""

    def cells(self, t):
        """The degree-t cells (label position, form): every level-t label
        with every t-form, label-major."""
        forms = _forms(self.axes, t)
        return [(k, form) for k in range(self.dim(t)) for form in forms]


class ModuleFamily(_Ladder):
    """The truncation ladder of a module presentation.

    The only holder of the truncation (N, K).  Caches the level bases,
    the cells and the d_axis columns of every (axis, level), so the
    complexes built on one ladder (the module's, and its kernel's and
    cokernel's in the LES check) share one build of each; callers must
    not mutate the cached columns.  It lays out every level's labels
    (each component with each monomial up to the level's bound, which the
    presentation gives), their text and every shift column, from the
    presentation's form of nabla_axis; the presentation validates the
    truncation and returns the pole0: K for a localization, which needs
    one, and None for a connection, which must be flat and known to
    precision.

    A whole-window ladder lays its labels out once, in one window order:
    every monomial in graded-lex order, components inner.  Level t's
    basis is the prefix of degree <= bound(t) (:meth:`width` labels), and
    every level reads one index of the window.  The window grows at its
    end when a level needs more, so every position handed out stays.  A
    label (c, x^e) also has a packed key c + rank * sum e_i*base^i, base
    one more than the largest bound of levels -1..n+1 (a level past them
    packs the keys again), and a shift column adds packed keys: every
    coordinate of a target is at most its level's bound, so no sum
    carries.

    A ``block`` ladder holds only the multidegree-0 cells of the
    presentation's weight lattice: level t's basis is the labels of its
    degree-t cells, found per form by a bounded search on the lattice,
    with its own index and packed index (base bound(t) + 1).  With an
    empty lattice that is the whole window.  Only stable dims build
    blocks; the kernel, cokernel and LES ladders print window sizes, and
    a block has no x_axis action."""

    def __init__(self, module, trunc, pole=None, block=False):
        self.module = module
        self.num_vars = module.num_vars
        self.rank = module.rank
        self.trunc = trunc
        self.pole0 = module.validate_ladder(trunc, pole)
        self.axes = list(range(1, self.num_vars + 1))
        self.lattice = module.weight_lattice if block else ()
        # the whole window: its labels, its index, its bound, and the
        # packing (strides rank*base^i, packed key -> position)
        self._labels = []
        self._index = {}
        self._top = -1
        self._base = 0
        self._packing = None
        self._layouts = {}
        self._block_packings = {}
        self._cells_cache = {}
        self._partial_cache = {}
        self._dn_cache = {}
        self._free = None  # (top bound, rows, free count, monomials)

    def bound(self, t):
        return self.module.level_bound(self, t)

    def pole(self, t):
        return None if self.pole0 is None else self.pole0 + t

    def width(self, bound):
        """How many window labels have degree <= bound: the size of a
        whole-window level of that bound, rank * C(n + bound, n)."""
        return self.rank * math.comb(self.num_vars + bound, bound) if bound >= 0 else 0

    def _pack(self, labels, base):
        """(strides, packed key -> position) of labels at a base above
        every coordinate."""
        strides = [self.rank * base ** i for i in range(self.num_vars)]
        return strides, {sum(map(mul, e, strides)) + c: k
                         for k, (c, e) in enumerate(labels)}

    def _grow(self, bound):
        """Extend the window to degree ``bound``, appending the labels of
        each new degree; the keys are packed again once a bound reaches the
        base."""
        if self._packing is None or bound >= self._base:
            self._base = max(bound, self.bound(-1), self.bound(self.num_vars + 1), 0) + 1
            self._packing = self._pack(self._labels, self._base)
        if bound <= self._top:
            return
        labels, index, rank = self._labels, self._index, self.rank
        strides, packed = self._packing
        for degree in range(self._top + 1, bound + 1):
            for e in monomials_of_degree(self.num_vars, degree):
                key = sum(map(mul, e, strides))
                for c in range(rank):
                    index[c, e] = packed[key + c] = len(labels)
                    labels.append((c, e))
        self._top = bound

    def _layout(self, t):
        """(basis, index) of level t, built once; a whole-window level's
        index is the window's."""
        if t not in self._layouts:
            if self.lattice:
                self._build_block(t)
            else:
                bound = self.bound(t)
                self._grow(bound)
                self._layouts[t] = self._labels[:self.width(bound)], self._index
        return self._layouts[t]

    def _packed(self, t):
        """(strides, packed key -> position), for every label of level t: a
        whole window's, or a block level's own, packed when first asked."""
        if not self.lattice:
            self._grow(self.bound(t))
            return self._packing
        if t not in self._block_packings:
            self._block_packings[t] = self._pack(self.basis(t), max(self.bound(t), 0) + 1)
        return self._block_packings[t]

    def basis(self, t):
        return self._layout(t)[0]

    def _build_block(self, t):
        """Level t's layout and cells: for each t-form I, the labels x^e
        with W.e + W.1_I = (K+t)*D, one search per distinct degree.  A
        connection's pole None reads as 0 (its degrees D are 0)."""
        pole, bound = self.pole(t) or 0, self.bound(t)
        found = {}
        per_form = []
        for form in _forms(self.axes, t):
            degrees = tuple(pole * d - sum(w[a - 1] for a in form)
                            for w, d in self.lattice)
            if degrees not in found:
                found[degrees] = self._weight_labels(degrees, bound)
            per_form.append((form, found[degrees]))
        labels = sorted({lab for _, labs in per_form for lab in labs},
                        key=lambda lab: (sum(lab[1]), lab[1], lab[0]))
        index = {lab: i for i, lab in enumerate(labels)}
        self._layouts[t] = labels, index
        self._cells_cache[t] = sorted((index[lab], form)
                                      for form, labs in per_form for lab in labs)

    def _weight_labels(self, degrees, bound):
        """The labels (comp, x^e), every component with every x^e of |e| <=
        bound and w.e = degree for every weight of the lattice, in label
        order.  Each weight has a coordinate no other weight touches (the
        nullspace of a localization leaves one, and the coordinate weights
        are their own); that one is solved for, and the free coordinates run
        over the monomials up to the bound (:meth:`_free_monomials`)."""
        rows, monomials = self._free_monomials(bound)
        labels = []
        for size, e0, dots in monomials:
            e = list(e0)
            room = bound - size
            for (w, p), degree, dot in zip(rows, degrees, dots):
                q, r = divmod(degree - dot, w[p])
                if r or not 0 <= q <= room:
                    break
                e[p] = q
                room -= q
            else:
                labels.append((sum(e), tuple(e)))
        return [(comp, e) for _, e in sorted(labels)
                for comp in range(self.rank)]

    def _free_monomials(self, bound):
        """(rows, monomials): each weight w with the coordinate p solved for
        it, and the free coordinates' monomials m of degree <= bound, each
        as (|m|, m as an exponent with 0 at every solved coordinate, w.m per
        weight).  The monomials are listed once per ladder, in graded-lex
        order up to the largest level bound, and a level takes a prefix."""
        if self._free is None or bound > self._free[0]:
            weights = [w for w, _ in self.lattice]
            rows = []
            for k, w in enumerate(weights):
                others = weights[:k] + weights[k + 1:]
                rows.append((w, next(j for j, c in enumerate(w)
                                     if c and not any(v[j] for v in others))))
            solved = {p for _, p in rows}
            free = [j for j in range(self.num_vars) if j not in solved]
            top = max(bound, *(self.bound(t) for t in range(self.num_vars + 1)))
            monomials = []
            for m in monomials_upto(len(free), top):
                e = [0] * self.num_vars
                for j, a in zip(free, m):
                    e[j] = a
                monomials.append((sum(m), tuple(e),
                                  tuple(sum(w[j] * e[j] for j in free)
                                        for w, _ in rows)))
            self._free = top, rows, len(free), monomials
        _, rows, num_free, monomials = self._free
        count = math.comb(num_free + bound, bound) if bound >= 0 else 0
        return rows, monomials[:count]

    def dim(self, t):
        return len(self.basis(t))

    def index(self, t):
        """Label -> position, for every label of level t; a whole-window
        level's is the window's, which also holds the labels past its
        bound."""
        return self._layout(t)[1]

    def cells(self, t):
        if t not in self._cells_cache:
            if self.lattice:
                self._build_block(t)
            else:
                self._cells_cache[t] = super().cells(t)
        return self._cells_cache[t]

    def label_text(self, t, label):
        """(x^e)/f^k with a pole, f read as the ladder's c*f; else x^e,
        tagged e{c}* above rank 1."""
        comp, e = label
        names = [f"x{i}" for i in range(1, self.num_vars + 1)]
        mono = format_poly({e: Fraction(1)}, names)
        if self.pole0 is not None:
            return f"({mono})/f^{self.pole(t)}"
        return mono if self.rank == 1 else f"e{comp + 1}*{mono}"

    def partial_columns(self, axis, t):
        """Images of the level-t basis under d_axis, in level t+1
        coordinates.  A block differentiates only the labels of degree-t
        cells without dx_axis (the others' images leave the block) and
        reads None for the rest.  Built once per (axis, t)."""
        if (axis, t) not in self._partial_cache:
            labels = self.basis(t)
            wanted = (sorted({k for k, dx in self.cells(t) if axis not in dx})
                      if self.lattice else range(len(labels)))
            images = self.derivative_columns(axis, t, [labels[k] for k in wanted])
            cols = dict(zip(wanted, images))
            self._partial_cache[axis, t] = [cols.get(k) for k in range(len(labels))]
        return self._partial_cache[axis, t]

    def derivative_columns(self, axis, t, labels):
        """Level-(t+1) coordinates of d_axis of the given level-t labels,
        built afresh: :meth:`partial_columns` is its cached whole level."""
        return self.shift_columns(t + 1, labels,
                                  self.module.ladder_form(axis, self.pole(t)), axis)

    def dn_elimination(self, t):
        """(echelon, nullspace) of d_n on level t: the one tracked echelon
        of its columns (:meth:`formald.linalg.Matrix.eliminate`), built once
        per level and shared by the kernel ladder, which reads the
        nullspace, and the cokernel ladder, which reads the pivots and
        projects against it."""
        if t not in self._dn_cache:
            self._dn_cache[t] = self.partial_matrix(self.num_vars, t).eliminate()
        return self._dn_cache[t]

    def shift_columns(self, t, labels, form, axis=None):
        """Level-t coordinates of each label (c, x^e) under a form (F, T):
        e_j*F shifted by e - 1_j into component c (j = axis - 1; none if F
        is None), plus each T[row][c] shifted by e into component ``row``,
        cut at level t's bound.  What cancels is dropped; an empty T entry
        adds nothing.

        Both parts are read once per call as shifts of the label: per
        component c, (row, s) -> (p, q), the label gets p*e_j + q at
        x^(e+s) in component row, p from F and q from T.  A shift's key
        offset is packed once, and the shifts are sorted by degree, so the
        ones that fit below the bound are a prefix: a term of a column
        costs one multiply-add, one int addition and one lookup."""
        if not labels:
            return []
        bound = self.bound(t)
        strides, packed = self._packed(t)
        f, a = form
        j = axis - 1 if f else None
        tables = {}
        for comp in {c for c, _ in labels}:
            shifts = {}
            for e, c in (f or {}).items():
                shifts[comp, e[:j] + (e[j] - 1,) + e[j + 1:]] = [c, 0]
            for row, entries in enumerate(a):
                for e, c in entries[comp].items():
                    shifts.setdefault((row, e), [0, 0])[1] += c
            # (degree, key offset, p, q) by degree: the shifts that fit a
            # room are a prefix
            terms = sorted((sum(s), sum(map(mul, s, strides)) + row - comp, p, q)
                           for (row, s), (p, q) in shifts.items())
            t_terms = [(d, off, q) for d, off, _, q in terms if q]
            tables[comp] = (terms, [term[0] for term in terms],
                            t_terms, [term[0] for term in t_terms])
        cols = []
        for comp, e in labels:
            terms, degrees, t_terms, t_degrees = tables[comp]
            ej = e[j] if f else 0
            if not (ej or t_terms):
                cols.append({})
                continue
            room = bound - sum(e)
            key = sum(map(mul, e, strides)) + comp
            if ej:
                if room < degrees[-1]:
                    terms = terms[:bisect_right(degrees, room)]
                cols.append({packed[key + off]: v for _, off, p, q in terms
                             if (v := p * ej + q)})
            else:
                if room < t_degrees[-1]:
                    t_terms = t_terms[:bisect_right(t_degrees, room)]
                cols.append({packed[key + off]: q for _, off, q in t_terms})
        return cols

    def partial_matrix(self, axis, t):
        return Matrix.from_cols(self.partial_columns(axis, t), self.dim(t + 1))

    def multiply_columns(self, axis, t):
        """Images of the level-t basis under x_axis, truncated to level t."""
        bound = self.bound(t)
        strides, packed = self._packed(t)
        step = strides[axis - 1]
        return [{packed[sum(map(mul, e, strides)) + c + step]: 1}
                if sum(e) < bound else {} for c, e in self.basis(t)]


class KernelFamily(_Ladder):
    """ker(d_n) on a ladder, with the surviving d_1..d_{n-1} actions.

    Level t's basis is ``Matrix.nullspace``'s, read off the base ladder's
    one d_n elimination (:meth:`ModuleFamily.dn_elimination`): each vector
    is 1 at its largest key, its lead, which no other vector holds.  So a
    kernel element's coordinate on a vector is its entry at the lead, read
    off with no elimination; what the combination leaves must be empty.
    The actions apply the base matrices, which hold ints, to each level's
    integer forms, so their images are integer-valued, and a coordinate is
    an int when the source level's vectors are."""

    def __init__(self, base):
        self.base = base
        self.num_vars = base.num_vars - 1
        self.axes = list(range(1, base.num_vars))
        self._integral_cache = {}

    def vectors(self, t):
        return self.base.dn_elimination(t)[1]

    def _integral(self, t):
        """(integer vectors, den): the level-t basis vectors times den, the
        lcm of their denominators."""
        if t not in self._integral_cache:
            *scaled, den = scale_to_integers(*self.vectors(t))
            self._integral_cache[t] = scaled, den
        return self._integral_cache[t]

    def basis(self, t):
        return list(range(len(self.vectors(t))))

    def dim(self, t):
        return len(self.vectors(t))

    def label_text(self, t, label):
        vec = self.vectors(t)[label]
        base_labels = self.base.basis(t)
        parts = [f"{c}*{self.base.label_text(t, base_labels[i])}"
                 for i, c in sorted(vec.items())]
        return " + ".join(parts)

    def _coordinates(self, t, matrix, source, action):
        """Level-t coordinates of the matrix's image of each level-``source``
        basis vector, checked to lie in the kernel.  The images are of the
        integer forms, so each read coordinate is divided by their one
        denominator, and is the image's int when that is 1.  The check
        subtracts in integers, den * vec and scale * image: in Fractions it
        would cost more than the elimination it replaces."""
        lead_of = {max(vec): i for i, vec in enumerate(self.vectors(t))}
        scaled, den = self._integral(t)
        sources, source_den = self._integral(source)
        cols = []
        for image in map(matrix.apply, sources):
            integral, _ = scale_to_integers(image)
            residual = {row: den * v for row, v in integral.items()}
            for row, v in integral.items():
                if row in lead_of:
                    vec_add_scaled(residual, scaled[lead_of[row]], -v)
            if residual:
                raise AssertionError(f"{action} left the kernel ladder")
            cols.append({lead_of[row]: c if source_den == 1 else Fraction(c, source_den)
                         for row, c in image.items() if row in lead_of})
        return cols

    def partial_columns(self, axis, t):
        return self._coordinates(t + 1, self.base.partial_matrix(axis, t), t,
                                 "derivative")

    def multiply_columns(self, axis, t):
        raw = Matrix.from_cols(self.base.multiply_columns(axis, t),
                               self.base.dim(t))
        return self._coordinates(t, raw, t, "multiplication")


class CokernelFamily(_Ladder):
    """coker(d_n) on a ladder: level t is base level t+1 modulo the image.

    The image is the base ladder's one d_n elimination of level t
    (:meth:`ModuleFamily.dn_elimination`): level t's representatives are
    the base labels off its pivots, and a derivative's column is its
    residual against level t+1's, an int column when the reduction needs
    no scale."""

    def __init__(self, base):
        self.base = base
        self.num_vars = base.num_vars - 1
        self.axes = list(range(1, base.num_vars))
        self._reps_cache = {}

    def _image(self, t):
        return self.base.dn_elimination(t)[0]

    def representatives(self, t):
        if t not in self._reps_cache:
            pivots = set(self._image(t).pivots())
            self._reps_cache[t] = [i for i in range(self.base.dim(t + 1))
                                   if i not in pivots]
        return self._reps_cache[t]

    def basis(self, t):
        return list(range(len(self.representatives(t))))

    def dim(self, t):
        return len(self.representatives(t))

    def partial_columns(self, axis, t):
        ech_target = self._image(t + 1)
        reps_target = {pos: i for i, pos in enumerate(self.representatives(t + 1))}
        base_cols = self.base.partial_columns(axis, t + 1)
        cols = []
        for pos in self.representatives(t):
            residual = ech_target.project(base_cols[pos])
            cols.append({reps_target[p]: c for p, c in residual.items()})
        return cols


# -- complexes -------------------------------------------------------------


@dataclass
class TruncatedComplex:
    """Explicit bases and exact differentials of a truncated de Rham complex."""

    num_vars: int
    dims: list               # per degree: space dimension
    differentials: list      # Matrix, one per degree 0..len(axes)-1
    truncation: tuple        # (N, K)
    description: str


def _forms(axes, degree):
    return list(itertools.combinations(axes, degree))


def _cell_positions(cells):
    """form -> {label position -> position of the cell (label, form)}; a
    form with no cell is absent."""
    positions = defaultdict(dict)
    for pos, (key_pos, form) in enumerate(cells):
        positions[form][key_pos] = pos
    return positions


def complex_from_family(family, truncation, description):
    """Assemble spaces and differentials on the ladder's cells; d o d = 0
    is verified exactly."""
    axes = family.axes
    cells = [family.cells(j) for j in range(len(axes) + 1)]
    dims = [len(c) for c in cells]
    differentials = []
    for j in range(len(axes)):
        target = _cell_positions(cells[j + 1])
        # per j-form: (axis, sign of dx_axis ^ dx_form, target cell rows)
        steps = {form: [(axis, -1 if sum(a < axis for a in form) % 2 else 1,
                         target.get(tuple(sorted(form + (axis,))), {}))
                        for axis in axes if axis not in form]
                 for form in _forms(axes, j)}
        partial_cols = {axis: family.partial_columns(axis, j) for axis in axes}
        cols = []
        for key_pos, form in cells[j]:
            col = {}
            # each axis lands in its own target form: no collisions
            for axis, sign, rows in steps[form]:
                for row, val in partial_cols[axis][key_pos].items():
                    col[rows[row]] = sign * val
            cols.append(col)
        differentials.append(Matrix.from_cols(cols, dims[j + 1]))
    for j in range(len(differentials) - 1):
        if not differentials[j + 1].compose(differentials[j]).is_zero():
            raise AssertionError(f"d^{j + 1} o d^{j} != 0 in {description}")
    return TruncatedComplex(num_vars=len(axes), dims=dims,
                            differentials=differentials,
                            truncation=truncation, description=description)


@dataclass
class CohomologyReport:
    """Per-degree dimensions with the truncation evidence that produced them."""

    dims: tuple
    truncation: tuple
    stabilized: tuple | None = None
    history: tuple | None = None
    deepened: tuple | None = None


def cohomology_dims(complex_):
    """dims[i] = nullity(d^i) - rank(d^{i-1}), by exact rank computation.

    d^i's echelon takes only the cells off the pivots of d^{i-1}'s
    echelon.  Those pivot rows P are cells of C^i; the cells off P and the
    image of d^{i-1} span C^i, and d^i kills that image (d o d = 0, checked
    in :func:`complex_from_family`), so the skipped columns lie in the span
    of the others and every rank is the full one.  The last differential's
    pivots feed nothing, so it is read through ``Matrix.rank``."""
    differentials = complex_.differentials
    n = len(differentials)
    ranks, skip = [], frozenset()
    for i, d in enumerate(differentials):
        if i + 1 < n:
            skip = frozenset(d.pivots(skip))
            ranks.append(len(skip))
        else:
            ranks.append(d.rank(skip))
    dims = []
    for i in range(n + 1):
        nullity = complex_.dims[i] - (ranks[i] if i < n else 0)
        image = ranks[i - 1] if i > 0 else 0
        dims.append(nullity - image)
    return CohomologyReport(dims=tuple(dims), truncation=complex_.truncation)


def _comparison_pair(module, trunc, pole, block=False):
    """(source family, target family, level column maps, deepened params).

    The stable dimensions are ranks of H(source) mapped into H(target)
    along an exact chain map between the ladder and its one-step
    deepening; the presentation picks the direction and the map.  The
    source ladder validates (N, K) before anything is deepened."""
    source = ModuleFamily(module, trunc, pole, block)
    deepened = module.deepened(trunc, pole)
    fam_src, fam_tgt, maps = module.comparison(
        source, ModuleFamily(module, *deepened, block))
    return fam_src, fam_tgt, maps, deepened


def stable_cohomology_dims(module, trunc, pole=None):
    """Dimension of the image of H(C_{N,K}) in H of a one-step deepening.

    A single truncated complex can carry classes invisible to any single
    window: for f = x1*x2 the class of dx1^dx2/f^{K+2} needs a potential
    of pole K+2, one more than the ladder provides, at every truncation.
    Comparing along a chain map between two windows removes exactly the
    classes that die deeper in the filtered union, so these are the
    dimensions a schedule can meaningfully compare.

    Both ladders are blocks: only the multidegree-0 cells of the
    presentation's weight lattice, which carry the whole image (see
    :class:`formald.modules.Localization` and
    :class:`formald.modules.Connection` for why that is exact).

    Degree i is rank [B | M ker D] - rank B: the pivots >= off of one
    untracked echelon on B and the stacked source columns (D x; M x),
    less B's rank.  The module docstring says why those pivots count
    rank [B | M ker D].  The echelon skips B's columns on the pivots of
    d_tgt^{i-2} and the source cells on the pivots of d_src^{i-1}, which
    leaves its span and so every pivot unchanged: that rests on d o d = 0,
    checked in :func:`complex_from_family`, and on M being a chain map,
    M d_src = d_tgt M (the module docstring has the argument)."""
    fam_src, fam_tgt, maps, deepened = _comparison_pair(module, trunc, pole,
                                                        block=True)
    complex_src = complex_from_family(
        fam_src, (fam_src.trunc, fam_src.pole0), module.describe())
    complex_tgt = complex_from_family(
        fam_tgt, (fam_tgt.trunc, fam_tgt.pole0), module.describe())
    top = len(fam_src.axes)
    dims = []
    # cells of C^{i-1}_tgt at the pivots of d_tgt^{i-2}, and of C^i_src at
    # the pivots of d_src^{i-1}
    skip_tgt = skip_src = frozenset()
    for i in range(top + 1):
        off = complex_src.dims[i + 1] if i < top else 0
        boundaries = complex_tgt.differentials[i - 1].cols if i else ()
        ech = ColumnEchelon({row + off: c for row, c in col.items()}
                            for j, col in enumerate(boundaries)
                            if j not in skip_tgt)
        boundary_rank = ech.rank
        skip_tgt = frozenset(row - off for row in ech.pivots())
        images = _comparison_columns(fam_src, fam_tgt, maps, i, off, skip_src)
        for pos, col in enumerate(images):
            if col is not None:
                if i < top:
                    col.update(complex_src.differentials[i].cols[pos])
                ech.add(col)
        pivots = ech.pivots()
        skip_src = frozenset(row for row in pivots if row < off)
        dims.append(len(pivots) - len(skip_src) - boundary_rank)
    return CohomologyReport(dims=tuple(dims), truncation=(trunc, pole),
                            deepened=deepened)


def _comparison_columns(fam_src, fam_tgt, maps, i, off, skip=frozenset()):
    """The comparison map M_i on degree-i cells: each source cell's image
    on the target's cells (its label's level map, on the same form), with
    every row shifted by ``off``; a cell whose position is in ``skip`` is
    not built and reads None."""
    target = _cell_positions(fam_tgt.cells(i))
    level_cols = maps(i)
    cols = []
    for pos, (key_pos, form) in enumerate(fam_src.cells(i)):
        if pos in skip:
            cols.append(None)
            continue
        rows = target.get(form, {})
        cols.append({off + rows[row]: c for row, c in level_cols[key_pos].items()})
    return cols


def stabilized_dims(module, schedule):
    """Run a schedule of (N, K) truncations; a degree is stabilized when the
    last two runs agree.  Stabilization is evidence, never a proof."""
    schedule = list(schedule)
    if len(schedule) < 2:
        raise ValueError("schedule needs at least two (N, K) steps")
    history = []
    for trunc, pole in schedule:
        report = stable_cohomology_dims(module, trunc, pole)
        history.append(((trunc, pole), report.dims))
    last, prev = history[-1][1], history[-2][1]
    stabilized = tuple(a == b for a, b in zip(last, prev))
    return CohomologyReport(dims=last, truncation=schedule[-1],
                            stabilized=stabilized, history=tuple(history))


# -- kernel / cokernel of the last derivative ------------------------------


@dataclass
class DnSubquotient:
    """A kernel or cokernel ladder presented by explicit bases."""

    family: object | None      # the kernel ladder; None for the cokernel,
                               # whose stable dims no single ladder has
    dims: tuple                # per level
    basis_texts: tuple         # level-0 basis descriptions


def kernel_of_dn(module, trunc, pole=None):
    """Exact nullspace ladder of d_n with induced x_i, d_i (i < n) actions."""
    base = ModuleFamily(module, trunc, pole)
    family = KernelFamily(base)
    dims = tuple(family.dim(t) for t in range(base.num_vars))
    texts = tuple(family.label_text(0, lab) for lab in family.basis(0))
    return DnSubquotient(family, dims, texts)


def cokernel_of_dn(module, trunc, pole=None):
    """Cokernel ladder of d_n, counted stably across a deepening.

    Raw quotients V_{t+1}/d_n(V_t) carry classes whose antiderivative
    needs one pole more than the window holds (x2^j/x1^{K+1} for the
    localization at x1); the reported dimensions count the image of the
    raw quotient inside the deepened one, and the representative labels
    are the basis elements that stay independent there.

    With a weight lattice the target's d_n columns are built only where a
    comparison column can meet them: a level-t label's column has the
    label's multidegree less W_n, and it is built only if some source
    label of level t+1 with a nonzero comparison column has that
    multidegree (the module docstring says why that is exact)."""
    fam_src, fam_tgt, maps, _ = _comparison_pair(module, trunc, pole)
    axis = module.num_vars
    if module.weight_lattice:
        strides, per_pole = _multidegree_packing(module.weight_lattice,
                                                 (fam_src, fam_tgt))
    dims = []
    texts = None
    for t in range(axis):
        comparison = maps(t + 1)
        labels = fam_tgt.basis(t)
        if module.weight_lattice:
            pole_src = fam_src.pole(t + 1) or 0
            reached = {sum(map(mul, e, strides)) - pole_src * per_pole
                       for col, (_, e) in zip(comparison, fam_src.basis(t + 1)) if col}
            # d_n x^e/f^k has the multidegree of x^(e - 1_n)/f^k
            offset = strides[-1] + (fam_tgt.pole(t) or 0) * per_pole
            labels = [(c, e) for c, e in labels
                      if sum(map(mul, e, strides)) - offset in reached]
        ech = ColumnEchelon(fam_tgt.derivative_columns(axis, t, labels))
        reps = [label for col, label in zip(comparison, fam_src.basis(t + 1))
                if ech.add(col) is None]
        dims.append(len(reps))
        if t == 0:
            texts = tuple(fam_src.label_text(1, label) for label in reps)
    return DnSubquotient(None, tuple(dims), texts or ())


def _multidegree_packing(lattice, families):
    """(strides, per_pole): the multidegree W.e - k*D of a label x^e over
    f^k of levels 0..n of the families, or of x^(e - 1_n) over it, is the
    one int sum e_j*strides_j - k*per_pole.  The weights are read in a base
    above twice any |coordinate| those can reach, so equal ints are equal
    multidegrees."""
    n = families[0].num_vars
    top = max(0, *(fam.bound(t) for fam in families for t in range(n + 1))) + 1
    poles = max(fam.pole(n) or 0 for fam in families)
    base = 2 * max(abs(c) for w, d in lattice for c in (*w, d)) * (top + poles) + 1
    powers = [base ** i for i in range(len(lattice))]
    strides = [sum(w[j] * p for (w, _), p in zip(lattice, powers)) for j in range(n)]
    return strides, sum(d * p for (_, d), p in zip(lattice, powers))


# -- long-exact-sequence consistency ---------------------------------------


@dataclass
class LesReport:
    dims_module: tuple
    dims_kernel: tuple
    dims_cokernel: tuple
    bound_ok: tuple          # per degree: dim H^i(M) <= H^i(ker) + H^{i-1}(coker)
    euler_ok: bool
    truncation: tuple

    @property
    def consistent(self):
        return self.euler_ok and all(self.bound_ok)


def les_consistency(module, trunc, pole=None):
    """Dimension constraints a long exact sequence forces on the three
    cohomologies: H^i(M) <= H^i(ker d_n) + H^{i-1}(coker d_n) and the
    Euler characteristic identity chi(M) = chi(ker) - chi(coker)."""
    base = ModuleFamily(module, trunc, pole)
    full = complex_from_family(base, (trunc, pole), module.describe())
    dims_m = cohomology_dims(full).dims
    # at n = 1 both complexes have zero axes: one space and no maps
    kernel_cx = complex_from_family(KernelFamily(base), (trunc, pole), "ker d_n")
    cokernel_cx = complex_from_family(CokernelFamily(base), (trunc, pole), "coker d_n")
    dims_k = cohomology_dims(kernel_cx).dims
    dims_c = cohomology_dims(cokernel_cx).dims

    def at(dims, i):
        return dims[i] if 0 <= i < len(dims) else 0

    bound_ok = tuple(
        dims_m[i] <= at(dims_k, i) + at(dims_c, i - 1)
        for i in range(len(dims_m)))
    chi = lambda dims: sum((-1) ** i * d for i, d in enumerate(dims))
    euler_ok = chi(dims_m) == chi(dims_k) - chi(dims_c)
    return LesReport(dims_module=dims_m, dims_kernel=dims_k,
                     dims_cokernel=dims_c, bound_ok=bound_ok,
                     euler_ok=euler_ok, truncation=(trunc, pole))
