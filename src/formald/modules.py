"""Desk-scale module presentations the de Rham machinery operates on.

Two presentations: a localization R_f at a nonzero series, and a rank-r
connection given by one matrix per variable.  The ring R itself is the
rank-1 connection with zero matrices.  Elements are LocElement fractions
or tuples of series (one per component).

Each presentation gives the ladder of :mod:`formald.derham` the same
data, in ints: F, its derivatives d_j F, the matrices A_j and the
per-level growth of the bound.  A localization gives F = c*f, c the lcm
of the denominators of f's coefficients, as its ladder localizes at c*f
(R_f = R_(c*f)); zero A_j; and growth max(deg f - 1, 0), f's stored terms
being treated as an exact polynomial.  A connection gives F = L and the
A_j times L, nabla scaled by L, the lcm of the denominators of its matrix
entries; and growth -1, as its ladder truncates.  Each rescales every
level's basis by one nonzero constant, so no rank, span or nullspace
vector changes, and every ladder column is an int.

The geometry that reads the data is written once, on
:class:`ModulePresentation`: the form (F, T) of nabla_j at pole k, T =
A_j - k*d_j F on the diagonal, from which the ladder builds every shift
column (e_j*F shifted by e - 1_j plus T shifted by e); every level's
bound N + K*deg F + t*growth; the deepened truncation; the weight
lattice; and the level-0 coordinates of an element, enforcing the pole
budget K.  What stays per class: the element action (``element``,
``partial``, ``scale``) the regularity probes iterate and ``describe``;
the validated pole0 (the pole budget of R_f, the flatness and precision
of a connection); the comparison into the deepened ladder (an exact
ladder embeds by powers of c*f, a truncating one is the projection of
its deepening); and the d_n image the cover probe spans.  The ladder
holds N, K, the basis labels (component, exponent) and their text, the
weight blocks and the x_axis columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import (InsufficientPrecision, NonIntegrable, PoleBudgetExceeded,
                     PreconditionViolated, WrongVariant)
from .linalg import Matrix, scale_to_integers, vec_add_scaled
from .series import Divisor, Series, monomials_upto, product_by


def _ring_form(n):
    """The ring's (F, T) on n variables: d_j alone, F = 1 and T = 0."""
    return {(0,) * n: 1}, [[{}]]


class ModulePresentation:
    """A localization or a connection; the constructors pick the class.

    Each class sets its ladder data with :meth:`_ladder_data`.  Ladder
    methods take the :class:`formald.derham.ModuleFamily` they serve (its
    ``trunc``, ``pole0`` and cached level bases and indices), which lays
    out the ``(component, exponent)`` labels of every level in one window
    order; a connection's pole0 None reads as K = 0."""

    @staticmethod
    def structure(num_vars, precision):
        """The ring itself: the rank-1 connection whose zero matrices are
        known to the given precision."""
        zero = Series.zero(num_vars, precision)
        return Connection([[[zero]]] * num_vars)

    @staticmethod
    def localization(f):
        return Localization(f)

    @staticmethod
    def connection(matrices):
        return Connection(matrices)

    def __repr__(self):
        return f"ModulePresentation<{self.describe()}, n={self.num_vars}>"

    def _ladder_data(self, F, c, A, growth):
        """F (a nonzero term dict) and each A_j (rank x rank term dicts) in
        ints, c with F = c*f for the f an element's pole counts, and the
        per-level growth of the bound; d_j F, deg F and ord F are read off
        F."""
        self.F, self.c, self.A, self.growth = F, c, A, growth
        self.F_deg = max(map(sum, F))
        self.F_ord = min(map(sum, F))
        self.dF = [{e[:j] + (e[j] - 1,) + e[j + 1:]: v * e[j]
                    for e, v in F.items() if e[j]}
                   for j in range(self.num_vars)]
        self._powers = {}

    def _power(self, k, bound):
        """(F^k cut at ``bound``, the product by it cut there), prepared
        once per (k, bound) for both the comparison and ``embed``."""
        if (k, bound) not in self._powers:
            terms = (self._power(k - 1, bound)[1]({}, self.F) if k
                     else {(0,) * self.num_vars: 1})
            self._powers[k, bound] = terms, product_by(terms, bound)
        return self._powers[k, bound]

    def level_bound(self, ladder, t):
        """N + K*deg F + t*growth: the baseline keeps every x^e/f^k with k
        <= K and |e| <= N at the common denominator F^K, and a level grows
        by what nabla adds (deg F - 1, never below 0, for R_f, whose ladder
        cuts nothing; -1 for a connection, whose maps cut at the target
        bound)."""
        return (ladder.trunc + (ladder.pole0 or 0) * self.F_deg
                + t * self.growth)

    def ladder_form(self, axis, pole):
        """nabla_axis on x^e/F^k: (e_j x^(e-1_j) F + x^e T) / F^(k+1) with
        T = A_axis - k*d_axis F on the diagonal, in ints; F stands alone at
        k = 0.  On a localization ladder nothing is cut: both terms have
        degree <= |e| + deg f - 1 <= B_(t+1), the bound of level t+1."""
        a = self.A[axis - 1]
        if not pole:
            return self.F, a
        t = [[dict(entry) for entry in row] for row in a]
        for i, row in enumerate(t):
            vec_add_scaled(row[i], self.dF[axis - 1], -pole)
        return self.F, t

    def deepened(self, trunc, pole):
        """(N + max(deg F, 1), K + 1): one pole more and room for it; no
        pole stays none."""
        return trunc + max(self.F_deg, 1), None if pole is None else pole + 1

    @cached_property
    def weight_lattice(self):
        """Pairs (w, d): w runs over an integer basis of the weights
        {w in Q^n : w.e is the same for every e in supp F}, found as the
        nullspace of the differences e - e0, and d = w.e0; none if some
        A_j is nonzero, and the stable dims run on the whole window.  A
        constant F (R, R^r) gives the n coordinate weights of degree 0."""
        if any(entry for m in self.A for row in m for entry in row):
            return ()
        exps = list(self.F)
        e0 = exps[0]
        diffs = Matrix.from_cols(
            [{k: e[j] - e0[j] for k, e in enumerate(exps[1:]) if e[j] != e0[j]}
             for j in range(self.num_vars)], len(exps) - 1)
        lattice = []
        for vec in diffs.nullspace():
            ints, _ = scale_to_integers(vec)
            w = [ints.get(j, 0) for j in range(self.num_vars)]
            content = math.gcd(*w)
            w = tuple(c // content for c in w)
            lattice.append((w, sum(a * b for a, b in zip(w, e0))))
        return tuple(lattice)

    def embed(self, ladder, element):
        """Level-0 coordinates of an element with components g_c over f^k,
        c^k*g_c*F^(K-k) over F^K cut at the bound, and the degree the data
        is exact to; k above the budget K is an error."""
        components, k = self._parts(element)
        pole = ladder.pole(0) or 0
        if k > pole:
            raise PoleBudgetExceeded(f"pole order {k} exceeds budget {pole}")
        steps, bound, index = pole - k, ladder.bound(0), ladder.index(0)
        product = self._power(steps, bound)[1]
        vec = {}
        known = bound
        for comp, series in enumerate(components):
            for e, v in product({}, series.terms, self.c ** k).items():
                vec[index[comp, e]] = v
            known = min(known, series.precision + steps * self.F_ord)
        return vec, known


class Localization(ModulePresentation):
    """R_f with elements numerator / f^k, for every k >= 0.

    A ladder with pole K holds at level t the x^e / (c*f)^(K+t) with |e|
    <= N + K*deg f + t*max(deg f - 1, 0); the deepened ladder receives it
    by multiplying numerators by c*f.  An element g/f^k enters a ladder
    only with k <= K.  Its weight lattice is every weight f's terms are
    homogeneous for."""

    rank = 1

    def __init__(self, f):
        if f.is_zero():
            # an exact zero and a series known to no nonzero term read alike
            raise PreconditionViolated(
                "cannot localize at a series that is zero to precision")
        self.num_vars = f.num_vars
        self.f = f
        # the ladder localizes at c*f, c the lcm of f's denominators
        terms, c = scale_to_integers(f.terms)
        self._ladder_data(terms, c, [[[{}]]] * f.num_vars,
                          max(f.degree() - 1, 0))

    def describe(self):
        return f"R_loc({self.f})"

    def element(self, series, pole=0):
        return LocElement(series, pole)

    def _parts(self, element):
        return (element.numerator,), element.pole_order

    def partial(self, element, axis):
        """d(g/f^k) = (d(g) f - k g d(f)) / f^(k+1) for k >= 1, normalized."""
        g, k = element.numerator, element.pole_order
        if k == 0:
            return LocElement(g.partial(axis), 0)
        numerator = g.partial(axis) * self.f - g * self.f.partial(axis) * k
        return loc_normalize(LocElement(numerator, k + 1), self.divisor)

    @cached_property
    def divisor(self):
        """f prepared once for the divisions ``partial`` normalizes by."""
        return Divisor(self.f)

    def scale(self, element, series):
        return LocElement(series * element.numerator, element.pole_order)

    # -- ladder ------------------------------------------------------------

    def validate_ladder(self, trunc, pole):
        """The ladder's pole0: its pole budget K, which must be given."""
        if pole is None:
            raise ValueError("a localization ladder needs a pole bound")
        if pole < 0:
            raise ValueError("pole bound must be >= 0")
        return pole

    def comparison(self, fam_a, fam_b):
        """Embed the ladder into its deepening by multiplying numerators by
        c*f once per extra pole: an exact chain map, since no differential
        in either ladder truncates."""

        def maps(t):
            power, _ = self._power(fam_b.pole(t) - fam_a.pole(t), fam_b.bound(t))
            return fam_b.shift_columns(t, fam_a.basis(t), (None, [[power]]))

        return fam_a, fam_b, maps

    def dn_image_columns(self, ladder):
        """Level-0 coordinates spanning d_n(x^e / (c*f)^(K-1)) for |e| <= N +
        K*deg f, cut at the window, and the degree they are known to: the
        window at K = 1, else one below f's precision too (the d_n f term).
        Level -1's bound N + (K-1)*deg f + 1 would drop the numerators whose
        image the window truncates.  At K = 0 level 0 is the ring's window,
        and so is the image: d_n x^e for |e| <= N + 1, known to the window."""
        pole, bound, n = ladder.pole(0), ladder.bound(0), self.num_vars
        form = self.ladder_form(n, pole - 1) if pole else _ring_form(n)
        known = bound if pole <= 1 else min(bound, self.f.precision - 1)
        exps = monomials_upto(n, bound if pole else bound + 1)
        return ladder.shift_columns(0, [(0, e) for e in exps], form, n), known


class Connection(ModulePresentation):
    """A rank-r module with nabla_i = d_i + A_i acting on tuples of series.

    Ladder level t holds component tags times monomials of degree <= N - t,
    with maps truncated to the target bound (this is what keeps d o d = 0
    exact when flatness only holds to precision); the deepened ladder maps
    back onto it by truncation.  Level t's basis is L^-t times the
    unscaled one, so the comparison (between equal levels) and ``embed``
    (level 0) are as unscaled.  Its weight lattice is the coordinate
    weights when every matrix is zero, and none otherwise."""

    def __init__(self, matrices):
        matrices = tuple(tuple(tuple(row) for row in m) for m in matrices)
        num_vars = len(matrices)
        if num_vars == 0:
            raise ValueError("need one matrix per variable")
        rank = len(matrices[0])
        if rank == 0:
            raise ValueError("connection matrices must be nonempty")
        for m in matrices:
            if len(m) != rank or any(len(row) != rank for row in m):
                raise ValueError("connection matrices must be square of equal size")
            for row in m:
                for entry in row:
                    if entry.num_vars != num_vars:
                        raise ValueError("matrix entry has wrong variable count")
        self.num_vars = num_vars
        self.rank = rank
        self.matrices = matrices
        *scaled, den = scale_to_integers(*(entry.terms for entry in self._entries()))
        scaled = iter(scaled)
        self._ladder_data({(0,) * num_vars: den}, den,
                          [[[next(scaled) for _ in row] for row in m]
                           for m in matrices], -1)

    def _entries(self):
        return [entry for m in self.matrices for row in m for entry in row]

    def describe(self):
        if self.rank == 1 and all(entry.is_zero() for entry in self._entries()):
            return "R"
        return f"conn(rank {self.rank})"

    def element(self, series, pole=0):
        """A single series is an element of a rank-1 connection only, and
        a connection has no pole to put it over."""
        if self.rank != 1:
            raise WrongVariant(
                f"an element of a rank-{self.rank} connection needs "
                f"{self.rank} components, not one series")
        if pole:
            raise WrongVariant(
                f"a connection element takes no pole, got pole order {pole}")
        return (series,)

    def _parts(self, element):
        return element, 0

    def partial(self, element, axis):
        a = self.matrices[axis - 1]
        out = []
        for row in range(self.rank):
            entry = element[row].partial(axis)
            for col in range(self.rank):
                entry = entry + a[row][col] * element[col]
            out.append(entry)
        return tuple(out)

    def scale(self, element, series):
        return tuple(series * component for component in element)

    @cached_property
    def integrability(self):
        """The flatness report, computed once per presentation."""
        return check_integrability(self)

    # -- ladder ------------------------------------------------------------

    def validate_ladder(self, trunc, pole):
        """Flatness and precision for the truncation; the pole0 is None."""
        report = self.integrability
        if not report.integrable:
            i, j, row, col, entry = report.witness
            raise NonIntegrable(
                f"flatness fails at pair ({i},{j}) entry ({row},{col})")
        prec = min(entry.precision for entry in self._entries())
        if prec < trunc - 1:
            raise InsufficientPrecision(
                f"connection entries known to {prec}, need >= {trunc - 1}")

    def comparison(self, fam_a, fam_b):
        """Project the deepened ladder onto this one: truncation is a chain
        map even though the differentials themselves truncate.  Both
        ladders list a level's labels in one order, the deepened one's
        bound one higher, so this level's labels are its prefix: the
        projection keeps the first dim positions."""

        def maps(t):
            dim_a = fam_a.dim(t)
            return [{i: 1} if i < dim_a else {} for i in range(fam_b.dim(t))]

        return fam_b, fam_a, maps

    def dn_image_columns(self, ladder):
        """Level-0 coordinates spanning nabla_n of every component tag times
        every monomial up to one degree above the window: the ladder's own
        nabla_n from level -1 into level 0, known to N and to the least
        precision of A_n's entries."""
        known = min([ladder.bound(0)] + [entry.precision
                                         for row in self.matrices[-1]
                                         for entry in row])
        return ladder.partial_columns(self.num_vars, -1), known


@dataclass(frozen=True)
class LocElement:
    """numerator / f^pole_order inside a localization presentation."""

    numerator: Series
    pole_order: int

    def __str__(self):
        if self.pole_order == 0:
            return str(self.numerator)
        return f"({self.numerator}) / f^{self.pole_order}"


@dataclass(frozen=True)
class IntegrabilityReport:
    integrable: bool
    witness: tuple | None  # (axis_i, axis_j, row, col, residual series)
    precision: int


def check_integrability(module):
    """Flatness residual d_i(A_j) - d_j(A_i) + A_i A_j - A_j A_i per pair.

    Returns the first violating entry in deterministic order, or a clean
    report when the residual vanishes to precision.
    """
    if not isinstance(module, Connection):
        raise WrongVariant("integrability applies to connection presentations")
    n, r = module.num_vars, module.rank
    precision = None
    witness = None
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ai = module.matrices[i - 1]
            aj = module.matrices[j - 1]
            for row in range(r):
                for col in range(r):
                    entry = ai[row][col].partial(j) - aj[row][col].partial(i)
                    for k in range(r):
                        entry = entry + ai[row][k] * aj[k][col]
                        entry = entry - aj[row][k] * ai[k][col]
                    if precision is None or entry.precision < precision:
                        precision = entry.precision
                    if not entry.is_zero() and witness is None:
                        witness = (i, j, row, col, entry)
    return IntegrabilityReport(integrable=witness is None, witness=witness,
                               precision=precision if precision is not None else 0)


def loc_normalize(element, f):
    """Strip every f-factor of the numerator detectable at precision; f is
    a series or its prepared :class:`formald.series.Divisor`."""
    divisor = f if isinstance(f, Divisor) else Divisor(f)
    numerator, pole = element.numerator, element.pole_order
    while pole > 0:
        if numerator.is_zero():
            pole = 0
            break
        quotient = divisor.divide(numerator)
        if quotient is None:
            break
        numerator, pole = quotient, pole - 1
    return LocElement(numerator, pole)


def partial_action(module, element, axis):
    """The derivative action in the given presentation.

    Localization elements are normalized afterwards (a ladder checks the
    pole budget when they are embedded); connection elements get the
    matrix correction.
    """
    return module.partial(element, axis)


def scalar_action(module, element, series):
    """Multiplication by a ring element in the given presentation."""
    return module.scale(element, series)
