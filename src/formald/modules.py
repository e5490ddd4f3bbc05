"""Desk-scale module presentations the de Rham machinery operates on.

Two presentations: a localization R_f at a nonzero series, and a rank-r
connection given by one matrix per variable.  The ring R itself is the
rank-1 connection with zero matrices.  Elements are LocElement fractions
or tuples of series (one per component).

A presentation carries no truncation and no ladder geometry: N, K, the
basis labels (component, exponent) and their text, the weight blocks and
the x_axis columns belong to the ladder of :mod:`formald.derham`, as they
read only the lattice, the rank and the pole.  A presentation gives the
form (F, T) of nabla_j, from which the ladder builds every shift column:
e_j*F shifted by e - 1_j plus T shifted by e.  Both forms hold ints, for
rational data too: a connection gives F = L, T = L*A_j, nabla scaled by
L, the lcm of the denominators of its matrix entries; a localization
gives F = c*f, T = -k*d_j(c*f) at pole k, as its ladder localizes at c*f,
c the lcm of the denominators of f's coefficients (R_f = R_(c*f)).  Each
rescales every level's basis by one nonzero constant, so no rank, span or
nullspace vector changes, and every ladder column is an int.  It also
supplies the validated pole0, every level's bound, the comparison into a
deepened ladder, the level-0 coordinates of its elements (enforcing the
pole budget K), the d_n image the cover probe spans and the weight
lattice (empty for a non-zero connection); and the element action
(``element``, ``partial``, ``scale``) the regularity probes iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import (InsufficientPrecision, NonIntegrable, PoleBudgetExceeded,
                     PreconditionViolated, WrongVariant)
from .linalg import Matrix, scale_to_integers
from .series import Divisor, Series, monomials_upto, product_by


def _ring_form(n):
    """The ring's (F, T) on n variables: d_j alone, F = 1 and T = 0."""
    return {(0,) * n: 1}, [[{}]]


class ModulePresentation:
    """A localization or a connection; the constructors pick the class.

    Ladder methods take the :class:`formald.derham.ModuleFamily` they serve
    (its ``trunc``, ``pole0`` and cached level bases and indices), which
    lays out the ``(component, exponent)`` labels of every level in one
    window order."""

    # no weights: a stable-dims ladder of a non-zero connection is its
    # whole window
    weight_lattice = ()

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


class Localization(ModulePresentation):
    """R_f with elements numerator / f^k, for every k >= 0.

    The ladder localizes at c*f, c the lcm of the denominators of f's
    coefficients: R_f = R_(c*f), and c*f's terms are ints, so every column
    it builds is.  A ladder with pole K holds at level t the x^e /
    (c*f)^(K+t) with |e| <= N + K*deg f + t*(deg f - 1), f's stored terms
    being treated as an exact polynomial; the deepened ladder receives it
    by multiplying numerators by c*f.  An element g/f^k enters a ladder
    only with k <= K, as c^k*g*(c*f)^(K-k) over (c*f)^K.

    The weight lattice W is every weight f's terms are homogeneous for.
    The cell x^e dx_I / f^k has multidegree W.e + W.1_I - k*D, D = W.e0,
    and the stable-dims ladders keep only its multidegree-0 cells, which
    is exact on this ladder because (i) its windows are spans of monomial
    cells, (ii) d and the comparison's multiplication by f preserve
    multidegree, so the comparison splits by multidegree, and (iii) for
    the Euler field E_j of a weight with c_j != 0, iota_{E_j} of a source
    level-i cocycle's image lies in target level i-1: that level has pole
    K+i and a bound deg f + 1 above source level i's, and iota adds 1 to
    the degree.  Cartan's formula then makes the image d(iota_{E_j} of
    it)/c_j, a boundary the untruncated differential reaches.  A ladder
    that truncates f or its differentials must recheck (iii)."""

    rank = 1

    def __init__(self, f):
        if f.is_zero():
            # an exact zero and a series known to no nonzero term read alike
            raise PreconditionViolated(
                "cannot localize at a series that is zero to precision")
        self.num_vars = f.num_vars
        self.f = f
        # the ladder localizes at c*f, c the lcm of f's denominators
        self.f_terms, self.f_den = scale_to_integers(f.terms)
        self.f_deg = f.degree()
        self.f_ord = f.order()
        # the ladder copy of each d_j (c*f), read off f_terms
        self.df_terms = [{e[:j] + (e[j] - 1,) + e[j + 1:]: c * e[j]
                          for e, c in self.f_terms.items() if e[j]}
                         for j in range(self.num_vars)]
        self._powers = {}

    def _power(self, k, bound):
        """((c*f)^k cut at ``bound``, the product by it cut there),
        prepared once per (k, bound) for both the comparison and ``embed``."""
        if (k, bound) not in self._powers:
            terms = (self._power(k - 1, bound)[1]({}, self.f_terms) if k
                     else {(0,) * self.num_vars: 1})
            self._powers[k, bound] = terms, product_by(terms, bound)
        return self._powers[k, bound]

    @cached_property
    def weight_lattice(self):
        """Pairs (w, d): w runs over an integer basis of the weights
        {w in Q^n : w.e is the same for every e in supp f}, found as the
        nullspace of the differences e - e0, and d = w.e0.  The support is
        read from f_terms, the very terms the ladder multiplies by."""
        exps = list(self.f_terms)
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

    def describe(self):
        return f"R_loc({self.f})"

    def element(self, series, pole=0):
        return LocElement(series, pole)

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

    def level_bound(self, ladder, t):
        return (ladder.trunc + ladder.pole0 * self.f_deg
                + t * max(self.f_deg - 1, 0))

    def ladder_form(self, axis, pole):
        """d_axis(x^e/g^k) = (e_j x^(e-1_j) g - k x^e d_j g) / g^(k+1) for
        g = c*f: F = g and T = [[-k d_j g]], in ints, adding nothing at k = 0.

        On a ladder nothing is cut: both terms have degree <= |e| + deg f - 1
        <= B_t + max(deg f - 1, 0) = B_(t+1), the bound of level t+1."""
        df = self.df_terms[axis - 1]
        return self.f_terms, [[{e: -pole * c for e, c in df.items()} if pole else {}]]

    def deepened(self, trunc, pole):
        return trunc + max(self.f_deg, 1), pole + 1

    def comparison(self, fam_a, fam_b):
        """Embed the ladder into its deepening by multiplying numerators by
        c*f once per extra pole: an exact chain map, since no differential
        in either ladder truncates."""

        def maps(t):
            power, _ = self._power(fam_b.pole(t) - fam_a.pole(t), fam_b.bound(t))
            return fam_b.shift_columns(t, fam_a.basis(t), (None, [[power]]))

        return fam_a, fam_b, maps

    def embed(self, ladder, element):
        """Level-0 coordinates of numerator / f^k, that is of c^k *
        numerator * (c*f)^(K - k) over (c*f)^K, plus the degree the data is
        exact to; k above the budget K is an error."""
        pole = ladder.pole(0)
        if element.pole_order > pole:
            raise PoleBudgetExceeded(
                f"pole order {element.pole_order} exceeds budget {pole}")
        steps = pole - element.pole_order
        bound = ladder.bound(0)
        terms = self._power(steps, bound)[1]({}, element.numerator.terms,
                                              self.f_den ** element.pole_order)
        known = min(element.numerator.precision + steps * self.f_ord, bound)
        index = ladder.index(0)
        return {index[(0, e)]: c for e, c in terms.items()}, known

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
    back onto it by truncation.  The ladder scales nabla by L, the lcm of
    the denominators of every matrix entry: level t's basis is L^-t times
    the unscaled one, so its nabla_j is F = L, T = L*A_j in ints, and the
    comparison (between equal levels) and ``embed`` (level 0) are as
    unscaled.

    With every matrix zero (R and R^r) the weight lattice is the n
    coordinate weights, each of degree 0: the cell x^e dx_I has
    multidegree e + 1_I, and the stable-dims ladders keep only the cells
    of multidegree 0, the r cells of level 0 with e = 0 and no form.  That
    is exact on this ladder because (i) its windows are spans of monomial
    cells, (ii) d and the comparison's truncation preserve multidegree,
    and (iii) for the Euler field x_j d_j, iota of a target level-i
    cocycle lies in target level i-1: a level's bound N - t rises by one
    for each degree down, and iota adds one to |e|.  Cartan's formula then
    makes a cocycle of multidegree m with m_j != 0 the boundary
    d(iota of it)/m_j (the formal Poincare lemma)."""

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
        one = {(0,) * num_vars: den}
        self._forms = [(one, [[next(scaled) for _ in row] for row in m])
                       for m in matrices]

    def _entries(self):
        return [entry for m in self.matrices for row in m for entry in row]

    def describe(self):
        if self.rank == 1 and all(entry.is_zero() for entry in self._entries()):
            return "R"
        return f"conn(rank {self.rank})"

    @cached_property
    def weight_lattice(self):
        """The n coordinate weights, each of degree 0, when every matrix
        entry is zero; otherwise none, and the stable dims run on the whole
        window."""
        if any(not entry.is_zero() for entry in self._entries()):
            return ()
        n = self.num_vars
        return tuple((tuple(int(i == j) for i in range(n)), 0)
                     for j in range(n))

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

    def level_bound(self, ladder, t):
        return ladder.trunc - t

    def ladder_form(self, axis, pole):
        """nabla_axis = d_axis + A_axis, scaled by L: F = L and T = L*A_axis,
        in ints.  A ladder cuts each term at the target bound."""
        return self._forms[axis - 1]

    def deepened(self, trunc, pole):
        return trunc + 1, pole

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

    def embed(self, ladder, element):
        """Level-0 coordinates of a tuple element, plus the degree the data
        is exact to."""
        index = ladder.index(0)
        bound = ladder.bound(0)
        vec = {}
        known = bound
        for comp, series in enumerate(element):
            known = min(known, series.precision)
            for e, c in series.terms.items():
                if sum(e) <= bound:
                    vec[index[(comp, e)]] = c
        return vec, known

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
