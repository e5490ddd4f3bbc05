"""The commutative symbol calculus on the associated graded ring.

Symbols are polynomials in the commuting generators z_1..z_n (the classes
of the derivatives under the order filtration) with truncated series
coefficients.  The module provides the Poisson bracket in closed form,
truncated ideal-membership tests, involutivity probing, and the
repeated-bracket chain probe.  ``Symbol`` shares its coefficient
container and its product with ``weyl.DiffOp`` (``series.SeriesPoly``),
and adds only printing and calculus: its generators commute with the
coefficients.

Membership is decided by span.  The truncated system's columns are the
generators, each scaled to integers once, times the multiplier monomials,
on rows keyed by joint exponents packed into ints; one untracked echelon
decides whether the target lies in their span, and no multipliers are
solved for: the Lagrangian pair of the ``series-calculus`` workload (260
columns, 149 rows, rank 140) takes 4.0 to 4.6 ms where the tracked
Fraction system took 12.8 to 13.8 ms (the whole job, best of 20, seeds
1-3, 2-core x86 container, CPython 3.11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .errors import BoundOverflow
from .linalg import ColumnEchelon, scale_to_integers
from .series import SeriesPoly, format_poly, monomials_upto

_COLUMN_GUARD = 50000

NOT_MEMBER = "NotMember_certified"
MEMBER = "MemberWitness"


class Symbol(SeriesPoly):
    """An element of R[z_1..z_n]: dict from z-exponent to series coefficient."""

    __slots__ = ()

    @classmethod
    def zeta(cls, num_vars, axis, precision):
        """The generator z_axis (axis is 1-based)."""
        return cls.generator(num_vars, axis, precision)

    def zeta_order(self):
        if not self.coeffs:
            return None
        return min(sum(z) for z in self.coeffs)

    @property
    def constant_term(self):
        c = self.coeffs.get((0,) * self.num_vars)
        return c.constant_term if c is not None else Fraction(0)

    @staticmethod
    def _moves(alpha):
        # the z_i commute with the coefficients
        return ((alpha, (0,) * len(alpha), 1),)

    def x_partial(self, axis):
        # a floor at q is a zero known to q - 1 after the derivative
        return Symbol(self.num_vars,
                      {z: s.partial(axis) for z, s in self.entries().items()})

    def zeta_partial(self, axis):
        # z -> z - e_j is injective, so no two terms meet
        j = axis - 1
        return Symbol(self.num_vars,
                      {z[:j] + (z[j] - 1,) + z[j + 1:]: s * z[j]
                       for z, s in self.entries().items() if z[j]})

    def __str__(self):
        if not self.coeffs:
            return "0"
        n = self.num_vars
        names = [f"x{i}" for i in range(1, n + 1)] + [f"z{i}" for i in range(1, n + 1)]
        joint = {}
        for z, s in self.coeffs.items():
            for e, c in s.terms.items():
                joint[e + z] = c
        return format_poly(joint, names)

    __repr__ = __str__


def poisson_bracket(a, b):
    """{a, b} = sum_i (da/dz_i * db/dx_i - da/dx_i * db/dz_i).

    On principal symbols this closed formula agrees with the symbol of the
    commutator of lifts whenever that commutator has the expected order;
    the lift construction is kept as a test oracle only.
    """
    a._check(b)
    n = a.num_vars
    out = Symbol.zero(n)
    for i in range(1, n + 1):
        out = out + a.zeta_partial(i) * b.x_partial(i)
        out = out - a.x_partial(i) * b.zeta_partial(i)
    return out


# -- truncated ideal membership ------------------------------------------


@dataclass
class MembershipVerdict:
    """Membership outcome; only NotMember is a certificate.  MEMBER says
    the target lies in the span of the truncated system, that is, some
    multipliers give it back modulo the truncation."""

    status: str
    x_bound: int
    zeta_bound: int
    x_bound_used: int

    def __bool__(self):
        return self.status == MEMBER


def membership_truncated(target, gens, x_bound, zeta_bound):
    """Decide target in (gens) by a finite linear system.

    Multiplier coefficients range over x-degree <= x_bound and z-degree
    <= zeta_bound - (least z-degree of the generator); equations compare
    all coefficients with x-degree <= x_bound (clamped to the available
    precision) and z-degree <= zeta_bound.  Infeasibility of these
    necessary constraints certifies non-membership; feasibility means
    multipliers valid modulo the truncation exist.

    The system's columns are the truncated products m*g, one per
    generator g and multiplier monomial m, taken generator by generator,
    then z^zu in graded order, then x^mu in graded order; a row is a
    joint exponent (e, z), numbered by first appearance in that order,
    the target's new rows last.  Each generator is scaled to integers
    once, by the lcm of its denominators: a constant per generator leaves
    the span unchanged, and the echelon takes int columns as they are.
    The status is one untracked echelon's span test, which is the test
    "a tracked ``express`` finds no combination".
    """
    if x_bound < 0 or zeta_bound < 0:
        raise ValueError("bounds must be nonnegative")
    n = target.num_vars
    live = [g for g in gens if not g.is_zero()]
    precs = [g.min_precision() for g in live] + [target.min_precision()]
    x_used = min([x_bound] + precs)
    if target.is_zero() and not live:
        return MembershipVerdict(MEMBER, x_bound, zeta_bound, x_used)

    # a kept row has |e| <= x_used and |z| <= zeta_bound, so a joint
    # exponent packs into one int with no carry and a column term's row
    # key is one int addition
    base = max(x_used, zeta_bound) + 1
    x_strides = [base ** k for k in range(n)]
    z_strides = [base ** k for k in range(n, 2 * n)]
    x_monos = [(sum(map(mul, mu, x_strides)), x_used - sum(mu))
               for mu in monomials_upto(n, x_used)]
    # graded, so the monomials up to any zmax are a prefix
    z_monos = [(sum(map(mul, zu, z_strides)), sum(zu))
               for zu in monomials_upto(n, zeta_bound)]

    columns = []
    row_of = {}  # packed (x-exponent, z-exponent) -> int row, by first appearance
    for g in live:
        zmax = zeta_bound - g.zeta_order()
        if zmax < 0:
            continue
        *ints, _ = scale_to_integers(*(s.terms for s in g.coeffs.values()))
        terms = []  # (packed key, x-degree, z-degree, int coefficient) per term
        for zg, t in zip(g.coeffs, ints):
            zkey = sum(map(mul, zg, z_strides))
            terms += [(zkey + sum(map(mul, eg, x_strides)), sum(eg), sum(zg), c)
                      for eg, c in t.items()]
        for zkey, zdeg in z_monos:
            if zdeg > zmax:
                break
            zroom = zeta_bound - zdeg
            kept = [(key + zkey, xdeg, c) for key, xdeg, tz, c in terms if tz <= zroom]
            for mkey, xroom in x_monos:
                col = {}
                for key, xdeg, c in kept:
                    if xdeg <= xroom:
                        # distinct generator terms give distinct rows
                        key += mkey
                        col[row_of.setdefault(key, len(row_of))] = c
                if col:
                    columns.append(col)
                    if len(columns) > _COLUMN_GUARD:
                        raise BoundOverflow("membership system exceeds the size guard")

    rhs = {}
    for z, s in target.coeffs.items():
        if sum(z) > zeta_bound:
            continue
        zkey = sum(map(mul, z, z_strides))
        for e, c in s.terms.items():
            if sum(e) <= x_used:
                rhs[row_of.setdefault(zkey + sum(map(mul, e, x_strides)), len(row_of))] = c

    status = MEMBER if ColumnEchelon(columns).contains(rhs) else NOT_MEMBER
    return MembershipVerdict(status, x_bound, zeta_bound, x_used)


@dataclass
class InvolutivityReport:
    status: str  # "pass" or "fail"
    witness_pair: tuple | None
    witness_bracket: Symbol | None
    verdicts: list = field(default_factory=list)


def involutivity_check(gens, x_bound, zeta_bound):
    """Test every pairwise bracket for membership in the generated ideal.

    Pairs are taken as {g_j, g_i} with i < j so that the canonical failing
    pair (x_n, z_n) reports the unit bracket with positive sign.
    """
    gens = list(gens)
    verdicts = []
    status = "pass"
    witness_pair = None
    witness_bracket = None
    for j in range(len(gens)):
        for i in range(j):
            bracket = poisson_bracket(gens[j], gens[i])
            if bracket.is_zero():
                verdicts.append(((j, i), MEMBER))
                continue
            verdict = membership_truncated(bracket, gens, x_bound, zeta_bound)
            verdicts.append(((j, i), verdict.status))
            if verdict.status == NOT_MEMBER and status != "fail":
                status = "fail"
                witness_pair = (j, i)
                witness_bracket = bracket
    return InvolutivityReport(status, witness_pair, witness_bracket, verdicts)


# -- the repeated-bracket chain probe -------------------------------------


@dataclass
class ChainProbeResult:
    status: str  # "unit_reached", "stable", or "budget_exhausted"
    step: int | None
    last: Symbol | None
    certified_to_precision: int


def bracket_chain_probe(f, steps):
    """Iterate g_0 = f, g_{l+1} = {z_n, g_l} with z_n the last-variable
    symbol generator, reporting the first unit (nonzero constant term).

    For an f regular of order d in the last variable the unit appears at
    exactly step d; a chain that is zero to precision is reported stable
    and exhaustion of steps or precision is reported honestly.
    """
    n = f.num_vars
    g = Symbol.from_series(f)
    for step in range(steps + 1):
        remaining = f.precision - step
        if g.constant_term:
            return ChainProbeResult("unit_reached", step, g, remaining)
        if g.is_zero() and remaining > 0:
            # zero with coefficients still known: the chain stays zero
            return ChainProbeResult("stable", step, g, remaining)
        if step == steps or remaining < 1:
            return ChainProbeResult("budget_exhausted", step, g,
                                    max(remaining, 0))
        zeta = Symbol.zeta(n, n, remaining)
        g = poisson_bracket(zeta, g)
    raise AssertionError("unreachable")
