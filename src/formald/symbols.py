"""The commutative symbol calculus on the associated graded ring.

Symbols are polynomials in the commuting generators z_1..z_n (the classes
of the derivatives under the order filtration) with truncated series
coefficients.  The module provides the Poisson bracket in closed form,
truncated ideal-membership tests with three-valued verdicts, involutivity
probing, and the repeated-bracket chain probe.  ``Symbol`` shares its
coefficient container and its product with ``weyl.DiffOp``
(``series.SeriesPoly``), and adds only printing and calculus: its
generators commute with the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BoundOverflow
from .linalg import ColumnEchelon
from .series import Series, SeriesPoly, format_poly, monomials_upto

_COLUMN_GUARD = 50000

NOT_MEMBER = "NotMember_certified"
MEMBER = "MemberWitness"
INCONCLUSIVE = "Inconclusive"


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
    """Three-valued membership outcome; only NotMember is a certificate."""

    status: str
    multipliers: list | None
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
    necessary constraints certifies non-membership; feasibility produces
    multipliers valid modulo the truncation.
    """
    if x_bound < 0 or zeta_bound < 0:
        raise ValueError("bounds must be nonnegative")
    n = target.num_vars
    live = [(i, g) for i, g in enumerate(gens) if not g.is_zero()]
    precs = [g.min_precision() for _, g in live] + [target.min_precision()]
    x_used = min([x_bound] + precs)
    if x_used < 0 or (target.is_zero() and not live):
        return MembershipVerdict(INCONCLUSIVE if not target.is_zero() else MEMBER,
                                 None, x_bound, zeta_bound, max(x_used, 0))

    columns = []
    labels = []
    row_of = {}  # (x-exponent, z-exponent) -> int row, by first appearance
    for i, g in live:
        zmin = g.zeta_order()
        zmax = zeta_bound - zmin
        if zmax < 0:
            continue
        for zu in monomials_upto(n, zmax):
            for mu in monomials_upto(n, x_used):
                col = {}
                for zg, s in g.coeffs.items():
                    zrow = tuple(a + b for a, b in zip(zu, zg))
                    if sum(zrow) > zeta_bound:
                        continue
                    for eg, c in s.terms.items():
                        erow = tuple(a + b for a, b in zip(mu, eg))
                        if sum(erow) > x_used:
                            continue
                        # distinct (zg, eg) pairs give distinct rows
                        col[row_of.setdefault((erow, zrow), len(row_of))] = c
                if col:
                    columns.append(col)
                    labels.append((i, mu, zu))
                if len(columns) > _COLUMN_GUARD:
                    raise BoundOverflow("membership system exceeds the size guard")

    rhs = {}
    for z, s in target.coeffs.items():
        if sum(z) > zeta_bound:
            continue
        for e, c in s.terms.items():
            if sum(e) <= x_used:
                rhs[row_of.setdefault((e, z), len(row_of))] = c

    combo = ColumnEchelon(columns, track=True).express(rhs)
    if combo is None:
        return MembershipVerdict(NOT_MEMBER, None, x_bound, zeta_bound, x_used)
    # the labels (i, mu, zu) are distinct, so each multiplier is built once
    terms = [{} for _ in gens]
    for j, value in sorted(combo.items()):
        i, mu, zu = labels[j]
        terms[i].setdefault(zu, {})[mu] = value
    multipliers = [Symbol(n, {zu: Series(n, x_used, t) for zu, t in by_zeta.items()})
                   for by_zeta in terms]
    return MembershipVerdict(MEMBER, multipliers, x_bound, zeta_bound, x_used)


@dataclass
class InvolutivityReport:
    status: str  # "pass", "fail", or "inconclusive"
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
            elif verdict.status == INCONCLUSIVE and status == "pass":
                status = "inconclusive"
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
