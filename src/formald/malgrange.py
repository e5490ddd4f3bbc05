"""One-variable operators with finite cokernel: Malgrange's index on k[[x]],
the case n = 1 of van den Essen's theorem.

Every function here takes a one-variable :class:`formald.weyl.DiffOp`
Delta = sum r_i d^i and raises ``ValueError`` for more variables.  For
r_l != 0 the indicial data (the degree shift s, the index set I where it
is attained, the indicial polynomial P, and the threshold t0 past which P
has no integer roots) turns Delta into an isomorphism m^t -> m^{t-s} for
t >= t0.  The snake lemma then reduces kernel and cokernel of Delta on
the whole ring to a single finite matrix, which is computed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InsufficientPrecision, PreconditionViolated, ZeroOperator
from .linalg import ColumnEchelon, Matrix, scale_to_integers, vec_add_scaled
from .series import Series


def _coefficients(op):
    """(r_0..r_l) of a one-variable operator; missing coefficients are zero
    at the operator's least coefficient precision."""
    if op.num_vars != 1:
        raise ValueError("coefficients must be one-variable series")
    coeffs = {i: series for (i,), series in op.coeffs.items()}
    return [coeffs.get(i, Series.zero(1, op.min_precision()))
            for i in range(max(coeffs, default=0) + 1)]


def _monomial_column(rs, j, out_bound):
    """Exact coefficients of Delta(x^j) up to degree out_bound, for the
    coefficients rs = (r_0..r_l) of a one-variable operator.

    Stored coefficient terms are used as exact data, so out_bound must
    stay within the coefficient precision."""
    have = min(r.precision for r in rs)
    if out_bound > have:
        raise InsufficientPrecision(
            f"need coefficients to degree {out_bound}, have {have}")
    out = {}
    for i, r in enumerate(rs):
        # j(j-1)...(j-i+1), zero when j < i, and then nothing is added
        falling = math.prod(range(j - i + 1, j + 1))
        vec_add_scaled(out, {deg + j - i: c for (deg,), c in r.terms.items()
                             if deg + j - i <= out_bound}, falling)
    return out


@dataclass(frozen=True)
class IndicialData:
    """The recursion data of a one-variable operator.

    P(t) = sum_{i in I} t(t-1)...(t-i+1) * rho_i(0) with rho_i the unit
    part of r_i = x^{i-s} rho_i; P is stored by its coefficient tuple
    (low to high).  P(t) != 0 for every integer t >= t0 and t0 >= max(s, 0).
    """

    s: int
    index_set: tuple
    poly: tuple
    t0: int

    def eval(self, t):
        return _eval_poly(self.poly, t)


def _eval_poly(coeffs, t):
    """Value at t of the polynomial with coefficients low to high."""
    acc = Fraction(0)
    power = 1
    for c in coeffs:
        acc += c * power
        power *= t
    return acc


def _falling_factorial_poly(i):
    """Coefficients of t(t-1)...(t-i+1), low to high."""
    poly = [Fraction(1)]
    for step in range(i):
        shifted = [Fraction(0)] + poly            # t * poly
        scaled = [-step * c for c in poly] + [Fraction(0)]
        poly = [a + b for a, b in zip(shifted, scaled)]
    return poly


def _integer_roots(poly):
    """All integer roots: 0 if t divides P, and +-d for the divisors d of
    the integer-scaled trailing coefficient a0 of P / t^m that P vanishes
    at (rational root theorem).  Each d <= sqrt|a0| pairs with a0/d, and no
    root passes the Cauchy bound, so trial division stops at the smaller."""
    coeffs = list(poly)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    m = next((i for i, c in enumerate(coeffs) if c), 0)
    roots = [0] if m else []
    coeffs = coeffs[m:]
    if len(coeffs) > 1:
        ints, _ = scale_to_integers(dict(enumerate(coeffs)))
        a0 = abs(ints[0])
        limit = math.floor(1 + max(map(abs, coeffs[:-1])) / abs(coeffs[-1]))
        divisors = set()
        for d in range(1, min(math.isqrt(a0), limit) + 1):
            if a0 % d == 0:
                divisors.update((d, a0 // d))
        roots += [t for d in divisors for t in (-d, d)
                  if _eval_poly(coeffs, t) == 0]
    return sorted(roots)


def indicial_data(op):
    if op.is_zero():
        raise ZeroOperator("indicial data needs a nonzero operator")
    rs = _coefficients(op)
    orders = {i: r.order() for i, r in enumerate(rs) if not r.is_zero()}
    s = max(i - nu for i, nu in orders.items())
    index_set = tuple(i for i, nu in orders.items() if i - nu == s)
    size = max(index_set) + 1
    poly = [Fraction(0)] * size
    for i in index_set:
        rho0 = rs[i].terms[(orders[i],)]
        for pos, c in enumerate(_falling_factorial_poly(i)):
            poly[pos] += c * rho0
    while poly and poly[-1] == 0:
        poly.pop()
    roots = _integer_roots(poly)
    t0 = max(s, 0)
    if roots:
        t0 = max(t0, max(roots) + 1)
    return IndicialData(s=s, index_set=index_set, poly=tuple(poly), t0=t0)


def solve(op, g, t):
    """The unique f in m^t with Delta(f) = g, for t >= t0 and nu(g) >= t - s.

    Solves coefficient by coefficient from degree t upward; every step
    divides by P(j), which is nonzero by the threshold condition.  Tested
    public API; no verb calls it."""
    data = indicial_data(op)
    rs = _coefficients(op)
    if t < data.t0:
        raise PreconditionViolated(f"t = {t} is below the threshold t0 = {data.t0}")
    nu_g = g.order()
    if nu_g is not None and nu_g < t - data.s:
        raise PreconditionViolated(
            f"right-hand side has valuation {nu_g} < t - s = {t - data.s}")
    out_prec = min(g.precision, op.min_precision()) + data.s
    if out_prec < t:
        raise InsufficientPrecision("not enough precision to solve past degree t")
    residual = {e[0]: c for e, c in g.terms.items()}
    coeffs = {}
    for j in range(t, out_prec + 1):
        want = residual.get(j - data.s, Fraction(0))
        if not want:
            continue
        cj = want / data.eval(j)
        coeffs[(j,)] = cj
        vec_add_scaled(residual, _monomial_column(rs, j, out_prec - data.s), -cj)
    return Series(1, out_prec, coeffs)


@dataclass(frozen=True)
class FiniteDims:
    """Exact kernel and cokernel dimensions of Delta on k[[x]]."""

    cokernel: int
    kernel: int
    t0: int
    s: int
    representatives: tuple  # monomial degrees spanning the cokernel


def finite_dims(op):
    """The snake-lemma computation at t = t0.

    Delta restricts to an isomorphism m^{t0} -> m^{t0-s}, so kernel and
    cokernel agree with those of the induced finite map
    R/m^{t0} -> R/m^{t0-s}, read off one exact matrix."""
    data = indicial_data(op)
    t = data.t0
    rows = t - data.s
    matrix = _truncated_matrix(_coefficients(op), t, rows)
    ech = ColumnEchelon(matrix.cols)
    rank = ech.rank
    pivots = set(ech.pivots())
    reps = tuple(i for i in range(rows) if i not in pivots)
    return FiniteDims(cokernel=rows - rank, kernel=t - rank,
                      t0=t, s=data.s, representatives=reps)


def _truncated_matrix(rs, ncols, nrows):
    """Columns Delta(x^j) mod x^{nrows}, for j < ncols."""
    cols = []
    out_bound = max(nrows - 1, 0)
    for j in range(ncols):
        image = _monomial_column(rs, j, out_bound)
        cols.append({deg: c for deg, c in image.items() if deg < nrows})
    return Matrix.from_cols(cols, nrows)


def truncated_cokernel_rank(op, size):
    """Brute-force oracle: cokernel of Delta on x^{<size} mapped into
    x^{<size-s}.  Rows below size - s receive no contribution from
    excluded columns, so the count is honest and stabilizes in size."""
    data = indicial_data(op)
    nrows = size - data.s
    matrix = _truncated_matrix(_coefficients(op), size, nrows)
    return nrows - matrix.rank()
