"""One-variable operators with finite cokernel, and the multivariate
reduction producing generators of R/Delta(R) over the smaller ring.

An operator Delta = sum r_i d^i on k[[x]] is a one-variable
:class:`formald.weyl.DiffOp`, whose coefficients r_0..r_l are read through
:func:`dn_coefficients`.  For r_l != 0 the indicial data (the degree
shift s, the index set I where it is attained, the indicial polynomial P,
and the threshold t0 past which P has no integer roots) turns Delta into
an isomorphism m^t -> m^{t-s} for t >= t0.  The snake lemma then reduces
kernel and cokernel of Delta on the whole ring to a single finite matrix,
which is computed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (InsufficientPrecision, NotRegularLeadingCoefficient,
                     PreconditionViolated, ZeroOperator)
from .linalg import ColumnEchelon, Matrix, vec_add_scaled
from .series import Series, add_product, is_xn_regular, monomials_upto
from .weyl import DiffOp


def _one_var_coefficients(op):
    """(r_0..r_l) of a one-variable operator."""
    if op.num_vars != 1:
        raise ValueError("coefficients must be one-variable series")
    return dn_coefficients(op)


def _monomial_column(rs, j, out_bound):
    """Exact coefficients of Delta(x^j) up to degree out_bound, for the
    coefficients rs = (r_0..r_l) of a one-variable operator.

    Stored coefficient terms are used as exact data, so out_bound must
    stay within the coefficient precision."""
    have = min(r.precision for r in rs)
    if out_bound > have:
        raise InsufficientPrecision(
            f"need coefficients to degree {out_bound}, have {have}")
    return {deg: c for (deg,), c in _monomial_image(rs, (j,), out_bound).items()}


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


def _monomial_image(coefficients, e, trunc):
    """Exact terms of total degree <= trunc of sum_i r_i d_n^i (x^e), for
    the coefficients (r_0, r_1, ...) of an operator in the last derivative.

    Stored coefficient terms are used as exact data."""
    out = {}
    for i, r in enumerate(coefficients):
        # j(j-1)...(j-i+1), zero when j < i, and then nothing is added
        falling = math.prod(range(e[-1] - i + 1, e[-1] + 1))
        add_product(out, {e[:-1] + (e[-1] - i,): 1}, r.terms, trunc, falling)
    return out


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
    """All integer roots, by testing up to the Cauchy bound."""
    coeffs = list(poly)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) <= 1:
        return []
    lead = abs(coeffs[-1])
    bound = 1 + max(abs(c) for c in coeffs[:-1]) / lead
    limit = math.floor(bound)
    return [t for t in range(-limit, limit + 1) if _eval_poly(coeffs, t) == 0]


def indicial_data(op):
    if op.is_zero():
        raise ZeroOperator("indicial data needs a nonzero operator")
    rs = _one_var_coefficients(op)
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
    divides by P(j), which is nonzero by the threshold condition."""
    data = indicial_data(op)
    rs = _one_var_coefficients(op)
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
    matrix = _truncated_matrix(_one_var_coefficients(op), t, rows)
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
    matrix = _truncated_matrix(_one_var_coefficients(op), size, nrows)
    return nrows - matrix.rank()


# -- multivariate reduction --------------------------------------------


@dataclass
class GeneratorEvidence:
    """Generators g_j with R = sum R_{n-1} g_j + Delta(R) verified up to a
    truncation degree (never claimed beyond it)."""

    generators: tuple        # Series in n variables
    verified: bool
    degree: int
    failed_monomial: tuple | None


def dn_coefficients(op):
    """(r_0..r_l) of an operator that is polynomial in d_n; missing
    coefficients are zero at the operator's least coefficient precision."""
    n = op.num_vars
    coeffs = {}
    top = 0
    for alpha, series in op.coeffs.items():
        if any(a != 0 for a in alpha[:-1]):
            raise ValueError("operator must involve only the last derivative")
        coeffs[alpha[-1]] = series
        top = max(top, alpha[-1])
    return [coeffs.get(i, Series.zero(n, op.min_precision()))
            for i in range(top + 1)]


def cokernel_generators(op, trunc):
    """Generators of R/Delta(R) as a module over the first n-1 variables.

    Restricting every coefficient to x_1 = ... = x_{n-1} = 0 leaves a
    one-variable operator whose cokernel representatives x_n^j lift to
    generator candidates; the containment of every monomial of total
    degree <= trunc in sum R_{n-1} g_j + Delta(R) is then verified as a
    finite linear system."""
    rs = dn_coefficients(op)
    n = op.num_vars
    if not rs or rs[-1].is_zero():
        raise ZeroOperator("operator is zero to precision")
    if not is_xn_regular(rs[-1]):
        raise NotRegularLeadingCoefficient(
            "top coefficient is not regular in the last variable")

    restricted = [r.restrict_to_last() for r in rs]
    dims = finite_dims(DiffOp(1, {(i,): r for i, r in enumerate(restricted)}))
    generators = tuple(
        Series.monomial(n, (0,) * (n - 1) + (j,), trunc)
        for j in dims.representatives)

    # verification system over monomials of degree <= trunc
    shift = max((i - (q.order() or 0) for i, (r, q) in enumerate(zip(rs, restricted))
                 if not r.is_zero()), default=0)
    h_bound = trunc + max(shift, 0) + 1
    if op.min_precision() < trunc:
        raise InsufficientPrecision(
            f"coefficients known to {op.min_precision()}, need >= {trunc}")

    index = {e: i for i, e in enumerate(monomials_upto(n, trunc))}
    ech = ColumnEchelon()
    # columns from the R_{n-1}-multiples of the generators
    for gen in generators:
        gexp = next(iter(gen.terms))
        for mu in monomials_upto(n - 1, trunc):
            key = tuple(mu) + (gexp[-1],)
            if sum(key) <= trunc:
                ech.add({index[key]: Fraction(1)})
    # columns Delta(x^e) truncated to degree <= trunc
    for e in monomials_upto(n, h_bound):
        col = {index[key]: c for key, c in _monomial_image(rs, e, trunc).items()}
        if col:
            ech.add(col)

    failed = None
    for e in monomials_upto(n, trunc):
        if not ech.contains({index[e]: Fraction(1)}):
            failed = e
            break
    return GeneratorEvidence(generators=generators, verified=failed is None,
                             degree=trunc, failed_monomial=failed)
