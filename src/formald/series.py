"""Truncated multivariate formal power series over exact rationals.

A :class:`Series` stores the coefficients of total degree <= ``precision``
of an element of Q[[x_1..x_n]]; everything above the precision is unknown.
All arithmetic is exact on the known window and reports the precision of
its result.  Floating point is rejected everywhere.

Conventions used throughout the package:

* exponent vectors are tuples of nonnegative ints of length ``num_vars``;
* axes are 1-based, matching the printed names ``x1..xn``;
* the distinguished variable for regularity questions is always the last.

Every truncated product of exponent dicts runs through one pair loop,
:func:`packed_products`, on exponents packed into ints (Kronecker's
substitution, base bound + 1, :class:`_Packing`): a pair's key is one int
addition, and a key is unpacked once per output term.  :func:`product_by`
reads a fixed factor once and returns a ``mul`` for any other, which adds
each output term straight into the caller's dict; ``SeriesPoly._product``,
the one product of operators and symbols, packs each coefficient once per
precision and sums each output key on packed ints.  Unit inversion, the
exponential and Weierstrass division each solve x = rhs + factor*S(x), S a
truncated product by fixed shifts that raises a linear grading, through
one solver, :func:`_solve_graded`: it fixes x one grade layer at a time,
and each layer passes once through the pair loop, straight into the
pending terms.  On the ``series-calculus`` division inputs (n = 2, N = 16
and n = 3, N = 10, order 3) a solve multiplies 0.7 to 1.1 times the term
pairs of the check product q*f; it takes 0.9 to 1.4 ms, and the rest of
the division, mostly the check on integers, 0.8 to 1.7 ms (best of 30,
seeds 1-3, 2-core x86 container, CPython 3.11).

Coefficients are stored and returned as ``Fraction``, but no product runs
on them, and a ``Fraction`` is made once per coefficient a caller keeps.
``Series.__mul__`` and ``SeriesPoly._product`` split each factor once into
integer numerators over the lcm of its denominators
(:func:`formald.linalg.scale_to_integers`), run the pair loop on the
integers and make one ``Fraction`` per output term; a one-term factor
c*x^m only shifts the other's terms by m and scales them by c.
``_solve_graded`` keeps its pending terms of grade t as integers over
C*q^t, q the denominator of the step's multiplier: each shift carries the
powers of q its grade step needs, so no denominator is ever merged, and a
``Fraction`` is made once per coefficient of the solution.  Weierstrass
division checks den*(g - q*f) on integers and makes a ``Fraction`` only
for a remainder term it reports; :func:`format_poly` prints a coefficient
from its numerator and denominator, and the parser makes one ``Fraction``
per term it reads (``formald.parser``).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import add, ge, itemgetter
from operator import mul as times
from operator import sub as minus

from .errors import (
    BoundOverflow,
    InsufficientPrecision,
    NotAUnit,
    NotFoundWithinBudget,
    NotRegular,
    UnsupportedExponent,
)
from .linalg import ColumnEchelon, scale_to_integers


def as_coeff(value):
    """Coerce to Fraction; floats are rejected to keep computations exact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact rational coefficient expected, got {type(value).__name__}")


def monomials_upto(num_vars, max_degree):
    """All exponent vectors of total degree <= max_degree, graded-lex order."""
    if max_degree < 0:
        return []
    if num_vars == 0:
        return [()]
    out = []
    for deg in range(max_degree + 1):
        out.extend(monomials_of_degree(num_vars, deg))
    return out


def monomials_of_degree(num_vars, deg):
    """The exponent vectors of total degree deg (num_vars >= 1), in the
    order :func:`monomials_upto` lists them."""
    if num_vars == 1:
        return [(deg,)]
    out = []
    for first in range(deg + 1):
        for rest in monomials_of_degree(num_vars - 1, deg - first):
            out.append((first,) + rest)
    return out


def _grlex_key(exps):
    return (sum(exps), exps)


def packed_products(acc, terms, shifts, factor=1):
    """The one truncated pair loop: for each (ka, ca, room) of ``terms`` and
    each (cost, kb, cb) of ``shifts`` with cost <= room, adds factor*ca*cb
    to ``acc[ka + kb]``.  Keys are exponents packed into ints (see
    :class:`_Packing`), so a pair's key is one int addition; ``shifts`` is
    sorted by cost, so the loop leaves a term at the first shift past its
    room.  Entries that cancel stay in ``acc`` as zeros."""
    for ka, ca, room in terms:
        ca *= factor
        for cost, kb, cb in shifts:
            if cost > room:
                break
            key = ka + kb
            acc[key] = acc.get(key, 0) + ca * cb
    return acc


class _Packing(dict):
    """Kronecker's substitution below total degree bound + 1: ``powers``
    pack an exponent e into the int sum e_i*(bound+1)^i, and looking up a
    packed key gives back its exponent tuple, rebuilt once per key.  The
    packed sum of two exponents whose sum has total degree <= bound is the
    packed key of that sum, with no carry."""

    __slots__ = ("base", "powers")

    def __init__(self, num_vars, bound):
        super().__init__()
        self.base = bound + 1
        self.powers = [self.base ** i for i in range(num_vars)]

    def __missing__(self, key):
        exps, rest = [], key
        for _ in self.powers:
            rest, e = divmod(rest, self.base)
            exps.append(e)
        self[key] = exps = tuple(exps)
        return exps


def _shifts(b, powers, bound):
    """b's terms of total degree <= bound as :func:`packed_products` shifts,
    with their degrees as costs."""
    return sorted(((sum(e), sum(map(times, e, powers)), c)
                   for e, c in b.items() if sum(e) <= bound), key=itemgetter(0))


def _packed_terms(a, powers, bound):
    """a's terms of total degree <= bound as :func:`packed_products` terms,
    with room bound - |e|."""
    return [(sum(map(times, e, powers)), c, room)
            for e, c in a.items() if (room := bound - sum(e)) >= 0]


def product_by(b, bound):
    """The truncated product by a fixed factor b, which is read once:
    ``mul(out, a, factor=1)`` adds factor*a*b to the exponent dict ``out``,
    keeping the terms of total degree <= bound (an int) and dropping
    cancellations.  Inside, the pairs run through :func:`packed_products`
    on packed keys, and a key is unpacked only for a nonzero output term."""
    if bound < 0 or not b:
        return lambda out, a, factor=1: out
    packing = _Packing(len(next(iter(b))), bound)
    powers = packing.powers
    shifts = _shifts(b, powers, bound)

    def mul(out, a, factor=1):
        acc = packed_products({}, _packed_terms(a, powers, bound), shifts, factor)
        for key, v in acc.items():
            if v:
                e = packing[key]
                if e in out:
                    v += out[e]
                    if not v:
                        del out[e]
                        continue
                out[e] = v
        return out

    return mul


class Series:
    """A formal power series known exactly up to a total-degree bound.

    Instances are immutable; every operation returns a fresh value.  Two
    series are equal iff the variable count, the precision, and the stored
    terms all coincide.
    """

    __slots__ = ("num_vars", "precision", "terms")

    def __init__(self, num_vars, precision, terms=None):
        if num_vars < 0:
            raise ValueError("num_vars must be >= 0")
        if precision < 0:
            raise ValueError("precision must be >= 0")
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != num_vars:
                raise ValueError(f"exponent {exps} has wrong length for {num_vars} variables")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if sum(exps) > precision:
                raise ValueError(f"term {exps} lies beyond precision {precision}")
            coeff = as_coeff(coeff)
            if coeff:
                clean[exps] = coeff
        self.num_vars = num_vars
        self.precision = precision
        self.terms = clean

    @classmethod
    def _raw(cls, num_vars, precision, terms):
        # internal fast path: terms already validated and nonzero
        obj = object.__new__(cls)
        obj.num_vars = num_vars
        obj.precision = precision
        obj.terms = terms
        return obj

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, num_vars, precision):
        return cls._raw(num_vars, precision, {})

    @classmethod
    def constant(cls, num_vars, value, precision):
        value = as_coeff(value)
        terms = {(0,) * num_vars: value} if value else {}
        return cls._raw(num_vars, precision, terms)

    @classmethod
    def one(cls, num_vars, precision):
        return cls.constant(num_vars, 1, precision)

    @classmethod
    def variable(cls, num_vars, axis, precision):
        """The series x_axis (axis is 1-based)."""
        if not 1 <= axis <= num_vars:
            raise ValueError(f"axis {axis} out of range for {num_vars} variables")
        if precision < 1:
            raise ValueError("precision must be >= 1 to hold a variable")
        exps = tuple(1 if j == axis - 1 else 0 for j in range(num_vars))
        return cls._raw(num_vars, precision, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, num_vars, exps, precision, coeff=1):
        return cls(num_vars, precision, {tuple(exps): coeff})

    # -- basic queries ------------------------------------------------

    def is_zero(self):
        return not self.terms

    @property
    def constant_term(self):
        return self.terms.get((0,) * self.num_vars, Fraction(0))

    def is_unit(self):
        return bool(self.constant_term)

    def coefficient(self, exps):
        exps = tuple(exps)
        if sum(exps) > self.precision:
            raise InsufficientPrecision(
                f"coefficient at {exps} is beyond precision {self.precision}")
        return self.terms.get(exps, Fraction(0))

    def order(self):
        """Least total degree of a stored term, or None if zero to precision."""
        if not self.terms:
            return None
        return min(sum(e) for e in self.terms)

    def degree(self):
        """Largest total degree of a stored term (-1 when zero to precision)."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def sorted_terms(self):
        """Terms in graded-lexicographic order."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]))

    # -- structural maps ----------------------------------------------

    def truncate(self, precision):
        """Forget everything above the given (not larger) precision."""
        if precision > self.precision:
            raise InsufficientPrecision(
                f"cannot extend precision {self.precision} to {precision}")
        if precision == self.precision:
            return self
        terms = {e: c for e, c in self.terms.items() if sum(e) <= precision}
        return Series._raw(self.num_vars, precision, terms)

    def lift(self, num_vars):
        """Embed into a ring with extra trailing variables."""
        if num_vars < self.num_vars:
            raise ValueError("lift cannot drop variables")
        pad = (0,) * (num_vars - self.num_vars)
        terms = {e + pad: c for e, c in self.terms.items()}
        return Series._raw(num_vars, self.precision, terms)

    def restrict_to_last(self):
        """f(0, ..., 0, x_n) as a one-variable series."""
        terms = {}
        for e, c in self.terms.items():
            if all(v == 0 for v in e[:-1]):
                terms[(e[-1],)] = c
        return Series._raw(1, self.precision, terms)

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other):
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"mismatched variable counts: {self.num_vars} vs {other.num_vars}")

    @staticmethod
    def sum_of(summands):
        """The sum of one or more series in one pass, known to their least
        precision."""
        first, *rest = summands
        prec = min(s.precision for s in summands)
        terms = {e: c for e, c in first.terms.items() if sum(e) <= prec}
        for other in rest:
            first._check_compatible(other)
            for e, c in other.terms.items():
                if sum(e) > prec:
                    continue
                new = terms[e] + c if e in terms else c
                if new:
                    terms[e] = new
                else:
                    del terms[e]
        return Series._raw(first.num_vars, prec, terms)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Series.constant(self.num_vars, other, self.precision)
        if not isinstance(other, Series):
            return NotImplemented
        return Series.sum_of((self, other))

    __radd__ = __add__

    def __neg__(self):
        return Series._raw(self.num_vars, self.precision,
                           {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Series.constant(self.num_vars, other, self.precision)
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_coeff(other)
            if not c:
                return Series.zero(self.num_vars, self.precision)
            return Series._raw(self.num_vars, self.precision,
                               {e: v * c for e, v in self.terms.items()})
        if not isinstance(other, Series):
            return NotImplemented
        self._check_compatible(other)
        prec = min(self.precision, other.precision)
        if len(self.terms) == 1 or len(other.terms) == 1:
            mono, rest = (self, other) if len(self.terms) == 1 else (other, self)
            ((shift, c),) = mono.terms.items()
            room = prec - sum(shift)
            return Series._raw(self.num_vars, prec,
                               {tuple(map(add, shift, e)): c * v
                                for e, v in rest.terms.items() if sum(e) <= room})
        a, da = scale_to_integers(self.terms)
        b, db = scale_to_integers(other.terms)
        den = da * db
        return Series._raw(self.num_vars, prec,
                           {e: Fraction(v, den)
                            for e, v in product_by(b, prec)({}, a).items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_coeff(other)
            if not c:
                raise ZeroDivisionError("division by zero scalar")
            return self * (Fraction(1) / c)
        return NotImplemented

    def __pow__(self, exponent):
        """self^k to this precision.  A monomial's power is c^k x^(k e), or
        zero beyond the precision.  Any other series is raised by repeated
        squaring, in at most 2 log2(k) truncated products: the truncated
        product is the product of Q[x]/m^(N+1), which is associative, so the
        terms are those of k successive products."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series powers take nonnegative integer exponents")
        if len(self.terms) == 1:
            ((exps, coeff),) = self.terms.items()
            power = tuple(exponent * e for e in exps)
            terms = {power: coeff ** exponent} if sum(power) <= self.precision else {}
            return Series._raw(self.num_vars, self.precision, terms)
        result, square = Series.one(self.num_vars, self.precision), self
        while exponent:
            if exponent & 1:
                result = result * square
            exponent >>= 1
            if exponent:
                square = square * square
        return result

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.num_vars == other.num_vars
                and self.precision == other.precision
                and self.terms == other.terms)

    __hash__ = None

    def __repr__(self):
        return f"Series({self.num_vars}, N={self.precision}, {self})"

    def __str__(self):
        names = [f"x{i}" for i in range(1, self.num_vars + 1)]
        return format_poly(self.terms, names)

    # -- calculus -------------------------------------------------------

    def partial(self, axis):
        """Partial derivative with respect to x_axis; precision drops by 1."""
        if not 1 <= axis <= self.num_vars:
            raise ValueError(f"axis {axis} out of range for {self.num_vars} variables")
        if self.precision < 1:
            raise InsufficientPrecision("cannot differentiate at precision 0")
        j = axis - 1
        terms = {}
        for e, c in self.terms.items():
            if e[j] == 0:
                continue
            key = e[:j] + (e[j] - 1,) + e[j + 1:]
            terms[key] = c * e[j]
        return Series._raw(self.num_vars, self.precision - 1, terms)

    def partial_multi(self, exps):
        out = self
        for axis, k in enumerate(exps, start=1):
            for _ in range(k):
                out = out.partial(axis)
        return out


_POWER_GUARD = 50000  # coefficient pairs one SeriesPoly power may multiply


class SeriesPoly:
    """A polynomial over Q[[x_1..x_n]] in n further generators.

    ``coeffs`` maps a generator exponent tuple to its nonzero series
    coefficient.  A coefficient that vanishes to precision q, given as a
    zero series or left by a sum or a product that cancels there, is not
    stored: ``floors`` maps its key to q.  A floor never prints, but it
    enters sums, products and ``min_precision`` as the zero series it
    stands for, so a dropped key does not read as an exact zero; it takes
    no part in equality.
    Operators (generators d_i) and symbols (generators z_i) differ only in
    how a generator monomial passes a coefficient, so all else lives here:
    validation, promotion of int, Fraction and Series values, addition,
    scaling, the product and powers.  A subclass supplies its printing and
    that rule, ``_moves(alpha)``, yielding the (gamma, alpha - gamma,
    multiplier) of g^alpha*c = sum multiplier*d^(alpha-gamma)(c)*g^gamma.
    Values of different subclasses never combine or compare equal.
    """

    __slots__ = ("num_vars", "coeffs", "floors")

    def __init__(self, num_vars, coeffs=None):
        clean, floors = {}, {}
        for key, series in (coeffs or {}).items():
            key = tuple(int(k) for k in key)
            if len(key) != num_vars or any(k < 0 for k in key):
                raise ValueError(f"bad {type(self).__name__} exponent {key}")
            if series.num_vars != num_vars:
                raise ValueError("coefficient has wrong variable count")
            if series.is_zero():
                floors[key] = series.precision
            else:
                clean[key] = series
        self.num_vars = num_vars
        self.coeffs = clean
        self.floors = floors

    @classmethod
    def from_series(cls, series):
        return cls(series.num_vars, {(0,) * series.num_vars: series})

    @classmethod
    def zero(cls, num_vars):
        return cls(num_vars, {})

    @classmethod
    def generator(cls, num_vars, axis, precision):
        """The generator with exponent 1 at ``axis`` (1-based)."""
        if not 1 <= axis <= num_vars:
            raise ValueError(f"axis {axis} out of range")
        key = tuple(1 if j == axis - 1 else 0 for j in range(num_vars))
        return cls(num_vars, {key: Series.one(num_vars, precision)})

    def is_zero(self):
        return not self.coeffs

    def sorted_terms(self):
        return sorted(self.coeffs.items(), key=lambda kv: _grlex_key(kv[0]))

    def min_precision(self):
        return min([s.precision for s in self.coeffs.values()] + list(self.floors.values()),
                   default=0)

    def entries(self):
        """The coefficients, then each floor as the zero series it stands for."""
        return {**self.coeffs, **{key: Series.zero(self.num_vars, q)
                                  for key, q in self.floors.items()}}

    # -- module structure -----------------------------------------------

    def _check(self, other):
        if self.num_vars != other.num_vars:
            raise ValueError("mismatched variable counts")

    def _promote(self, value):
        """int, Fraction or Series as a value of this class, else None;
        scalars are known to this value's least coefficient precision."""
        if isinstance(value, (int, Fraction)):
            value = Series.constant(self.num_vars, value, self.min_precision())
        if isinstance(value, Series):
            return self.from_series(value)
        return value if isinstance(value, type(self)) else None

    def __add__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        self._check(other)
        coeffs = dict(self.coeffs)
        for key, series in other.coeffs.items():
            self._accumulate(coeffs, key, series)
        # a floor adds nothing but cuts the key's precision
        for key, q in [*other.floors.items(), *self.floors.items()]:
            series = coeffs.get(key, Series.zero(self.num_vars, q))
            coeffs[key] = series.truncate(min(q, series.precision))
        return type(self)(self.num_vars, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.num_vars, {k: -s for k, s in self.entries().items()})

    def __sub__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_coeff(other)
            return type(self)(self.num_vars,
                              {k: s * c for k, s in self.entries().items()})
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self._product(other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        if isinstance(other, Series):
            return self.from_series(other)._product(self)
        return NotImplemented

    def _product(self, other):
        """The normal-form product: other's coefficients moved left of
        self's generator monomials by ``_moves``, on integers over one
        denominator per side.  A first pass fixes each output key's
        precision, the least over its summands of min(prec c_a,
        prec c_b - |alpha - gamma|), a vanishing one and a floor, as its
        zero series, included, and raises ``InsufficientPrecision`` for a
        derivative c_b does not know.  A
        second adds multiplier*c_a*d^(alpha-gamma)(c_b) into the key's
        integer dict, cut at that precision, through
        :func:`packed_products` on keys packed once per precision: c_a's
        terms are the shifts, prepared once per (alpha, precision), and
        each d^(alpha-gamma)(c_b) is packed once per precision; a summand
        with no move reads c_b as it is.  Keys are unpacked, and a
        ``Fraction`` made, once per output term.  A one-term self c*x^m
        with no generator only shifts and scales other's coefficients, as
        ``Series.__mul__`` does.
        """
        self._check(other)
        n = self.num_vars
        zero = (0,) * n
        if (not self.floors and len(self.coeffs) == 1 and zero in self.coeffs
                and len(self.coeffs[zero].terms) == 1):
            c = self.coeffs[zero]
            return type(self)(n, {beta: c * cb for beta, cb in other.entries().items()})
        a_items, b_items = list(self.entries().items()), list(other.entries().items())
        *a_ints, a_den = scale_to_integers(*(s.terms for _, s in a_items))
        *b_ints, b_den = scale_to_integers(*(s.terms for _, s in b_items))
        summands = []  # (index in a, index in b, alpha - gamma, multiplier, key)
        precision = {}
        for i, (alpha, ca) in enumerate(a_items):
            for gamma, moved, multiplier in self._moves(alpha):
                for m, (beta, cb) in enumerate(b_items):
                    if sum(moved) > cb.precision:
                        raise InsufficientPrecision("cannot differentiate at precision 0")
                    key = tuple(map(add, gamma, beta))
                    prec = min(ca.precision, cb.precision - sum(moved))
                    precision[key] = min(precision.get(key, prec), prec)
                    if ca.terms and cb.terms:
                        summands.append((i, m, moved, multiplier, key))
        acc = {key: {} for key in precision}
        packings = {bound: _Packing(n, bound) for bound in set(precision.values())}
        shifts, partials = {}, {}
        for i, m, moved, multiplier, key in summands:
            bound = precision[key]
            powers = packings[bound].powers
            if (i, bound) not in shifts:
                shifts[i, bound] = _shifts(a_ints[i], powers, bound)
            if (m, moved, bound) not in partials:
                partial = b_ints[m] if not any(moved) else {
                    tuple(map(minus, e, moved)): c * math.prod(map(math.perm, e, moved))
                    for e, c in b_ints[m].items() if all(map(ge, e, moved))}
                partials[m, moved, bound] = _packed_terms(partial, powers, bound)
            packed_products(acc[key], partials[m, moved, bound], shifts[i, bound], multiplier)
        den = a_den * b_den
        coeffs = {}
        for key, ints in acc.items():
            unpack = packings[precision[key]]
            coeffs[key] = Series._raw(n, precision[key], {unpack[k]: Fraction(v, den)
                                                          for k, v in ints.items() if v})
        return type(self)(n, coeffs)

    def __pow__(self, exponent):
        """self^k by k successive products.  Once the coefficient pairs they
        multiply, len(result.coeffs) * len(self.coeffs) each, would pass
        ``_POWER_GUARD`` (50,000), it raises ``BoundOverflow``: (1+z1)^223
        answers and (1+z1)^224 raises."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"{type(self).__name__} powers take nonnegative "
                             "integer exponents")
        result = self.from_series(Series.one(self.num_vars, self.min_precision()))
        pairs = 0
        for _ in range(exponent):
            pairs += len(result.coeffs) * len(self.coeffs)
            if pairs > _POWER_GUARD:
                raise BoundOverflow(f"{type(self).__name__} power exceeds the "
                                    "size guard")
            result = result._product(self)
        return result

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.num_vars == other.num_vars and self.coeffs == other.coeffs

    __hash__ = None

    @staticmethod
    def _accumulate(coeffs, key, series):
        """coeffs[key] += series.  A summand that vanishes to precision is
        kept, since it still bounds the precision of the sum; the
        constructor keeps the precision of a sum that vanishes as a floor."""
        coeffs[key] = coeffs[key] + series if key in coeffs else series


def format_poly(terms, names):
    """Canonical graded-lex rendering of an exponent->Fraction mapping.

    The output reparses under the expression grammar: ``1/2*x1^2 - x2``.
    A coefficient is printed from its numerator and denominator ints, and
    one past ``sys.get_int_max_str_digits()`` digits raises BoundOverflow,
    as Python will not convert it.
    """
    if not terms:
        return "0"
    parts = []
    for exps, coeff in sorted(terms.items(), key=lambda kv: _grlex_key(kv[0])):
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        num, den = coeff.numerator, coeff.denominator
        positive = num > 0
        if not positive:
            num = -num
        if mono and num == den == 1:
            body = mono
        else:
            try:
                text = f"{num}/{den}" if den != 1 else f"{num}"
            except ValueError:
                raise BoundOverflow(
                    f"a coefficient has more than {sys.get_int_max_str_digits()} "
                    "digits to print") from None
            body = f"{text}*{mono}" if mono else text
        if not parts:
            parts.append(body if positive else f"-{body}")
        else:
            parts.append(f"+ {body}" if positive else f"- {body}")
    return " ".join(parts)


# -- units, exponentials, coefficient extraction -----------------------


def _solve_graded(rhs, shifts, factor, bound, weight=1, divide_by_grade=False):
    """The x with x = rhs + factor*S(x), as an exponent -> Fraction dict.

    S is the truncated product by the shifts: each (cost, s, c), c an int,
    adds c*x^(e+s) for each term x^e of x with e + s >= 0 and |e| + cost <=
    bound; only the last entry of s may be negative.  The grade of x^e is
    weight*|e| - (weight-1)*e_n, and each shift must raise it by at least
    1, so x is fixed one grade layer at a time, up to weight*bound.  With
    ``divide_by_grade``, the layer of grade t >= 1 is divided by t.

    Pending terms wait in one dict on packed keys (:class:`_Packing`): at
    grade t they are integers over C*q^t, q the denominator of ``factor``
    and C the lcm of rhs's denominators, times (weight*bound)! with
    ``divide_by_grade``, whose division by t must then be exact (for
    E = exp(a), den^t*t!*E_t is an integer, den that of a).  A shift that
    raises the grade by delta carries factor's numerator and q^(delta-1),
    so each layer passes once through :func:`packed_products`, straight
    into the pending dict: no image is regrouped by grade and no
    denominator is merged.  Shifts that need e_n >= k (s_n = -k) are kept
    on one list per k, and a term takes the list of its e_n, so no pair
    leaves the monomials (its packed key would be negative).  A layer is
    popped by enumerating its monomials, and its keys are unpacked only as
    it is written to x.  The step's cost: see the module docstring.
    """
    num_vars = len(next(iter(rhs), ()))
    if not num_vars:
        return dict(rhs)
    powers = _Packing(num_vars, bound).powers
    p, q = factor.numerator, factor.denominator
    top = weight * bound

    def grade(e):
        return weight * sum(e) - (weight - 1) * e[-1]

    shifts = sorted(((cost, sum(map(times, s, powers)), c * p * q ** (grade(s) - 1), -s[-1])
                     for cost, s, c in shifts), key=itemgetter(0))
    needs = max([0] + [need for *_, need in shifts])
    by_need = [[(cost, kb, cb) for cost, kb, cb, need in shifts if need <= k]
               for k in range(needs + 1)]
    heads = [[] for _ in range(bound + 1)]  # the x_1..x_{n-1} parts, by degree
    for head in monomials_upto(num_vars - 1, bound):
        heads[sum(head)].append((sum(map(times, head, powers)), head))

    rhs, den = scale_to_integers(rhs)
    scale = math.factorial(top) if divide_by_grade else 1
    pending = {sum(map(times, e, powers)): v * scale * q ** grade(e) for e, v in rhs.items()}
    scale *= den  # C*q^t at grade t
    x = {}
    for t in range(top + 1):
        if not pending:
            break
        layer = {}  # need -> packed terms
        # x^e has e_n = t - weight*|head| and |e| <= bound
        low = -((bound - t) // (weight - 1)) if t > bound else 0
        for a in range(low, t // weight + 1):
            e_n = t - weight * a
            for key, head in heads[a]:
                key += e_n * powers[-1]
                v = pending.pop(key, 0)
                if v:
                    if divide_by_grade and t:
                        v //= t
                    x[head + (e_n,)] = Fraction(v, scale)
                    layer.setdefault(min(e_n, needs), []).append((key, v, bound - a - e_n))
        for k, terms in layer.items():
            packed_products(pending, terms, by_need[k])
        scale *= q
    return x


def invert_unit(a):
    """Multiplicative inverse of a unit, exact to a's precision.

    b = 1/c0 + e*b with e = 1 - a/c0 in the maximal ideal, graded by total
    degree.
    """
    c0 = a.constant_term
    if not c0:
        raise NotAUnit("series has zero constant term")
    n, prec = a.num_vars, a.precision
    inv = 1 / c0
    rest, den = scale_to_integers({e: c for e, c in a.terms.items() if any(e)})
    return Series._raw(n, prec, _solve_graded(
        {(0,) * n: inv}, [(sum(e), e, c) for e, c in rest.items()], -inv / den, prec))


def exp_series(a):
    """exp(a) for a series with zero constant term, truncated at a's precision.

    With the Euler operator theta = sum x_i d_i, E = exp(a) solves
    theta(E) = theta(a)*E, so its degree-k layer is (1/k)[theta(a)*E]_k.
    """
    if a.constant_term:
        raise UnsupportedExponent("exp needs a zero constant term")
    n, prec = a.num_vars, a.precision
    theta_a, den = scale_to_integers({e: c * sum(e) for e, c in a.terms.items()})
    return Series._raw(n, prec, _solve_graded(
        {(0,) * n: Fraction(1)}, [(sum(e), e, c) for e, c in theta_a.items()],
        Fraction(1, den), prec, divide_by_grade=True))


def xn_coefficient(f, j):
    """The coefficient of x_n^j, as a series in the first n-1 variables.

    Known to precision prec(f) - j; beyond the precision the zero series
    with precision 0 is returned.
    """
    if j < 0:
        raise ValueError("coefficient index must be >= 0")
    n = f.num_vars
    prec = f.precision - j
    if prec < 0:
        return Series.zero(n - 1, 0)
    terms = {}
    for e, c in f.terms.items():
        if e[-1] == j and sum(e) - j <= prec:
            terms[e[:-1]] = c
    return Series._raw(n - 1, prec, terms)


@dataclass(frozen=True)
class XnRegularity:
    """Outcome of the last-variable regularity test.

    ``order`` is the least d with a nonzero x_n^d term on the axis
    x_1 = ... = x_{n-1} = 0, or None when the restriction vanishes to the
    stated precision (a precision-relative answer, not a certificate).
    """

    order: int | None
    certified_to_precision: int

    def __bool__(self):
        return self.order is not None


def is_xn_regular(f):
    restriction = f.restrict_to_last()
    order = None
    if restriction.terms:
        order = min(e[0] for e in restriction.terms)
    return XnRegularity(order=order, certified_to_precision=f.precision)


# -- Weierstrass division and preparation ------------------------------


def weierstrass_divide(g, f):
    """Divide g by an x_n-regular f: g = q*f + sum_{i<d} r_i*x_n^i.

    Split f = f_low + x_n^d*f_high, where f_high is a unit with constant
    term c, and let T take the x_n^d-quotient.  At window precision N the
    quotient is the unique solution of q*f_high + T(q*f_low) = T(g), all
    truncated at total degree N.  Weighting x_1..x_{n-1} by d+1 and x_n by
    1, both q -> (f_high - c)*q and q -> T(q*f_low) raise the weight, so q
    = (1/c)*(T(g) - (f_high - c)*q - T(q*f_low)) is solved layer by layer
    in weight up to (d+1)*N.

    Returns (q, [r_0..r_{d-1}]) with the r_i in n-1 variables; outputs are
    reported at the conservative precision N - d.  The remainder is formed
    as den*(g - q*f) on integers, den the product of the lcms of g's, q's
    and f's denominators, through :func:`product_by`; a term of x_n-degree
    >= d is an ``AssertionError``, and a ``Fraction`` is made only for a
    term of r_i of degree <= N - d.
    """
    if g.num_vars != f.num_vars:
        raise ValueError("mismatched variable counts")
    reg = is_xn_regular(f)
    if reg.order is None:
        raise NotRegular(
            f"divisor is not regular in the last variable to precision {f.precision}")
    d = reg.order
    window = min(g.precision, f.precision)
    if window < d:
        raise InsufficientPrecision(
            f"precision {window} is below the regularity order {d}")
    g = g.truncate(window)
    f = f.truncate(window)
    # (f_high - c)*q + T(q*f_low) is the one product T(q*(f - c*x_n^d)):
    # each term x^e of f but the lead shifts q by e - d*e_n.  A pair with
    # an f_high term (e_n >= d) is kept within total degree window, one
    # with an f_low term within window before T lowers it by d, so the
    # truncated system is the one above
    n = f.num_vars
    lead = (0,) * (n - 1) + (d,)
    inv = 1 / f.terms[lead]
    f_ints, f_den = scale_to_integers(f.terms)
    shifts = [(sum(e) - d if e[-1] >= d else sum(e), e[:-1] + (e[-1] - d,), c)
              for e, c in f_ints.items() if e != lead]
    rhs = {e[:-1] + (e[-1] - d,): c * inv for e, c in g.terms.items() if e[-1] >= d}
    q = _solve_graded(rhs, shifts, -inv / f_den, window, weight=d + 1)
    # the remainder check on integers: den*(g - q*f), den = g_den*q_den*f_den
    g_ints, g_den = scale_to_integers(g.terms)
    q_ints, q_den = scale_to_integers(q)
    remainder = product_by(f_ints, window)(
        {e: c * q_den * f_den for e, c in g_ints.items()}, q_ints, -g_den)
    if any(e[-1] >= d for e in remainder):
        raise AssertionError("Weierstrass remainder has a term of x_n-degree >= d")
    out_prec = window - d
    den = g_den * q_den * f_den
    r_out = [{} for _ in range(d)]
    for e, v in remainder.items():
        if sum(e) - e[-1] <= out_prec:
            r_out[e[-1]][e[:-1]] = Fraction(v, den)
    return (Series._raw(n, out_prec, {e: c for e, c in q.items() if sum(e) <= out_prec}),
            [Series._raw(n - 1, out_prec, r) for r in r_out])


@dataclass(frozen=True)
class WeierstrassForm:
    """f = unit * (x_n^d + tail[d-1]*x_n^{d-1} + ... + tail[0]).

    The tail entries are series in the first n-1 variables with zero
    constant term; ``precision`` is the reported output precision.
    """

    unit: Series
    degree: int
    tail: tuple
    precision: int

    def reconstruct(self):
        """unit * (x_n^d + sum tail_i x_n^i) at the stated precision.
        Tested public API; no verb calls it."""
        n, prec = self.unit.num_vars, self.precision
        poly = {e + (i,): c for i, b in enumerate(self.tail)
                for e, c in b.terms.items() if sum(e) + i <= prec}
        if self.degree <= prec:
            poly[(0,) * (n - 1) + (self.degree,)] = Fraction(1)
        return self.unit * Series._raw(n, prec, poly)


def weierstrass_prepare(f):
    """Weierstrass preparation of an x_n-regular series.

    Divides x_n^d by f; the quotient is a unit u^{-1} and the remainder
    gives the negated tail of the distinguished polynomial.
    """
    reg = is_xn_regular(f)
    if reg.order is None:
        raise NotRegular(
            f"series is not regular in the last variable to precision {f.precision}")
    d = reg.order
    if f.precision < d:
        raise InsufficientPrecision(
            f"precision {f.precision} is below the regularity order {d}")
    n = f.num_vars
    xnd = Series.monomial(n, (0,) * (n - 1) + (d,), f.precision)
    q, r = weierstrass_divide(xnd, f)
    unit = invert_unit(q)
    tail = tuple(-ri for ri in r)
    for b in tail:
        if b.constant_term:
            raise AssertionError("tail entry with nonzero constant term")
    return WeierstrassForm(unit=unit, degree=d, tail=tail,
                           precision=f.precision - d)


# -- linear coordinate changes -----------------------------------------


class LinearSubstitution:
    """An invertible linear change of coordinates x_i -> sum_j c_ij x_j."""

    __slots__ = ("num_vars", "rows", "_columns")

    def __init__(self, rows):
        rows = tuple(tuple(as_coeff(v) for v in row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("substitution matrix must be square")
        self.num_vars = n
        self.rows = rows
        self._columns = ColumnEchelon(
            ({i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(n)),
            track=True)
        if self._columns.rank < n:
            raise ValueError("substitution matrix is singular")

    @classmethod
    def identity(cls, num_vars):
        return cls([[1 if i == j else 0 for j in range(num_vars)]
                    for i in range(num_vars)])

    @classmethod
    def permutation(cls, images):
        """x_i -> x_{images[i]+1} for a permutation of 0..n-1."""
        n = len(images)
        return cls([[1 if j == images[i] else 0 for j in range(n)]
                    for i in range(n)])

    @classmethod
    def shear_last(cls, coeffs):
        """x_i -> x_i + c_i*x_n for i < n; x_n fixed."""
        n = len(coeffs) + 1
        rows = [[0] * n for _ in range(n)]
        for i, c in enumerate(coeffs):
            rows[i][i] = 1
            rows[i][n - 1] = c
        rows[n - 1][n - 1] = 1
        return cls(rows)

    def inverse(self):
        # column j of the inverse solves rows * x = e_j
        n = self.num_vars
        cols = [self._columns.express({j: Fraction(1)}) for j in range(n)]
        return LinearSubstitution([[cols[j].get(i, 0) for j in range(n)]
                                   for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, LinearSubstitution) and self.rows == other.rows

    __hash__ = None

    def __repr__(self):
        body = "; ".join(",".join(str(v) for v in row) for row in self.rows)
        return f"LinearSubstitution[{body}]"


def apply_linear_substitution(f, sub):
    """Exact substitution f(L x); precision is preserved.  Each power
    (L x)_i^k is formed once, a term is multiplied only by the powers it
    has, and the terms are added in one sum."""
    if f.num_vars != sub.num_vars:
        raise ValueError("mismatched variable counts")
    n, prec = f.num_vars, f.precision
    powers = []  # powers[i][k] = (L x)_i^k, grown as the terms need them
    for row in sub.rows:
        image = {tuple(int(k == j) for k in range(n)): c for j, c in enumerate(row) if c}
        powers.append([Series.one(n, prec), Series._raw(n, prec, image)])
    summands = [Series.zero(n, prec)]
    for exps, coeff in f.sorted_terms():
        term = Series.constant(n, coeff, prec)
        for power, e in zip(powers, exps):
            if e:
                while len(power) <= e:
                    power.append(power[-1] * power[1])
                term = term * power[e]
        summands.append(term)
    return Series.sum_of(summands)


_SHEAR_BOUND = 4  # largest max|c_i| of the tried shears x_i -> x_i + c_i*x_n


def find_regularizing_substitution(f):
    """A deterministic search for L making f regular in the last variable.

    Tries the identity, then coordinate permutations in itertools order,
    then shears x_i -> x_i + c_i*x_n with integer c enumerated by rising
    max|c_i| (and product order inside each shell).  Returns (L, order).
    """
    if f.is_zero():
        raise NotFoundWithinBudget("series is zero to precision")
    n = f.num_vars

    def candidates():
        yield LinearSubstitution.identity(n)
        for perm in itertools.permutations(range(n)):
            if perm != tuple(range(n)):
                yield LinearSubstitution.permutation(perm)
        if n > 1:
            for bound in range(1, _SHEAR_BOUND + 1):
                for coeffs in itertools.product(range(-bound, bound + 1),
                                                repeat=n - 1):
                    if max(abs(c) for c in coeffs) == bound:
                        yield LinearSubstitution.shear_last(coeffs)

    for sub in candidates():
        reg = is_xn_regular(apply_linear_substitution(f, sub))
        if reg.order is not None:
            return sub, reg.order
    raise NotFoundWithinBudget(
        f"no regularizing substitution with shear bound {_SHEAR_BOUND}")


class Divisor:
    """f prepared for repeated exact division (:meth:`divide`).

    A non-unit f is made regular in the last variable once, on the first
    division that needs it: the deterministic substitution L
    (:func:`find_regularizing_substitution`), f(L x) and L's inverse are
    kept, so a caller dividing many series by one f searches once.  An f
    that no substitution within the search budget makes regular divides
    nothing."""

    def __init__(self, f):
        self.f = f

    @cached_property
    def _regular(self):
        """(L, f(L x), L^-1), L None for an x_n-regular f; None if the
        search finds no L."""
        f = self.f
        if is_xn_regular(f):
            return None, f, None
        try:
            sub, _ = find_regularizing_substitution(f)
        except NotFoundWithinBudget:
            return None
        return sub, apply_linear_substitution(f, sub), sub.inverse()

    def divide(self, g):
        """Exact quotient q with g = q*f detectable at truncation, else
        None: a unit divides directly; otherwise Weierstrass division of
        g(L x) by f(L x) decides divisibility (zero remainder at the output
        precision), and the quotient is taken back through L^-1."""
        f = self.f
        if f.is_zero():
            raise ValueError("division by a series that is zero to precision")
        if f.num_vars != g.num_vars:
            raise ValueError("mismatched variable counts")
        if f.is_unit():
            prec = min(f.precision, g.precision)
            return invert_unit(f.truncate(prec)) * g.truncate(prec)
        if self._regular is None:
            return None
        sub, ff, inverse = self._regular
        if sub is not None:
            g = apply_linear_substitution(g, sub)
        q, r = weierstrass_divide(g, ff)
        if any(not ri.is_zero() for ri in r):
            return None
        return q if sub is None else apply_linear_substitution(q, inverse)


def try_divide(g, f):
    """Exact quotient q with g = q*f detectable at truncation, else None
    (:meth:`Divisor.divide`, f prepared for this one call)."""
    return Divisor(f).divide(g)
