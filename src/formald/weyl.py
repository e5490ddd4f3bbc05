"""Normal-form arithmetic for differential operators with series coefficients.

Operators live in Q[[x_1..x_n]]<d_1..d_n> with all series coefficients on
the left of the derivative monomials.  Products reduce through the
commutation rule [d_i, f] = d_i(f); the order filtration, principal
symbols and the transposition calculus on tau-operators sit on top.
``DiffOp`` shares its coefficient container with ``symbols.Symbol``
(``series.SeriesPoly``) and adds only its product, printing and actions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import ZeroOperator
from .series import Series, SeriesPoly
from .symbols import Symbol


class DiffOp(SeriesPoly):
    """A differential operator in normal form: sum_alpha c_alpha(x) d^alpha."""

    __slots__ = ()

    @classmethod
    def partial(cls, num_vars, axis, precision):
        """The operator d_axis (axis is 1-based)."""
        return cls.generator(num_vars, axis, precision)

    @property
    def order(self):
        """Maximal total derivative degree, or None for the zero operator."""
        if not self.coeffs:
            return None
        return max(sum(a) for a in self.coeffs)

    def _product(self, other):
        return op_product(self, other)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for alpha, series in self.sorted_terms():
            dnames = []
            for i, a in enumerate(alpha, start=1):
                if a == 1:
                    dnames.append(f"d{i}")
                elif a > 1:
                    dnames.append(f"d{i}^{a}")
            dmono = "*".join(dnames)
            stext = str(series)
            plain = len(series.terms) == 1 and not stext.startswith("-")
            if not dmono:
                parts.append(stext if plain else f"({stext})")
            elif stext == "1":
                parts.append(dmono)
            else:
                coeff = stext if plain else f"({stext})"
                parts.append(f"{coeff}*{dmono}")
        return " + ".join(parts)

    __repr__ = __str__

    # -- actions ----------------------------------------------------------

    def apply(self, g):
        """Apply the operator to a series; precision drops by the order."""
        self._check(g)
        order = self.order
        if order is None:
            return Series.zero(g.num_vars, g.precision)
        out = Series.zero(g.num_vars, max(g.precision - order, 0))
        for alpha, series in self.coeffs.items():
            out = out + series * g.partial_multi(alpha)
        return out

    def principal_symbol(self):
        """Top-order part with d_i replaced by the commuting generator z_i."""
        order = self.order
        if order is None:
            raise ZeroOperator("the zero operator has no principal symbol")
        top = {a: s for a, s in self.coeffs.items() if sum(a) == order}
        return Symbol(self.num_vars, top)


def op_product(a, b):
    """Normal-form product: all coefficients moved to the left.

    Uses d^alpha o (g .) = sum_{gamma <= alpha} C(alpha, gamma)
    d^{alpha-gamma}(g) d^gamma, applied termwise.
    """
    a._check(b)
    n = a.num_vars
    out = {}
    for alpha, ca in a.coeffs.items():
        for beta, cb in b.coeffs.items():
            for gamma in itertools.product(*(range(k + 1) for k in alpha)):
                binom = 1
                for ai, gi in zip(alpha, gamma):
                    binom *= math.comb(ai, gi)
                moved = tuple(ai - gi for ai, gi in zip(alpha, gamma))
                coeff = ca * cb.partial_multi(moved) * binom
                key = tuple(gi + bi for gi, bi in zip(gamma, beta))
                DiffOp._accumulate(out, key, coeff)
    return DiffOp(n, out)


def commutator(a, b):
    """[a, b] = ab - ba in normal form."""
    return op_product(a, b) - op_product(b, a)


def order_of(op):
    order = op.order
    if order is None:
        raise ZeroOperator("the zero operator has no order")
    return order


# -- the tau calculus ---------------------------------------------------


class TauOp:
    """A polynomial in tau = f*d_n with series coefficients on the left.

    The ring structure only uses the derivation rule tau(g) = f*d_n(g),
    i.e. tau*g = g*tau + tau(g); no relations among powers of a specific
    tau are detected or used.
    """

    __slots__ = ("num_vars", "coeffs", "f")

    def __init__(self, f, coeffs):
        self.num_vars = f.num_vars
        self.f = f
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        for c in coeffs:
            if c.num_vars != self.num_vars:
                raise ValueError("coefficient has wrong variable count")
        self.coeffs = tuple(coeffs)

    @classmethod
    def tau(cls, f):
        """The generator tau itself."""
        return cls(f, [Series.zero(f.num_vars, f.precision),
                       Series.one(f.num_vars, f.precision)])

    @classmethod
    def from_series(cls, f, g):
        return cls(f, [g])

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else None

    def tau_derivation(self, g):
        """tau(g) = f * d_n(g)."""
        return self.f * g.partial(self.num_vars)

    def coefficient(self, i):
        if i < len(self.coeffs):
            return self.coeffs[i]
        return Series.zero(self.num_vars, self.f.precision)

    def __add__(self, other):
        self._check(other)
        size = max(len(self.coeffs), len(other.coeffs))
        return TauOp(self.f, [self.coefficient(i) + other.coefficient(i)
                              for i in range(size)])

    def __neg__(self):
        return TauOp(self.f, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def _check(self, other):
        if not isinstance(other, TauOp):
            raise TypeError("TauOp arithmetic needs TauOp operands")
        if other.f != self.f:
            raise ValueError("tau operators over different derivations")

    def _tau_times(self, coeffs):
        """Left multiplication by tau on a coefficient list."""
        out = [Series.zero(self.num_vars, self.f.precision)
               for _ in range(len(coeffs) + 1)]
        for i, c in enumerate(coeffs):
            out[i + 1] = out[i + 1] + c
            out[i] = out[i] + self.tau_derivation(c)
        return out

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TauOp(self.f, [c * other for c in self.coeffs])
        if isinstance(other, Series):
            other = TauOp.from_series(self.f, other)
        self._check(other)
        total = [Series.zero(self.num_vars, self.f.precision)]
        shifted = list(other.coeffs)
        for i, a in enumerate(self.coeffs):
            if i > 0:
                shifted = self._tau_times(shifted)
            if a.is_zero():
                continue
            while len(total) < len(shifted):
                total.append(Series.zero(self.num_vars, self.f.precision))
            for j, b in enumerate(shifted):
                total[j] = total[j] + a * b
        return TauOp(self.f, total)

    def __eq__(self, other):
        if not isinstance(other, TauOp):
            return NotImplemented
        return self.f == other.f and self.coeffs == other.coeffs

    __hash__ = None

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            head = "" if i == 0 else ("tau" if i == 1 else f"tau^{i}")
            stext = str(c)
            if not head:
                parts.append(stext)
            elif stext == "1":
                parts.append(head)
            else:
                parts.append(f"({stext})*{head}")
        return " + ".join(parts)

    __repr__ = __str__

    def expand(self):
        """Substitute tau = f*d_n and normalize to a DiffOp."""
        n = self.num_vars
        prec = self.f.precision
        tau_op = op_product(DiffOp.from_series(self.f),
                            DiffOp.partial(n, n, prec))
        result = DiffOp.zero(n)
        power = DiffOp.from_series(Series.one(n, prec))
        for i, c in enumerate(self.coeffs):
            if i > 0:
                power = op_product(power, tau_op)
            if not c.is_zero():
                result = result + op_product(DiffOp.from_series(c), power)
        return result

    def apply(self, g):
        """Action on a series by iterating the derivation."""
        out = Series.zero(self.num_vars, g.precision)
        iterate = g
        for i, c in enumerate(self.coeffs):
            if i > 0:
                iterate = self.tau_derivation(iterate)
            if not c.is_zero():
                out = out + c * iterate
        return out

    def residue(self):
        """The class in R<tau>/tau*R<tau> under its identification with R.

        Reducing c*tau^i by tau-multiples leaves (-1)^i tau^i(c), so the
        residue of sum c_i tau^i is sum (-1)^i tau^i(c_i); for g in R and
        any S this gives residue(g*S) = S^t applied to g, the congruence
        the transposition calculus exists for."""
        out = Series.zero(self.num_vars, self.f.precision)
        for i, c in enumerate(self.coeffs):
            value = c
            for _ in range(i):
                value = self.tau_derivation(value)
            out = out + value * (-1 if i % 2 else 1)
        return out

    def transpose(self):
        """The anti-automorphism with tau -> -tau and g -> g for g in R."""
        result = [Series.zero(self.num_vars, self.f.precision)]
        for i, c in enumerate(self.coeffs):
            if c.is_zero() and i > 0:
                continue
            moved = [c]
            for _ in range(i):
                moved = self._tau_times(moved)
            sign = -1 if i % 2 else 1
            while len(result) < len(moved):
                result.append(Series.zero(self.num_vars, self.f.precision))
            for j, b in enumerate(moved):
                result[j] = result[j] + b * sign
        return TauOp(self.f, result)
