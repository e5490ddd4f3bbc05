"""Normal-form arithmetic for differential operators with series coefficients.

Operators live in Q[[x_1..x_n]]<d_1..d_n> with all series coefficients on
the left of the derivative monomials.  Products reduce through the
commutation rule [d_i, f] = d_i(f); the order filtration and principal
symbols sit on top.  ``DiffOp`` shares its coefficient container with ``symbols.Symbol``
(``series.SeriesPoly``) and adds only its product, printing and actions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add, ge, sub

from .errors import InsufficientPrecision, ZeroOperator
from .linalg import scale_to_integers
from .series import Series, SeriesPoly, product_by
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
        """Apply the operator to a series; precision drops by the order.
        Tested public API; no verb calls it."""
        self._check(g)
        order = self.order
        if order is None:
            return Series.zero(g.num_vars, g.precision)
        out = Series.zero(g.num_vars, max(g.precision - order, 0))
        for alpha, series in self.coeffs.items():
            out = out + series * g.partial_multi(alpha)
        return out

    def principal_symbol(self):
        """Top-order part with d_i replaced by the commuting generator z_i.
        Tested public API; no verb calls it."""
        order = self.order
        if order is None:
            raise ZeroOperator("the zero operator has no principal symbol")
        top = {a: s for a, s in self.coeffs.items() if sum(a) == order}
        return Symbol(self.num_vars, top)


def op_product(a, b):
    """Normal-form product: all coefficients moved to the left.

    Uses d^alpha o (g .) = sum_{gamma <= alpha} C(alpha, gamma)
    d^{alpha-gamma}(g) d^gamma, applied termwise, on integers: a's and b's
    coefficients are scaled to integers over one denominator each.  A first
    pass fixes each output key's precision, the least over its summands of
    min(prec c_a, prec c_b - |alpha - gamma|), a summand that vanishes
    included; a second adds C(alpha, gamma)*c_a*d^(alpha-gamma)(c_b) into
    the key's integer dict, cut at that precision, through one prepared
    :func:`formald.series.product_by` per (alpha, precision).  A
    ``Fraction`` is made once per output term.
    """
    a._check(b)
    n = a.num_vars
    a_items, b_items = list(a.coeffs.items()), list(b.coeffs.items())
    *a_ints, a_den = scale_to_integers(*(s.terms for _, s in a_items))
    *b_ints, b_den = scale_to_integers(*(s.terms for _, s in b_items))
    summands = []  # (index in a, index in b, alpha - gamma, binomial, key)
    precision = {}
    for i, (alpha, ca) in enumerate(a_items):
        for gamma in itertools.product(*(range(k + 1) for k in alpha)):
            moved = tuple(map(sub, alpha, gamma))
            binom = math.prod(map(math.comb, alpha, gamma))
            for m, (beta, cb) in enumerate(b_items):
                if sum(moved) > cb.precision:
                    raise InsufficientPrecision("cannot differentiate at precision 0")
                key = tuple(map(add, gamma, beta))
                prec = min(ca.precision, cb.precision - sum(moved))
                precision[key] = min(precision.get(key, prec), prec)
                summands.append((i, m, moved, binom, key))
    out = {key: {} for key in precision}
    prepared, partials = {}, {}
    for i, m, moved, binom, key in summands:
        bound = precision[key]
        if (i, bound) not in prepared:
            prepared[i, bound] = product_by(a_ints[i], bound)
        if (m, moved) not in partials:
            partials[m, moved] = {
                tuple(map(sub, e, moved)): c * math.prod(map(math.perm, e, moved))
                for e, c in b_ints[m].items() if all(map(ge, e, moved))}
        prepared[i, bound](out[key], partials[m, moved], binom)
    den = a_den * b_den
    return DiffOp(n, {key: Series._raw(n, precision[key],
                                       {e: Fraction(v, den) for e, v in ints.items()})
                      for key, ints in out.items()})


def commutator(a, b):
    """[a, b] = ab - ba in normal form."""
    return op_product(a, b) - op_product(b, a)

