"""Normal-form arithmetic for differential operators with series coefficients.

Operators live in Q[[x_1..x_n]]<d_1..d_n> with all series coefficients on
the left of the derivative monomials.  Products reduce through the
commutation rule [d_i, f] = d_i(f); the order filtration and principal
symbols sit on top.  ``DiffOp`` shares its coefficient container and its
product with ``symbols.Symbol`` (``series.SeriesPoly``) and supplies only
its commutation rule (Leibniz's, as ``_moves``), printing and actions.
"""

from __future__ import annotations

import itertools
import math
from operator import sub

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

    @staticmethod
    def _moves(alpha):
        """d^alpha o (g .) = sum_{gamma <= alpha} C(alpha, gamma)
        d^{alpha-gamma}(g) d^gamma: Leibniz's rule."""
        for gamma in itertools.product(*(range(k + 1) for k in alpha)):
            yield (gamma, tuple(map(sub, alpha, gamma)),
                   math.prod(map(math.comb, alpha, gamma)))

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
        floor = Series.zero(g.num_vars, max(g.precision - (self.order or 0), 0))
        return Series.sum_of([floor] + [series * g.partial_multi(alpha)
                                        for alpha, series in self.coeffs.items()])

    def principal_symbol(self):
        """Top-order part with d_i replaced by the commuting generator z_i.
        Tested public API; no verb calls it."""
        order = self.order
        if order is None:
            raise ZeroOperator("the zero operator has no principal symbol")
        top = {a: s for a, s in self.entries().items() if sum(a) == order}
        return Symbol(self.num_vars, top)


def op_product(a, b):
    """Normal-form product, all coefficients moved to the left: the
    container's one product, ``SeriesPoly._product``, with Leibniz's rule."""
    return a._product(b)


def commutator(a, b):
    """[a, b] = ab - ba in normal form."""
    return op_product(a, b) - op_product(b, a)

