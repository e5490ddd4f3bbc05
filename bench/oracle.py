"""Independent ladder dimensions for the ``ladders`` known answers.

Rebuilds, with sympy polynomials, the truncation ladders documented in
``formald/derham.py`` (ring: monomials of degree <= N - t; localization
at f: x^e / f^(K+t) with |e| <= N + K*deg f + t*(deg f - 1)) and computes
every rank with sympy's ``DomainMatrix`` over QQ.  Nothing here imports
``formald``.

* kernel:   dims[t] = dim V_t - rank(d_n : V_t -> V_{t+1}), t < n;
* cokernel: dims[t] = rank([D | E]) - rank(D), where D is d_n on the
  one-step deepened ladder and E embeds level t+1 of the original ladder
  into it (counted stably, as ``cokernel_of_dn`` documents);
* les:      dims of the full truncated de Rham complex at (N, K).

``python3 bench/oracle.py`` prints the entries; the self-tests compare
them with ``known_answers.json``.
"""

from __future__ import annotations

import itertools
import json

import sympy as sp
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from workloads import LADDER_MODULES


def _monomials(nvars, bound):
    return [e for d in range(bound + 1)
            for e in itertools.product(range(d + 1), repeat=nvars)
            if sum(e) == d]


class Ladder:
    def __init__(self, module, nvars, trunc, pole):
        self.xs = sp.symbols(f"x1:{nvars + 1}")
        self.n, self.trunc = nvars, trunc
        if module == "R":
            self.f = None
        else:
            inner = module[len("R_loc("):-1].replace("^", "**")
            self.f = sp.Poly(sp.sympify(inner, locals={str(x): x for x in self.xs}),
                             *self.xs)
            self.deg = self.f.total_degree()
            self.pole0 = pole
        self._basis = {}

    def deepened(self):
        if self.f is None:
            return Ladder("R", self.n, self.trunc + 1, None)
        deeper = Ladder("R", self.n, self.trunc + max(self.deg, 1), None)
        deeper.f, deeper.deg, deeper.pole0 = self.f, self.deg, self.pole0 + 1
        return deeper

    def bound(self, t):
        if self.f is None:
            return self.trunc - t
        return self.trunc + self.pole0 * self.deg + t * max(self.deg - 1, 0)

    def basis(self, t):
        if t not in self._basis:
            monos = _monomials(self.n, self.bound(t))
            self._basis[t] = {e: i for i, e in enumerate(monos)}
        return self._basis[t]

    def _column(self, poly, t):
        index, bound = self.basis(t), self.bound(t)
        return {index[m]: c for m, c in poly.terms() if sum(m) <= bound and c}

    def partial(self, axis, t):
        """Columns of d_axis : level t -> level t+1."""
        x = self.xs[axis - 1]
        cols = []
        for e in self.basis(t):
            mono = sp.Poly(sp.Mul(*[v ** k for v, k in zip(self.xs, e)]), *self.xs)
            if self.f is None:
                image = mono.diff(x)
            else:
                k = self.pole0 + t
                image = mono.diff(x) * self.f - mono * self.f.diff(x) * k
            cols.append(self._column(image, t + 1))
        return cols

    def embed(self, other, t):
        """Columns of level t of ``self`` inside level t of the deeper ``other``."""
        cols = []
        for e in self.basis(t):
            mono = sp.Poly(sp.Mul(*[v ** k for v, k in zip(self.xs, e)]), *self.xs)
            if self.f is not None:
                mono = mono * self.f ** (other.pole0 - self.pole0)
            cols.append(other._column(mono, t))
        return cols


def rank(cols, nrows):
    rows = {}
    for j, col in enumerate(cols):
        for i, c in col.items():
            rows.setdefault(i, {})[j] = QQ(int(c.p), int(c.q))
    if not rows:
        return 0
    return DomainMatrix(rows, (nrows, len(cols)), QQ).rank()


def kernel_dims(ladder):
    return [len(ladder.basis(t)) - rank(ladder.partial(ladder.n, t),
                                        len(ladder.basis(t + 1)))
            for t in range(ladder.n)]


def cokernel_dims(ladder):
    deep = ladder.deepened()
    dims = []
    for t in range(ladder.n):
        image = deep.partial(deep.n, t)
        rows = len(deep.basis(t + 1))
        both = image + ladder.embed(deep, t + 1)
        dims.append(rank(both, rows) - rank(image, rows))
    return dims


def complex_dims(ladder):
    """Cohomology of the truncated de Rham complex V_j (x) Lambda^j."""
    axes = range(1, ladder.n + 1)
    forms = [list(itertools.combinations(axes, j)) for j in range(ladder.n + 1)]
    sizes = [len(ladder.basis(j)) * len(forms[j]) for j in range(ladder.n + 1)]
    ranks = []
    for j in range(ladder.n):
        target = {form: i for i, form in enumerate(forms[j + 1])}
        partials = {axis: ladder.partial(axis, j) for axis in axes}
        cols = []
        for pos in range(len(ladder.basis(j))):
            for form in forms[j]:
                col = {}
                for axis in axes:
                    if axis in form:
                        continue
                    sign = -1 if sum(a < axis for a in form) % 2 else 1
                    fpos = target[tuple(sorted(form + (axis,)))]
                    for row, c in partials[axis][pos].items():
                        col[row * len(forms[j + 1]) + fpos] = sign * c
                cols.append(col)
        ranks.append(rank(cols, sizes[j + 1]))
    ranks.append(0)
    return [sizes[j] - ranks[j] - (ranks[j - 1] if j else 0)
            for j in range(ladder.n + 1)]


SOURCE = "sympy DomainMatrix rank over QQ on an independently built ladder (bench/oracle.py)"


def entries():
    out = {}
    for key, module, n, trunc, pole in LADDER_MODULES:
        ladder = Ladder(module, n, trunc, pole if pole is not None else 4)
        out[f"kernel:{key}"] = {"check": "ladder-dims",
                                "dims": kernel_dims(ladder), "source": SOURCE}
        out[f"cokernel:{key}"] = {"check": "ladder-dims",
                                  "dims": cokernel_dims(ladder), "source": SOURCE}
        out[f"les:{key}"] = {
            "check": "les", "dims_module": complex_dims(ladder),
            "source": "LES dimension constraints hold: verdict ok with euler-ok true; dims-module: " + SOURCE}
    return out


if __name__ == "__main__":
    print(json.dumps(entries(), indent=1))
