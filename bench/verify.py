"""Answer checks, run outside the timed region.

Every job's output is compared with its entry in ``known_answers.json``.
An answer is

* ``ok`` when it matches the expectation;
* ``known-wrong`` when it differs from the expectation but equals the
  wrong value the seed is recorded to print (a known defect, still
  counted in ``wrong_ratio``);
* ``wrong`` otherwise.

``series-calculus`` inputs are random, so their answers are checked by
identities that sympy expands independently of ``formald``: the
Weierstrass identities, the closed-form Poisson bracket, operator
products applied to test monomials, and the Malgrange brute-force
oracle.  sympy is imported only here, after the timed passes.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

KNOWN_ANSWERS = Path(__file__).with_name("known_answers.json")


def load_known_answers():
    with open(KNOWN_ANSWERS, encoding="utf-8") as handle:
        return json.load(handle)


def parse_report(text):
    """The ``key: value`` lines of a CLI report as a dict."""
    report = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            report[key] = value
    return report


def check(job, output, known):
    """Classify one job's output: 'ok', 'known-wrong' or 'wrong'."""
    entry = known[job.answer]
    report = parse_report(output) if job.argv is not None else None
    try:
        got = _CHECKS[entry["check"]](job, report, output, entry)
    except Exception:  # a malformed answer is a wrong answer
        return "wrong"
    if got is True:
        return "ok"
    if got is not False and got == entry.get("seed_prints"):
        return "known-wrong"
    return "wrong"


# -- fixed corpora ----------------------------------------------------------------


def _derham_dims(job, report, output, entry):
    """True when the dims match; otherwise the printed dims, so that a
    recorded known-wrong value can be recognised."""
    values = [report[f"h{i}"].split() for i in range(len(entry["dims"]))
              if f"h{i}" in report]
    dims = [int(v[0]) for v in values]
    if entry.get("stabilized") and any(v[1:] != ["stabilized"] for v in values):
        return False
    return True if dims == entry["dims"] else dims


def _ladder_dims(job, report, output, entry):
    return report.get("dims") == ",".join(map(str, entry["dims"]))


def _les(job, report, output, entry):
    return (report.get("status") == "ok"
            and report.get("euler-ok") == "true"
            and report.get("dims-module") == ",".join(map(str, entry["dims_module"])))


def _pinned(job, report, output, entry):
    body = {k: v for k, v in report.items() if k not in ("schema", "verb")}
    return body == entry["report"]


# -- series-calculus: sympy identities --------------------------------------------


def _ring(names):
    """Sparse polynomial ring over QQ and its generators (sympy)."""
    from sympy import QQ
    from sympy.polys.rings import ring
    ring_, *gens = ring(",".join(names), QQ)
    return ring_, gens


def _names(nvars, letter="x"):
    return [f"{letter}{i}" for i in range(1, nvars + 1)]


def _poly(text, ring_):
    """Parse formald's printed grammar (``1/2*x1^2 - x2``) into ring_."""
    import sympy
    local = {str(g): sympy.Symbol(str(g)) for g in ring_.gens}
    return ring_.from_expr(sympy.sympify(text.replace("^", "**"), locals=local))


def _low(poly, nx, bound):
    """Terms whose degree in the first ``nx`` generators is <= bound."""
    return poly.ring({m: c for m, c in poly.items() if sum(m[:nx]) <= bound})


def _agree(a, b, nx, bound):
    return not _low(a - b, nx, bound)


def _xn_order(poly):
    """Least power of x_n in f(0, ..., 0, x_n); None when it vanishes."""
    powers = [m[-1] for m in poly if not any(m[:-1])]
    return min(powers) if powers else None


def _prep(job, report, output, entry):
    n = job.params["vars"]
    ring_, xs = _ring(_names(n))
    f = _poly(job.params["f"], ring_)
    d = int(report["degree"])
    unit = _poly(report["unit"], ring_)
    tail = [_poly(report[f"b{i}"], ring_) for i in range(d)]
    origin = (0,) * n
    if d != _xn_order(f) or not unit.get(origin) or any(b.get(origin) for b in tail):
        return False
    poly = xs[-1] ** d + sum((b * xs[-1] ** i for i, b in enumerate(tail)), ring_.zero)
    return _agree(unit * poly, f, n, int(report["precision"]))


def _divide(job, report, output, entry):
    n = job.params["vars"]
    ring_, xs = _ring(_names(n))
    f = _poly(job.params["f"], ring_)
    g = _poly(job.params["g"], ring_)
    d = _xn_order(f)
    if f"r{d}" in report or f"r{d - 1}" not in report:
        return False
    q = _poly(report["quotient"], ring_)
    rest = sum((_poly(report[f"r{i}"], ring_) * xs[-1] ** i for i in range(d)),
               ring_.zero)
    return _agree(g, q * f + rest, n, int(report["precision"]))


def _regularize(job, report, output, entry):
    from sympy import Matrix, Rational
    n = job.params["vars"]
    ring_, xs = _ring(_names(n))
    f = _poly(job.params["f"], ring_)
    rows = [[Rational(v) for v in report[f"row{i}"].split(",")] for i in range(n)]
    if Matrix(rows).det() == 0:
        return False
    image = [sum((c * y for c, y in zip(row, xs)), ring_.zero) for row in rows]
    return _xn_order(f.compose(list(zip(xs, image)))) == int(report["order"])


def _invert_unit(job, report, output, entry):
    n, prec = job.params["vars"], job.params["prec"]
    ring_, _ = _ring(_names(n))
    product = _poly(job.params["a"], ring_) * _poly(output, ring_)
    return _agree(product, ring_.one, n, prec)


def _exp_series(job, report, output, entry):
    from sympy import Rational
    n, prec = job.params["vars"], job.params["prec"]
    ring_, _ = _ring(_names(n))
    a = _poly(job.params["a"], ring_)
    term = total = ring_.one
    for k in range(1, prec + 1):
        term = _low(term * a, n, prec) * Rational(1, k)
        total += term
    return _agree(_poly(output, ring_), total, n, prec)


def _poisson(job, report, output, entry):
    n = job.params["vars"]
    ring_, gens = _ring(_names(n) + _names(n, "z"))
    xs, zs = gens[:n], gens[n:]
    a = _poly(job.params["left"], ring_)
    b = _poly(job.params["right"], ring_)
    closed = sum((a.diff(z) * b.diff(x) - a.diff(x) * b.diff(z)
                  for x, z in zip(xs, zs)), ring_.zero)
    got = _poly(report["bracket"], ring_)
    return _agree(got, closed, n, job.params["prec"] - 1)


def _apply_op(op, g, n):
    """Apply an operator, read as a polynomial in x and commuting d's with
    coefficients on the left (formald's normal form), to a polynomial g
    in the same ring that does not involve the d's."""
    xs = op.ring.gens[:n]
    by_alpha = {}
    for m, c in op.items():
        by_alpha.setdefault(m[n:], {})[m[:n] + (0,) * n] = c
    out = op.ring.zero
    for alpha, coeff in by_alpha.items():
        deriv = g
        for x, k in zip(xs, alpha):
            for _ in range(k):
                deriv = deriv.diff(x)
        out += op.ring(coeff) * deriv
    return out


def _operator_check(commutator):
    def check_product(job, report, output, entry):
        n = job.params["vars"]
        ring_, _ = _ring(_names(n) + _names(n, "d"))
        a = _poly(job.params["left"], ring_)
        b = _poly(job.params["right"], ring_)
        got = _poly(output, ring_)
        order_a = max(sum(m[n:]) for m in a)
        order = order_a + max(sum(m[n:]) for m in b)
        # an operator of order <= m vanishes iff it kills every monomial
        # of degree <= m; coefficients are exact up to prec - order(a)
        bound = job.params["prec"] - order_a
        for mono in itertools.product(range(order + 1), repeat=n):
            if sum(mono) > order:
                continue
            g = ring_({mono + (0,) * n: 1})
            want = _apply_op(a, _apply_op(b, g, n), n)
            if commutator:
                want -= _apply_op(b, _apply_op(a, g, n), n)
            if not _agree(_apply_op(got, g, n), want, n, bound):
                return False
        return True
    return check_product


def _involutive_pass(job, report, output, entry):
    return report.get("status") == "pass"


def _bracket_probe(job, report, output, entry):
    ring_, _ = _ring(_names(job.params["vars"]))
    order = _xn_order(_poly(job.params["f"], ring_))
    return (report.get("status") == "unit_reached"
            and report.get("step") == str(order)
            and report.get("certified-to-precision")
            == str(job.params["trunc"] - order))


def _malgrange_oracle(job, report, output, entry):
    return (report.get("status") == "ok"
            and report.get("coker-dim") == report.get("oracle-20")
            == report.get("oracle-30")
            and report.get("oracle-agrees") == "true")


_CHECKS = {
    "derham-dims": _derham_dims,
    "ladder-dims": _ladder_dims,
    "les": _les,
    "pinned": _pinned,
    "weierstrass-prep": _prep,
    "weierstrass-divide": _divide,
    "regularize": _regularize,
    "invert-unit": _invert_unit,
    "exp-series": _exp_series,
    "poisson": _poisson,
    "op-product": _operator_check(commutator=False),
    "commutator": _operator_check(commutator=True),
    "involutive-pass": _involutive_pass,
    "bracket-probe": _bracket_probe,
    "malgrange-oracle": _malgrange_oracle,
}
