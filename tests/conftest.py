"""Shared helpers for the test suite: seeded random generators and
precision-aware comparisons."""

from fractions import Fraction

from formald.linalg import ColumnEchelon
from formald.series import Series, monomials_upto


def random_series(rng, num_vars, precision, degree=None, density=0.5,
                  max_abs=4, unit=False, zero_constant=False):
    """A random series with small rational coefficients."""
    degree = precision if degree is None else degree
    terms = {}
    for exps in monomials_upto(num_vars, degree):
        if rng.random() < density:
            num = rng.randint(-max_abs, max_abs)
            den = rng.choice([1, 1, 2, 3])
            if num:
                terms[exps] = Fraction(num, den)
    zero = (0,) * num_vars
    if unit:
        terms[zero] = Fraction(rng.choice([1, -1, 2, 3]))
    if zero_constant:
        terms.pop(zero, None)
    return Series(num_vars, precision, terms)


def random_xn_regular(rng, num_vars, precision, order):
    """A random series that is regular of the exact given order in the
    last variable."""
    while True:
        f = random_series(rng, num_vars, precision, density=0.4)
        terms = dict(f.terms)
        for k in range(order):
            terms.pop((0,) * (num_vars - 1) + (k,), None)
        terms[(0,) * (num_vars - 1) + (order,)] = Fraction(rng.choice([1, -1, 2]))
        f = Series(num_vars, precision, terms)
        from formald.series import is_xn_regular
        if is_xn_regular(f).order == order:
            return f


def span_rank(vectors):
    """Dimension of the span of a list of sparse vectors."""
    return ColumnEchelon(vectors).rank


def series_agree(a, b, precision=None):
    """Equality after truncating both to a common precision."""
    common = min(a.precision, b.precision)
    if precision is not None:
        common = min(common, precision)
    return a.truncate(common) == b.truncate(common)


def coeffs_agree(a, b, precision=None):
    """Coefficientwise series_agree of two operators or two symbols; a
    missing coefficient must be zero to the other's precision."""
    keys = set(a.coeffs) | set(b.coeffs)
    for key in keys:
        ca = a.coeffs.get(key)
        cb = b.coeffs.get(key)
        if ca is None or cb is None:
            target = ca if ca is not None else cb
            common = target.precision if precision is None else min(
                target.precision, precision)
            if not target.truncate(common).is_zero():
                return False
            continue
        if not series_agree(ca, cb, precision):
            return False
    return True


def run_cli(argv):
    """Run ``formald`` in-process; returns (exit code, stdout text)."""
    import contextlib
    import io

    from formald.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def cli_report(argv):
    """Run ``formald`` in-process; returns (exit code, report as a dict)."""
    code, text = run_cli(argv)
    return code, dict(line.split(": ", 1) for line in text.splitlines())
