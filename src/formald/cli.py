"""Command-line front door.

Every verb parses its expressions with an explicit variable count, runs
one computation and prints a deterministic key/value report (or JSON with
--machine).  Exit codes: 0 for affirmative or neutral outcomes, 2 for a
certified-negative verdict at the stated truncation, 1 for errors, 3 for
a broken internal invariant (an ``AssertionError``, as from the d o d = 0
check or a Weierstrass remainder with a term of x_n-degree >= d):
``error: InternalInvariant``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import malgrange as malg
from . import regularity as reg
from .derham import (cokernel_of_dn, kernel_of_dn, les_consistency,
                     stable_cohomology_dims, stabilized_dims)
from .errors import ToolkitError
from .parser import parse_module, parse_operator, parse_series, parse_symbol
from .series import (find_regularizing_substitution, weierstrass_divide,
                     weierstrass_prepare)
from .symbols import bracket_chain_probe, involutivity_check, poisson_bracket

SCHEMA = "formald-report/1"

# precision margins used when parsing CLI expressions; fixed so that
# identical invocations stay byte-identical
_SERIES_MARGIN = 2
_MODULE_MARGIN = 12
_MALGRANGE_MARGIN = 40


def _read_text(value):
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as handle:
            return handle.read().strip()
    return value


def _parse_schedule(text):
    steps = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "," in chunk:
            left, right = chunk.split(",", 1)
            right = right.strip()
            pole = None if right in ("-", "") else int(right)
        else:
            left, pole = chunk, None
        if int(left) < 0 or (pole or 0) < 0:
            raise ValueError("--schedule needs N >= 0 and K >= 0 in every step")
        steps.append((int(left), pole))
    if not steps:
        raise ValueError("empty schedule")
    return steps


def _module_precision(args, schedule=None):
    trunc = max((n for n, _ in schedule), default=args.trunc) if schedule else args.trunc
    poles = [k for _, k in (schedule or []) if k is not None]
    pole = max([args.pole_bound] + poles) if poles else args.pole_bound
    return trunc + 4 * pole + _MODULE_MARGIN


class Report:
    def __init__(self, verb):
        self.items = [("schema", SCHEMA), ("verb", verb)]

    def add(self, key, value):
        self.items.append((key, value))

    def render(self, machine):
        if machine:
            return json.dumps(dict(self.items), sort_keys=True)
        return "\n".join(f"{key}: {value}" for key, value in self.items)


# budget options, named as on the command line and in the report
_BUDGETS = ("trunc", "pole-bound", "steps", "pmax", "smax", "zeta-bound",
            "element-pole")


def _check_args(args):
    """Reject out-of-range budgets and missing inputs before computing."""
    if getattr(args, "vars", 1) < 1:
        raise ValueError("--vars must be >= 1")
    for name in _BUDGETS:
        if getattr(args, name.replace("-", "_"), 0) < 0:
            raise ValueError(f"--{name} must be >= 0")
    if args.verb == "regularity":
        needed = (("elements", "coeffs") if args.check == "kernel-relation"
                  else ("f",))
        for name in needed:
            if getattr(args, name) is None:
                raise ValueError(f"regularity {args.check} needs --{name}")


def _echo_budgets(report, args, names):
    for name in names:
        report.add(name, getattr(args, name.replace("-", "_")))


# -- verb handlers ---------------------------------------------------------


def _run_prep(args, report):
    f = parse_series(_read_text(args.expr), args.vars, args.trunc + _SERIES_MARGIN)
    form = weierstrass_prepare(f.truncate(args.trunc))
    report.add("status", "ok")
    report.add("degree", form.degree)
    report.add("unit", str(form.unit))
    for i, b in enumerate(form.tail):
        report.add(f"b{i}", str(b))
    report.add("precision", form.precision)
    return 0


def _run_divide(args, report):
    g = parse_series(_read_text(args.numerator), args.vars, args.trunc + _SERIES_MARGIN)
    f = parse_series(_read_text(args.divisor), args.vars, args.trunc + _SERIES_MARGIN)
    q, remainder = weierstrass_divide(g.truncate(args.trunc), f.truncate(args.trunc))
    report.add("status", "ok")
    report.add("quotient", str(q))
    for i, r in enumerate(remainder):
        report.add(f"r{i}", str(r))
    report.add("precision", q.precision)
    return 0


def _run_regularize(args, report):
    f = parse_series(_read_text(args.expr), args.vars, args.trunc)
    sub, order = find_regularizing_substitution(f)
    report.add("status", "ok")
    report.add("order", order)
    for i, row in enumerate(sub.rows):
        report.add(f"row{i}", ",".join(str(v) for v in row))
    return 0


def _run_poisson(args, report):
    a = parse_symbol(_read_text(args.left), args.vars, args.trunc)
    b = parse_symbol(_read_text(args.right), args.vars, args.trunc)
    report.add("status", "ok")
    report.add("bracket", str(poisson_bracket(a, b)))
    return 0


def _run_bracket_probe(args, report):
    f = parse_series(_read_text(args.expr), args.vars, args.trunc)
    result = bracket_chain_probe(f, args.steps)
    report.add("status", result.status)
    report.add("step", result.step if result.step is not None else "-")
    report.add("certified-to-precision", result.certified_to_precision)
    return 0 if result.status == "unit_reached" else 2


def _run_involutive(args, report):
    gens = [parse_symbol(_read_text(g), args.vars, args.trunc) for g in args.gens]
    outcome = involutivity_check(gens, args.trunc, args.zeta_bound)
    report.add("status", outcome.status)
    if outcome.witness_pair is not None:
        report.add("witness-pair", f"{outcome.witness_pair[0]},{outcome.witness_pair[1]}")
        report.add("witness-bracket", str(outcome.witness_bracket))
    return 0 if outcome.status == "pass" else (2 if outcome.status == "fail" else 0)


def _run_malgrange(args, report):
    op = parse_operator(_read_text(args.expr), 1, args.trunc + _MALGRANGE_MARGIN)
    data = malg.indicial_data(op)
    dims = malg.finite_dims(op)
    report.add("status", "ok")
    report.add("s", data.s)
    report.add("index-set", ",".join(str(i) for i in data.index_set))
    report.add("indicial-poly", ",".join(str(c) for c in data.poly))
    report.add("t0", data.t0)
    report.add("coker-dim", dims.cokernel)
    report.add("kernel-dim", dims.kernel)
    if args.oracle:
        r20 = malg.truncated_cokernel_rank(op, 20)
        r30 = malg.truncated_cokernel_rank(op, 30)
        report.add("oracle-20", r20)
        report.add("oracle-30", r30)
        report.add("oracle-agrees", str(r20 == r30 == dims.cokernel).lower())
    return 0


def _run_derham(args, report):
    schedule = _parse_schedule(args.schedule) if args.schedule else None
    precision = _module_precision(args, schedule)
    module = parse_module(_read_text(args.module), args.vars, precision)
    if schedule:
        outcome = stabilized_dims(module, schedule)
        report.add("status", "ok")
        report.add("schedule", args.schedule)
        for i, dim in enumerate(outcome.dims):
            flag = "stabilized" if outcome.stabilized[i] else "unstable"
            report.add(f"h{i}", f"{dim} {flag}")
    else:
        outcome = stable_cohomology_dims(module, args.trunc, args.pole_bound)
        report.add("status", "ok")
        report.add("trunc", args.trunc)
        report.add("pole-bound", args.pole_bound)
        for i, dim in enumerate(outcome.dims):
            report.add(f"h{i}", str(dim))
    return 0


def _run_kernel(args, report):
    precision = _module_precision(args)
    module = parse_module(_read_text(args.module), args.vars, precision)
    build = kernel_of_dn if args.verb == "kernel" else cokernel_of_dn
    data = build(module, args.trunc, args.pole_bound)
    report.add("status", "ok")
    report.add("dims", ",".join(str(d) for d in data.dims))
    for i, text in enumerate(data.basis_texts[:12]):
        report.add(f"basis{i}", text)
    if len(data.basis_texts) > 12:
        report.add("basis-more", len(data.basis_texts) - 12)
    return 0


def _run_les(args, report):
    precision = _module_precision(args)
    module = parse_module(_read_text(args.module), args.vars, precision)
    outcome = les_consistency(module, args.trunc, args.pole_bound)
    report.add("status", "ok" if outcome.consistent else "violated")
    report.add("dims-module", ",".join(str(d) for d in outcome.dims_module))
    report.add("dims-kernel", ",".join(str(d) for d in outcome.dims_kernel))
    report.add("dims-cokernel", ",".join(str(d) for d in outcome.dims_cokernel))
    report.add("euler-ok", str(outcome.euler_ok).lower())
    return 0 if outcome.consistent else 2


def _run_regularity(args, report):
    precision = _module_precision(args)
    module = parse_module(_read_text(args.module), args.vars, precision)
    sub = args.check
    if sub == "kernel-relation":
        elements = [module.element(parse_series(text, args.vars, precision))
                    for text in _read_text(args.elements).split(";")]
        coeffs = [parse_series(text, args.vars, precision)
                  for text in _read_text(args.coeffs).split(";")]
        outcome = reg.kernel_relation_homogeneity(module, elements, coeffs,
                                                  args.trunc, args.pole_bound)
        report.add("status", "pass" if outcome.passed else "fail")
        if outcome.failed_index is not None:
            report.add("failed-component", outcome.failed_index)
        report.add("degree-checked", outcome.degree_checked)
        return 0 if outcome.passed else 2

    element = module.element(
        parse_series(_read_text(args.element), args.vars, precision),
        args.element_pole)
    f = parse_series(_read_text(args.f), args.vars, precision)
    if sub == "etau":
        outcome = reg.iterate_recurrence(module, element, f, args.pmax,
                                         args.trunc, args.pole_bound)
        found = outcome.found()
        report.add("status", "found" if found else "none")
        if found:
            report.add("p", outcome.order)
            for i, c in enumerate(outcome.coefficients):
                report.add(f"r{i}", str(c))
        report.add("degree-checked", outcome.degree_checked)
        _echo_budgets(report, args, ["pmax", "trunc", "pole-bound"])
        return 0 if found else 2
    if sub == "element":
        outcome = reg.xn_regular_element_check(module, element, f, args.pmax,
                                               args.trunc, args.pole_bound)
        report.add("status", outcome.status)
        if outcome.recurrence is not None and outcome.recurrence.found():
            report.add("p", outcome.recurrence.order)
        report.add("f-regular-order",
                   outcome.f_regular_order if outcome.f_regular_order is not None else "-")
        _echo_budgets(report, args, ["pmax", "trunc", "pole-bound"])
        return 2 if outcome.status == "no-evidence" else 0
    if sub == "reglink":
        outcome = reg.power_search(module, element, f, args.smax, args.pmax,
                                   args.trunc, args.pole_bound)
        found = outcome.found_s is not None
        report.add("status", "found" if found else "none")
        if found:
            report.add("s", outcome.found_s)
            report.add("p", outcome.recurrence.order)
        _echo_budgets(report, args, ["smax", "pmax", "trunc", "pole-bound"])
        return 0 if found else 2
    if sub == "e0-cover":
        outcome = reg.cover_check(module, element, f, args.trunc,
                                  args.pole_bound, p_max=args.pmax)
        report.add("status", outcome.status)
        if outcome.status == "yes":
            report.add("slice-bound", outcome.slice_bound)
            report.add("generators", "; ".join(outcome.generator_texts))
            report.add("p", outcome.recurrence_order)
        _echo_budgets(report, args, ["pmax", "trunc", "pole-bound"])
        return 0 if outcome.status == "yes" else (2 if outcome.status == "no-evidence" else 0)
    raise ValueError(f"unknown regularity check {sub!r}")


# -- argument wiring --------------------------------------------------------


def _common_flags(sub):
    sub.add_argument("--vars", type=int, required=True, help="number of variables")
    sub.add_argument("--trunc", type=int, default=8, help="series truncation degree")
    sub.add_argument("--machine", action="store_true",
                     help="emit the report as JSON")


def build_argparser():
    parser = argparse.ArgumentParser(
        prog="formald",
        description="exact truncated calculus for differential operators "
                    "over formal power series rings")
    verbs = parser.add_subparsers(dest="verb", required=True)

    p = verbs.add_parser("prep", help="Weierstrass preparation")
    p.add_argument("expr")
    _common_flags(p)

    p = verbs.add_parser("divide", help="Weierstrass division")
    p.add_argument("numerator")
    p.add_argument("divisor")
    _common_flags(p)

    p = verbs.add_parser("regularize", help="find a regularizing substitution")
    p.add_argument("expr")
    _common_flags(p)

    p = verbs.add_parser("poisson", help="Poisson bracket of two symbols")
    p.add_argument("left")
    p.add_argument("right")
    _common_flags(p)

    p = verbs.add_parser("bracket-probe", help="iterate {z_n, -} until a unit appears")
    p.add_argument("expr")
    p.add_argument("--steps", type=int, default=8)
    _common_flags(p)

    p = verbs.add_parser("involutive", help="pairwise-bracket ideal membership")
    p.add_argument("gens", nargs="+")
    p.add_argument("--zeta-bound", dest="zeta_bound", type=int, default=3)
    _common_flags(p)

    p = verbs.add_parser("malgrange", help="one-variable indicial data and dims")
    p.add_argument("expr")
    p.add_argument("--trunc", type=int, default=10)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against brute-force truncations")
    p.add_argument("--machine", action="store_true")

    p = verbs.add_parser("derham", help="de Rham cohomology dimensions")
    p.add_argument("--module", required=True)
    p.add_argument("--schedule", default=None,
                   help='truncation schedule, e.g. "6,4;8,5"')
    _common_flags(p)
    p.add_argument("--pole-bound", type=int, default=4, help="pole-order budget")

    p = verbs.add_parser("kernel", help="kernel of d_n on a module")
    p.add_argument("--module", required=True)
    _common_flags(p)
    p.add_argument("--pole-bound", type=int, default=4, help="pole-order budget")

    p = verbs.add_parser("cokernel", help="cokernel of d_n on a module")
    p.add_argument("--module", required=True)
    _common_flags(p)
    p.add_argument("--pole-bound", type=int, default=4, help="pole-order budget")

    p = verbs.add_parser("les", help="long-exact-sequence dimension constraints")
    p.add_argument("--module", required=True)
    _common_flags(p)
    p.add_argument("--pole-bound", type=int, default=4, help="pole-order budget")

    p = verbs.add_parser("regularity", help="finite-generation verifiers")
    p.add_argument("check", choices=["etau", "element", "reglink",
                                     "kernel-relation", "e0-cover"])
    p.add_argument("--module", required=True)
    p.add_argument("--element", default="1")
    p.add_argument("--element-pole", dest="element_pole", type=int, default=0)
    p.add_argument("--f", default=None)
    p.add_argument("--elements", default=None)
    p.add_argument("--coeffs", default=None)
    p.add_argument("--pmax", type=int, default=8)
    p.add_argument("--smax", type=int, default=4)
    _common_flags(p)
    p.add_argument("--pole-bound", type=int, default=8, help="pole-order budget")

    return parser


_HANDLERS = {
    "prep": _run_prep,
    "divide": _run_divide,
    "regularize": _run_regularize,
    "poisson": _run_poisson,
    "bracket-probe": _run_bracket_probe,
    "involutive": _run_involutive,
    "malgrange": _run_malgrange,
    "derham": _run_derham,
    "kernel": _run_kernel,
    "cokernel": _run_kernel,
    "les": _run_les,
    "regularity": _run_regularity,
}


@functools.cache
def _parser():
    """The parser ``main`` reads: built on the first call, not at import,
    and then kept for the process (``build_argparser`` makes fresh ones)."""
    return build_argparser()


def main(argv=None):
    args = _parser().parse_args(argv)
    report = Report(args.verb)
    try:
        _check_args(args)
        code = _HANDLERS[args.verb](args, report)
    except (ToolkitError, ValueError, OSError, AssertionError) as err:
        internal = isinstance(err, AssertionError)
        report = Report(args.verb)  # nothing of the failed run is kept
        report.add("status", "error")
        report.add("error", "InternalInvariant" if internal else type(err).__name__)
        report.add("message", str(err))
        code = 3 if internal else 1
    print(report.render(args.machine))
    return code


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
