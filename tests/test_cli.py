"""CLI reports through ``main(argv)``: pinned golden output and error
mapping."""

import json
import time
from pathlib import Path

import pytest

from conftest import cli_report, run_cli

# derham/kernel/cokernel/les reports for R (n = 1..3), R_loc(x1*x2) and a
# rank-2 connection at the CLI defaults, plus one --machine report; kernel
# and cokernel reports for the cusp (N=8, K=4), the A1 surface (N=4, K=2)
# and x1*x2*x3 (N=3, K=1), and derham on R_loc(exp(x)-1) (N=3, K=1); prep,
# divide (n=3, precision 10), regularize, poisson, bracket-probe,
# involutive and malgrange reports on the series-calculus inputs of
# bench/workloads.py at seed 1, and involutive on the failing pair (x2, z2),
# whose unit bracket is certified not a member; regularity e0-cover on R, R_loc(x1*x2) and
# conn(1; [[0]]; [[-1]]), etau on the cusp and kernel-relation on that
# connection; rational data, whose ladders localize at c*f or scale nabla
# by its denominators: etau on R_loc(1/2*x1*x2) (the lift of an element of
# pole 1), kernel on R_loc(1/2*x1^2-1/3*x2^3) (N=6, K=2), and derham and
# kernel (N=5) on conn(1; [[1/2*x2]]; [[1/2*x1]]); les and cokernel on
# R_loc(x1*x2*x3*x4) (N=2, K=1), whose ladder keys pack four exponents;
# every line is pinned byte for byte
GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_golden_report(case):
    code, text = run_cli(case["argv"])
    assert text.splitlines() == case["stdout"]
    assert code == case["exit"]


def test_machine_report_is_json():
    case = next(c for c in GOLDEN if "--machine" in c["argv"])
    code, text = run_cli(case["argv"])
    report = json.loads(text)
    assert report["verb"] == "kernel" and report["status"] == "ok"
    assert report["dims"] == "10,10"


def test_rank_one_connection_takes_a_series_element():
    tail = ["--vars", "2", "--element", "x1+x2^2", "--f", "x2"]
    code, report = cli_report(
        ["regularity", "reglink", "--module", "conn(1; [[0]]; [[0]])"] + tail)
    assert code == 0
    assert (report["status"], report["s"], report["p"]) == ("found", "0", "3")
    # the zero rank-1 connection is R
    assert (code, report) == cli_report(
        ["regularity", "reglink", "--module", "R"] + tail)


def test_higher_rank_connection_rejects_a_series_element():
    code, report = cli_report(
        ["regularity", "etau", "--module",
         "conn(2; [[0,1],[0,0]]; [[1,0],[0,1]])", "--vars", "2",
         "--element", "x1", "--f", "x2"])
    assert code == 1
    assert (report["status"], report["error"]) == ("error", "WrongVariant")


# out-of-range budgets and missing inputs are rejected before any
# computation; each of these used to print an answer, a wrong verdict, an
# unrelated error or a traceback
REJECTED = [
    (["derham", "--module", "R", "--vars", "0"], "--vars must be >= 1"),
    (["derham", "--module", "R", "--vars", "2", "--trunc", "-1"],
     "--trunc must be >= 0"),
    (["derham", "--module", "R", "--vars", "2", "--pole-bound", "-1"],
     "--pole-bound must be >= 0"),
    (["derham", "--module", "R", "--vars", "2", "--schedule=-1,2;-2,3"],
     "--schedule needs N >= 0 and K >= 0 in every step"),
    (["derham", "--module", "R_loc(x1*x2)", "--vars", "2",
      "--schedule=4,-1;5,-1"],
     "--schedule needs N >= 0 and K >= 0 in every step"),
    (["malgrange", "x*d^2+d", "--trunc", "-1"], "--trunc must be >= 0"),
    (["bracket-probe", "x2", "--vars", "2", "--steps", "-1"],
     "--steps must be >= 0"),
    (["involutive", "z1", "x1", "--vars", "2", "--zeta-bound", "-1"],
     "--zeta-bound must be >= 0"),
    (["regularity", "etau", "--module", "R", "--vars", "2", "--f", "x2",
      "--pmax", "-1"], "--pmax must be >= 0"),
    (["regularity", "reglink", "--module", "R", "--vars", "2", "--f", "x2",
      "--smax", "-1"], "--smax must be >= 0"),
    (["regularity", "element", "--module", "R", "--vars", "2", "--f", "x2",
      "--element-pole", "-1"], "--element-pole must be >= 0"),
] + [
    (["regularity", check, "--module", "R", "--vars", "2"],
     f"regularity {check} needs --f")
    for check in ("etau", "element", "reglink", "e0-cover")
] + [
    (["regularity", "kernel-relation", "--module", "R", "--vars", "2",
      "--coeffs", "1"], "regularity kernel-relation needs --elements"),
    (["regularity", "kernel-relation", "--module", "R", "--vars", "2",
      "--elements", "1"], "regularity kernel-relation needs --coeffs"),
]


@pytest.mark.parametrize("argv, message", REJECTED,
                         ids=[" ".join(argv) for argv, _ in REJECTED])
def test_out_of_range_input_is_rejected(argv, message):
    code, report = cli_report(argv)
    assert code == 1
    assert (report["status"], report["error"], report["message"]) == (
        "error", "ValueError", message)


def test_broken_invariant_is_reported_without_traceback(monkeypatch, capsys):
    from formald.linalg import Matrix

    # every d o d composite now looks nonzero, so the exact check fails
    monkeypatch.setattr(Matrix, "is_zero", lambda self: False)
    code, text = run_cli(["derham", "--module", "R", "--vars", "2"])
    report = dict(line.split(": ", 1) for line in text.splitlines())
    assert code == 3
    assert (report["status"], report["error"]) == ("error", "InternalInvariant")
    assert report["message"].startswith("d^1 o d^0 != 0")
    assert "Traceback" not in text + capsys.readouterr().err


def test_schedule_step_without_a_pole_is_a_typed_error(capsys):
    # the step "4" gives no K: the localization ladder rejects it before it
    # is deepened, where None + 1 used to escape as a TypeError
    code, report = cli_report(["derham", "--module", "R_loc(x1)", "--vars", "1",
                               "--schedule", "3,1;4"])
    assert code == 1
    assert (report["status"], report["error"], report["message"]) == (
        "error", "ValueError", "a localization ladder needs a pole bound")
    assert "Traceback" not in capsys.readouterr().err


def test_a_power_past_the_size_guard_is_a_typed_error(capsys):
    code, report = cli_report(["poisson", "(1+z1)^800", "x1", "--vars", "1",
                               "--trunc", "4"])
    assert code == 1
    assert (report["status"], report["error"]) == ("error", "BoundOverflow")
    assert "Traceback" not in capsys.readouterr().err


# Python converts no int past sys.get_int_max_str_digits() (4300 by
# default) to or from text: a literal that long is a parse error at its
# position, and a coefficient that long cannot be printed.  A literal power
# is bounded (k*log10|p|) before it is computed, in the inline fold and in
# a parenthesised rational raised to k: 3^20000000 alone, 9.5 million
# digits, takes about a minute to compute.  A parenthesised series raised
# to k is bounded by its constant term c0, as the power's is exactly c0^k:
# (2+x1)^2000000 ran 41 s before its print failed
@pytest.mark.parametrize("expr, error, message", [
    ("2^100000*x1", "BoundOverflow",
     "a coefficient has more than 4300 digits to print"),
    ("7" * 5000 + "*x1", "ParseError",
     "literal of 5000 digits exceeds the 4300-digit limit (at position 0)"),
    ("3^20000000*x1", "BoundOverflow",
     "a coefficient has more than 4300 digits to print"),
    ("exp(x1)*(1/3)^20000000", "BoundOverflow",
     "a coefficient has more than 4300 digits to print"),
    ("(2+x1)^2000000", "BoundOverflow",
     "a coefficient has more than 4300 digits to print"),
], ids=["power", "literal", "folded power", "raised power", "series power"])
def test_an_integer_past_the_digit_limit_is_a_typed_error(expr, error, message,
                                                          capsys):
    start = time.perf_counter()
    code, report = cli_report(["prep", expr, "--vars", "1", "--trunc", "3"])
    assert time.perf_counter() - start < 1
    assert code == 1
    assert (report["status"], report["error"], report["message"]) == (
        "error", error, message)
    assert "set_int_max_str_digits" not in report["message"]
    assert "Traceback" not in capsys.readouterr().err


def test_an_error_report_keeps_nothing_of_the_failed_run():
    # malgrange has its indicial data and dims before the oracle runs out of
    # precision; none of those lines reaches the error report
    argv = ["malgrange", "x^50*d", "--trunc", "10", "--oracle"]
    code, text = run_cli(argv)
    assert code == 1
    assert text.splitlines() == [
        "schema: formald-report/1", "verb: malgrange", "status: error",
        "error: InsufficientPrecision",
        "message: need coefficients to degree 68, have 50"]
    code, text = run_cli(argv + ["--machine"])
    assert sorted(json.loads(text)) == ["error", "message", "schema", "status",
                                        "verb"]


# indicial roots -10^7 and 3*10^6: only the divisors of the trailing
# coefficient are tried, so neither scans up to the Cauchy bound
@pytest.mark.parametrize("expr, code, expected", [
    ("x*d+10000000", 0, {"status": "ok", "indicial-poly": "10000000,1",
                         "t0": "0", "coker-dim": "0", "kernel-dim": "0"}),
    ("x*d-3000000", 1, {"status": "error", "error": "InsufficientPrecision"}),
])
def test_malgrange_with_a_large_integer_root_answers(expr, code, expected):
    got_code, report = cli_report(["malgrange", expr, "--trunc", "3"])
    assert got_code == code
    assert {k: report[k] for k in expected} == expected


def test_a_leading_unary_plus_answers():
    code, report = cli_report(["poisson", "+z1", "x1", "--vars", "1",
                               "--trunc", "4"])
    assert code == 0
    assert (report["status"], report["bracket"]) == ("ok", "1")


@pytest.mark.parametrize("argv", [["poisson", "z1", "x1"], ["regularize", "x1"],
                                  ["bracket-probe", "x1"]], ids=" ".join)
def test_variable_at_precision_zero_is_a_typed_error(argv, capsys):
    # the literal x1 has no room at precision 0; this was a bare ValueError
    code, report = cli_report(argv + ["--vars", "1", "--trunc", "0"])
    assert code == 1
    assert (report["status"], report["error"], report["message"]) == (
        "error", "InsufficientPrecision",
        "variable 'x1' at position 0 needs precision >= 1")
    assert "Traceback" not in capsys.readouterr().err


# a connection's flatness is checked once per presentation, however many
# ladders, schedule steps, twist powers or probes an invocation builds
CONN = ["--module", "conn(1; [[0]]; [[-1]])", "--vars", "2"]
FLATNESS_RUNS = [
    ["derham"] + CONN,
    ["derham"] + CONN + ["--schedule", "3;4;5"],
    ["cokernel"] + CONN,
    ["regularity", "element"] + CONN + ["--f", "x2"],
    ["regularity", "reglink"] + CONN + ["--element", "x1+x2^2", "--f", "x2+x1",
                                        "--smax", "3", "--pmax", "1"],
    ["regularity", "e0-cover"] + CONN + ["--f", "x2"],
]


@pytest.mark.parametrize("argv", FLATNESS_RUNS, ids=" ".join)
def test_one_flatness_check_per_invocation(argv, monkeypatch):
    import formald.modules

    calls = []
    check = formald.modules.check_integrability
    monkeypatch.setattr(formald.modules, "check_integrability",
                        lambda module: calls.append(module) or check(module))
    code, report = cli_report(argv)
    assert code in (0, 2) and report["status"] != "error"
    assert len(calls) == 1


# a verb whose handler builds no ladder takes no pole budget
NO_LADDER = [["prep", "x2", "--vars", "1"],
             ["divide", "x1", "x1", "--vars", "1"],
             ["regularize", "x1", "--vars", "1"],
             ["poisson", "x1", "z1", "--vars", "1"],
             ["bracket-probe", "x1", "--vars", "1"],
             ["involutive", "z1", "--vars", "1"]]


@pytest.mark.parametrize("argv", NO_LADDER, ids=" ".join)
def test_verbs_without_a_ladder_reject_a_pole_bound(argv, capsys):
    from formald.cli import build_argparser, main

    build_argparser().parse_args(argv)
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--pole-bound", "1"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --pole-bound 1" in capsys.readouterr().err


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    from formald import cli

    builds = []
    build = cli.build_argparser
    monkeypatch.setattr(cli, "build_argparser",
                        lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    les = next(c for c in GOLDEN if c["argv"][:3] == ["les", "--module", "R_loc(x1*x2)"])
    derham = next(c for c in GOLDEN if c["argv"][0] == "derham")

    def matches_golden(case):
        code, text = run_cli(case["argv"])
        return (text.splitlines(), code) == (case["stdout"], case["exit"])

    assert matches_golden(les) and matches_golden(derham)
    with pytest.raises(SystemExit) as exit_:
        cli.main(["les", "--module", "R", "--vars", "two"])
    assert exit_.value.code == 2
    assert "argument --vars: invalid int value" in capsys.readouterr().err
    assert matches_golden(les)
    assert builds == [1]
