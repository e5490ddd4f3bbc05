"""Verdict paths of the regularity probes, pinned on three presentations.

The ring R and the localization R_loc(x1*x2) are driven through the CLI
(every verb report line is pinned); a rank-1 connection with
nabla_2 = d_2 - 1, whose d_2-kernel is generated by exp(x2), is driven
through the library functions with tuple elements.
"""

import pytest

from formald import regularity as reg, series
from formald.derham import ModuleFamily
from formald.errors import PoleBudgetExceeded, PreconditionViolated
from formald.modules import LocElement
from formald.parser import parse_module, parse_series

from conftest import cli_report, series_agree

RING = ["--module", "R", "--vars", "2", "--trunc", "5"]
LOC = ["--module", "R_loc(x1*x2)", "--vars", "2", "--pole-bound", "3"]

# (check, argv tail, exit code, expected report lines besides schema/verb)
CASES = [
    # -- the ring R ----------------------------------------------------------
    ("etau", RING + ["--element", "x1+x2^2", "--f", "x2"], 0,
     {"status": "found", "p": "2", "r0": "0", "r1": "2", "degree-checked": "5"}),
    ("etau", RING + ["--element", "x1+x2^2", "--f", "1", "--pmax", "1"], 2,
     {"status": "none", "degree-checked": "5"}),
    ("element", RING + ["--element", "x1+x2^2", "--f", "x2"], 0,
     {"status": "yes", "p": "2", "f-regular-order": "1"}),
    ("element", RING + ["--element", "x1+x2^2", "--f", "x2", "--pmax", "1"], 2,
     {"status": "no-evidence", "f-regular-order": "1"}),
    ("element", RING + ["--element", "x1+x2^2", "--f", "x1"], 0,
     {"status": "inconclusive", "f-regular-order": "-"}),
    ("reglink", RING + ["--element", "x1+x2^2", "--f", "x2"], 0,
     {"status": "found", "s": "0", "p": "3"}),
    ("reglink", RING + ["--element", "x1+x2^2", "--f", "x2", "--pmax", "1",
                        "--smax", "1"], 2,
     {"status": "none"}),
    ("kernel-relation", RING + ["--elements", "x1;x1^2", "--coeffs", "x1;-1"], 0,
     {"status": "pass", "degree-checked": "5"}),
    # the relation x2*x1^5 * 1 = 0 holds below the window, its x2^1
    # component x1^5 does not
    ("kernel-relation", RING + ["--elements", "1", "--coeffs", "x2*x1^5"], 2,
     {"status": "fail", "failed-component": "1", "degree-checked": "5"}),
    ("kernel-relation", RING + ["--elements", "x2;x1", "--coeffs", "x1;-1"], 1,
     {"status": "error", "error": "PreconditionViolated",
      "message": "an element is not killed by d_n at truncation"}),
    ("kernel-relation", RING + ["--elements", "x1;x1^2", "--coeffs", "1;-1"], 1,
     {"status": "error", "error": "PreconditionViolated",
      "message": "the relation does not vanish at truncation"}),
    ("e0-cover", RING + ["--element", "1", "--f", "x2"], 0,
     {"status": "yes", "slice-bound": "0", "generators": "m", "p": "1"}),
    ("e0-cover", RING + ["--element", "1", "--f", "x1"], 0,
     {"status": "inconclusive"}),
    # -- the localization R_loc(x1*x2) -----------------------------------------
    ("etau", LOC + ["--trunc", "4", "--element", "1", "--element-pole", "1",
                    "--f", "x1*x2"], 0,
     {"status": "found", "p": "1", "r0": "-x1", "degree-checked": "8"}),
    ("etau", LOC + ["--trunc", "4", "--element", "x1+x2^2", "--f", "x1*x2",
                    "--pmax", "1"], 2,
     {"status": "none", "degree-checked": "10"}),
    ("element", LOC + ["--trunc", "4", "--element", "1", "--element-pole", "1",
                       "--f", "x2"], 0,
     {"status": "yes", "p": "1", "f-regular-order": "1"}),
    ("element", LOC + ["--trunc", "4", "--element", "x1+x2^2", "--f", "x2",
                       "--pmax", "1"], 2,
     {"status": "no-evidence", "f-regular-order": "1"}),
    ("element", LOC + ["--trunc", "4", "--element", "1", "--f", "x1"], 0,
     {"status": "inconclusive", "f-regular-order": "-"}),
    ("reglink", LOC + ["--trunc", "4", "--element", "x1", "--f", "x2"], 0,
     {"status": "found", "s": "0", "p": "1"}),
    ("reglink", LOC + ["--trunc", "4", "--element", "x1+x2^2", "--f", "x2+x1",
                       "--smax", "1", "--pmax", "1"], 2,
     {"status": "none"}),
    ("reglink", LOC + ["--trunc", "4", "--element", "1", "--element-pole", "1",
                       "--f", "x1*x2", "--smax", "2"], 1,
     {"status": "error", "error": "PoleBudgetExceeded",
      "message": "pole order 4 exceeds budget 3"}),
    ("kernel-relation", LOC + ["--trunc", "4", "--elements", "x1;x1^2",
                               "--coeffs", "x1;-1"], 0,
     {"status": "pass", "degree-checked": "10"}),
    ("kernel-relation", LOC + ["--trunc", "4", "--elements", "1",
                               "--coeffs", "x2*x1^4"], 2,
     {"status": "fail", "failed-component": "1", "degree-checked": "10"}),
    ("kernel-relation", LOC + ["--trunc", "4", "--elements", "x2",
                               "--coeffs", "1"], 1,
     {"status": "error", "error": "PreconditionViolated",
      "message": "an element is not killed by d_n at truncation"}),
    ("kernel-relation", LOC + ["--trunc", "4", "--elements", "1",
                               "--coeffs", "1"], 1,
     {"status": "error", "error": "PreconditionViolated",
      "message": "the relation does not vanish at truncation"}),
    ("e0-cover", LOC + ["--trunc", "5", "--element", "1", "--element-pole", "1",
                        "--f", "x2"], 0,
     {"status": "yes", "slice-bound": "0", "generators": "m", "p": "1"}),
    ("e0-cover", LOC + ["--trunc", "5", "--element", "1", "--element-pole", "1",
                        "--f", "x1"], 0,
     {"status": "inconclusive"}),
    # a connection has no pole to put an element over
    ("etau", ["--module", "R", "--vars", "2", "--element", "1",
              "--element-pole", "1", "--f", "x2", "--trunc", "4"], 1,
     {"status": "error", "error": "WrongVariant",
      "message": "a connection element takes no pole, got pole order 1"}),
    # the element itself is past the budget: it is embedded, and rejected,
    # before any iterate is computed
    ("etau", ["--module", "R_loc(x1)", "--vars", "1", "--f", "x",
              "--element-pole", "3", "--pole-bound", "1"], 1,
     {"status": "error", "error": "PoleBudgetExceeded",
      "message": "pole order 3 exceeds budget 1"}),
    # at pole budget 0 level 0 is the ring's window, and d_n(R) spans in it
    # what it spans for the ring: both print R's report (slice-bound 0)
    *(("e0-cover", ["--module", "R_loc(x1*x2)", "--vars", "2", "--f", "x2",
                    "--trunc", "5", "--pole-bound", "0", "--element", element], 0,
       {"status": "yes", "slice-bound": "0", "generators": "m", "p": "1",
        "pmax": "8", "trunc": "5", "pole-bound": "0"})
      for element in ("1", "x2")),
]


@pytest.mark.parametrize("check, tail, code, expected", CASES)
def test_cli_verdicts(check, tail, code, expected):
    got_code, report = cli_report(["regularity", check] + tail)
    assert got_code == code
    assert {k: report[k] for k in expected if k in report} == expected


# each probe builds one ladder: e0-cover's regularity check and every power
# reglink tries (none succeeds here, so all four run) share it
@pytest.mark.parametrize("check, tail, status", [
    ("e0-cover", RING + ["--element", "1", "--f", "x2"], "yes"),
    ("reglink", RING + ["--element", "x1+x2^2", "--f", "x2", "--pmax", "1",
                        "--smax", "3"], "none"),
    ("e0-cover", LOC + ["--trunc", "5", "--element", "1", "--element-pole",
                        "1", "--f", "x2"], "yes"),
    ("reglink", LOC + ["--trunc", "4", "--element", "x1+x2^2", "--f", "x2+x1",
                       "--smax", "3", "--pmax", "1"], "none"),
])
def test_probe_builds_one_ladder(check, tail, status, monkeypatch):
    builds = []
    init = ModuleFamily.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ModuleFamily, "__init__", counted)
    _, report = cli_report(["regularity", check] + tail)
    assert report["status"] == status
    assert len(builds) == 1


# curvature d_2(x2) - d_1(0) = 1: derham rejects it, and so must every probe,
# the early inconclusive exits (f = x1 is not x2-regular) included
CURVED = ["--module", "conn(1; [[x2]]; [[0]])", "--vars", "2"]


@pytest.mark.parametrize("check, tail", [
    ("etau", ["--element", "x1", "--f", "x2"]),
    ("element", ["--element", "x1", "--f", "x2"]),
    ("element", ["--element", "x1", "--f", "x1"]),
    ("reglink", ["--element", "x1", "--f", "x2"]),
    ("kernel-relation", ["--elements", "x1", "--coeffs", "0"]),
    ("e0-cover", ["--element", "x1", "--f", "x2"]),
    ("e0-cover", ["--element", "x1", "--f", "x1"]),
])
def test_every_probe_rejects_a_curved_connection(check, tail):
    code, report = cli_report(["regularity", check] + CURVED + tail)
    assert code == 1
    assert (report["status"], report["error"]) == ("error", "NonIntegrable")


def test_cli_echoes_budgets():
    _, report = cli_report(["regularity", "reglink"] + RING
                           + ["--element", "x1+x2^2", "--f", "x2"])
    assert [report[k] for k in ("smax", "pmax", "trunc", "pole-bound")] == [
        "4", "8", "5", "8"]


# -- library calls --------------------------------------------------------------

PREC = 30


def _s(text):
    return parse_series(text, 2, PREC)


@pytest.fixture
def twist():
    """Rank-1 connection with nabla_1 = d_1 and nabla_2 = d_2 - 1."""
    return parse_module("conn(1; [[0]]; [[-1]])", 2, PREC)


@pytest.fixture
def loc():
    return parse_module("R_loc(x1*x2)", 2, PREC)


def test_connection_recurrence_found_and_none(twist):
    report = reg.iterate_recurrence(twist, (_s("x1+x2"),), _s("1"), 4, 4)
    assert report.found() and report.order == 2
    assert [str(c) for c in report.coefficients] == ["-1", "-2"]
    assert (report.pole, report.degree_checked) == (None, 4)
    report = reg.iterate_recurrence(twist, (_s("x1+x2^2"),), _s("x1"), 1, 4)
    assert not report.found() and report.degree_checked == 4


def test_connection_element_check(twist):
    yes = reg.xn_regular_element_check(twist, (_s("x1+x2"),), _s("x2"), 4, 4)
    assert (yes.status, yes.f_regular_order, yes.recurrence.order) == ("yes", 1, 2)
    assert [str(c) for c in yes.recurrence.coefficients] == ["-x2^2", "1 - 2*x2"]
    none = reg.xn_regular_element_check(twist, (_s("x1+x2^2"),), _s("x2+x1"), 1, 4)
    assert none.status == "no-evidence" and not none.recurrence.found()
    unsure = reg.xn_regular_element_check(twist, (_s("1"),), _s("x1"), 4, 4)
    assert (unsure.status, unsure.recurrence) == ("inconclusive", None)


def test_connection_power_search(twist):
    found = reg.power_search(twist, (_s("x1+x2^2"),), _s("x2"), 3, 4, 4)
    assert (found.found_s, found.recurrence.order) == (0, 3)
    none = reg.power_search(twist, (_s("x1+x2^2"),), _s("x2+x1"), 1, 1, 4)
    assert (none.found_s, none.recurrence) == (None, None)


def test_connection_kernel_relation(twist):
    e = _s("exp(x2)")
    passed = reg.kernel_relation_homogeneity(
        twist, [(e,), (_s("x1") * e,)], [_s("x1"), _s("-1")], 4)
    assert (passed.passed, passed.degree_checked) == (True, 4)
    failed = reg.kernel_relation_homogeneity(twist, [(e,)], [_s("x2*x1^4")], 4)
    assert (failed.passed, failed.failed_index) == (False, 1)
    with pytest.raises(PreconditionViolated, match="not killed"):
        reg.kernel_relation_homogeneity(twist, [(_s("x1"),)], [_s("1")], 4)
    with pytest.raises(PreconditionViolated, match="does not vanish"):
        reg.kernel_relation_homogeneity(twist, [(e,)], [_s("1")], 4)


def test_connection_cover(twist):
    yes = reg.cover_check(twist, (_s("1"),), _s("x2"), 5)
    assert (yes.status, yes.slice_bound, yes.generator_texts) == ("yes", 0, ("m",))
    assert (yes.recurrence_order, yes.pole) == (1, None)
    unsure = reg.cover_check(twist, (_s("1"),), _s("x1"), 5)
    assert (unsure.status, unsure.slice_bound) == ("inconclusive", None)
    # a connection ladder has no pole, whatever pole is passed
    unsure = reg.cover_check(twist, (_s("1"),), _s("x1"), 5, 3)
    assert (unsure.status, unsure.pole) == ("inconclusive", None)


def test_localization_window_follows_pole_argument(loc):
    inverse = LocElement(_s("1"), 1)
    with pytest.raises(ValueError, match="needs a pole bound"):
        reg.iterate_recurrence(loc, inverse, _s("x1*x2"), 4, 4)
    default = reg.iterate_recurrence(loc, inverse, _s("x1*x2"), 4, 4, 3)
    assert (default.pole, default.degree_checked) == (3, 8)
    assert series_agree(default.coefficients[0], -_s("x1"))
    narrow = reg.iterate_recurrence(loc, inverse, _s("x2"), 4, 4, 2)
    assert (narrow.order, narrow.pole, narrow.degree_checked) == (1, 2, 6)
    wide = reg.iterate_recurrence(loc, inverse, _s("x2"), 4, 4, 5)
    assert (wide.order, wide.pole, wide.degree_checked) == (1, 5, 12)


def test_localization_cover_reports_window_pole(loc):
    inverse = LocElement(_s("1"), 1)
    assert reg.cover_check(loc, inverse, _s("x2"), 5, 3).pole == 3
    # the inconclusive outcome reports the ladder's pole too
    assert reg.cover_check(loc, inverse, _s("x1"), 5, 3).pole == 3


def test_localization_pole_budget(loc):
    inverse = LocElement(_s("1"), 1)
    with pytest.raises(PoleBudgetExceeded):
        reg.power_search(loc, inverse, _s("x2"), 2, 4, 4, 3)
    # a wider window also widens the budget of the actions
    wide = reg.power_search(loc, inverse, _s("x2"), 2, 4, 4, 6)
    assert (wide.found_s, wide.recurrence.order, wide.recurrence.pole) == (1, 1, 6)


def test_the_localization_regularizes_f_once(loc, monkeypatch):
    # x1*x2 is not x2-regular: every normalization of an iterate divides by
    # f through the one substitution the presentation found for it
    searches, divisions = [], []
    search, divide = series.find_regularizing_substitution, series.Divisor.divide

    def counted_search(f):
        searches.append(f)
        return search(f)

    def counted_divide(self, g):
        divisions.append(g)
        return divide(self, g)

    monkeypatch.setattr(series, "find_regularizing_substitution", counted_search)
    monkeypatch.setattr(series.Divisor, "divide", counted_divide)
    report = reg.iterate_recurrence(loc, LocElement(_s("1"), 1), _s("x1*x2"), 4, 4, 3)
    assert report.found() and report.order == 1
    assert len(searches) == 1 and len(divisions) > 1
