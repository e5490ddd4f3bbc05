"""CLI reports through ``main(argv)``: pinned golden output and error
mapping."""

import json
from pathlib import Path

import pytest

from conftest import cli_report, run_cli

# derham/kernel/cokernel/les reports for R (n = 1..3), R_loc(x1*x2) and a
# rank-2 connection at the CLI defaults, plus one --machine report; every
# line is pinned byte for byte
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
