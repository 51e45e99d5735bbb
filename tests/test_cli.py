"""Command-line behavior: output formats, exit codes, determinism."""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from math import log
from pathlib import Path

import pytest

import spnum
from spnum import analytic, arith, census, cli, construct, pell
from spnum.arith import is_prime
from spnum.classify import SpWitness
from spnum.cli import main
from test_census import kp_enumerate

_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def run(capsys, *argv):
    """(exit code, stdout, stderr) of main(argv), usage errors included."""
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def _json_reply(command: str, parameters: dict, results: list) -> str:
    """The exact stdout of a JSON reply: records nest as objects in field
    order, tuples render as lists, two-space indent."""
    return json.dumps({"command": command, "parameters": parameters, "results": results},
                      indent=2) + "\n"


def test_classify_member(capsys):
    rc, out, _ = run(capsys, "classify", "75")
    assert rc == 0
    assert out == "75 = 3 · 5²\n"


def test_classify_non_member(capsys):
    rc, out, _ = run(capsys, "classify", "7")
    assert rc == 1
    assert out == "7 is not a KP_2 number\n"


def test_classify_k3(capsys):
    rc, out, _ = run(capsys, "classify", "24", "--k", "3")
    assert rc == 0
    assert out == "24 = 3 · 2³\n"


def test_classify_bad_k(capsys):
    rc, _, err = run(capsys, "classify", "24", "--k", "1")
    assert rc == 2
    assert "k must be >= 2" in err


def test_classify_json(capsys):
    rc, out, _ = run(capsys, "classify", "75", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "classify"
    assert doc["parameters"] == {"n": 75, "k": 2}
    assert doc["results"] == [{"n": 75, "k": 2, "p": 3, "a": 5}]


def test_classify_json_non_member(capsys):
    rc, out, _ = run(capsys, "classify", "36", "--format", "json")
    assert rc == 1
    assert json.loads(out)["results"] == []


def test_classify_scientific_notation(capsys):
    rc, out, _ = run(capsys, "classify", "3e2")
    assert rc == 0
    assert out == "300 = 3 · 10²\n"


_CLASSIFY_USAGE = "usage: spnum classify [-h] [--k K] [--format {table,json}] n\n"
_PAST_STR_LIMIT = ("error: an integer argument has more than 4300 digits, the interpreter's "
                   "int-to-str limit, which PYTHONINTMAXSTRDIGITS sets\n")
_DIGITS_5000 = "7" * 5000


@pytest.mark.parametrize("text, expected", [
    ("1_000", (1, "1000 is not a KP_2 number\n", "")),
    ("+75", (0, "75 = 3 · 5²\n", "")),
    (" 12", (0, "12 = 3 · 2²\n", "")),
    ("１２", (0, "12 = 3 · 2²\n", "")),
    ("0075", (0, "75 = 3 · 5²\n", "")),
    ("3e2", (0, "300 = 3 · 10²\n", "")),
    ("7.0", (1, "7 is not a KP_2 number\n", "")),
    ("0x10", (2, "", _CLASSIFY_USAGE
              + "spnum classify: error: argument n: not a number: '0x10'\n")),
    ("2.5", (2, "", _CLASSIFY_USAGE
             + "spnum classify: error: argument n: not an integer: '2.5'\n")),
    ("", (2, "", _CLASSIFY_USAGE + "spnum classify: error: argument n: not a number: ''\n")),
], ids=repr)
def test_classify_integer_forms(capsys, text, expected):
    """Plain ASCII digits take int(); every other form is read by Decimal."""
    assert run(capsys, "classify", text) == expected


@pytest.mark.skipif(_DIGIT_LIMIT != 4300, reason="text pinned at the default digit limit")
@pytest.mark.parametrize("argv", [
    ["classify", "1" + "0" * 4999],
    ["census", _DIGITS_5000],
    ["pell", "2", "--count", _DIGITS_5000],
    ["witness", "x2p1", "--count", _DIGITS_5000],
], ids=lambda argv: f"{argv[0]} {len(argv[-1])}-digit")
def test_argument_past_digit_limit_read_by_decimal(capsys, argv):
    """int() refuses digits past the limit; Decimal reads them and refuses
    them by name, in one stderr line, before any command runs."""
    assert run(capsys, *argv) == (2, "", _PAST_STR_LIMIT)


@pytest.mark.skipif(_DIGIT_LIMIT != 4300, reason="text pinned at the default digit limit")
@pytest.mark.parametrize("argv", [
    "classify 1e5000", "census 1e5000", "digits 1e5000", "witness gap 1e5000",
    "witness sum 1e5000", "witness between-squares 1e5000", "witness x2p1 --bound 1e5000",
    "witness x2p1 --count 1e5000", "witness x3p1 --t-max 1e5000", "pell 2 --count 1e5000",
    "estimate zeta 1e5000", "census 100 --checkpoints 1e5000", "classify 1e4300",
])
def test_argument_past_digit_limit_refused_by_name(capsys, argv):
    """An exponent past the limit is refused by name before any command runs."""
    assert run(capsys, *argv.split()) == (2, "", _PAST_STR_LIMIT)


@pytest.mark.skipif(_DIGIT_LIMIT != 4300, reason="text pinned at the default digit limit")
def test_hurwitz_value_past_digit_limit_refused_by_name(capsys):
    """A denominator of 4301 digits is refused by name; one of 4300 digits
    reaches the command, whose range check prints it."""
    assert run(capsys, "estimate", "hurwitz", "1e-4300") == (2, "", (
        "error: the value's numerator or denominator has more than 4300 digits, the "
        "interpreter's int-to-str limit, which PYTHONINTMAXSTRDIGITS sets\n"))
    assert run(capsys, "estimate", "hurwitz", "1e-4299") == (2, "", (
        f"error: hurwitz_zeta2 requires 0 < q <= 1, got 1/{10**4299}\n"))
    q = f"{10**4299 - 1}/{10**4299}"
    rc, out, _ = run(capsys, "estimate", "hurwitz", q)
    assert rc == 0 and out.startswith(f"zeta(2, {q}) = ")


@pytest.mark.skipif(_DIGIT_LIMIT != 4300, reason="boundary pinned at the default digit limit")
def test_argument_digit_limit_boundary(capsys):
    """10^4299 has 4300 digits and answers; with no limit nothing is refused
    by name, and 10^5000 answers as it did before the refusal existed."""
    assert run(capsys, "classify", "1e4299") == (1, f"{10**4299} is not a KP_2 number\n", "")
    assert run(capsys, "classify", "0e5000") == (1, "0 is not a KP_2 number\n", "")
    big = "1" + "0" * 5000
    try:
        sys.set_int_max_str_digits(0)
        classified = run(capsys, "classify", "1e5000")
        hurwitz = run(capsys, "estimate", "hurwitz", "1e-5000")
    finally:
        sys.set_int_max_str_digits(_DIGIT_LIMIT)
    assert classified == (1, f"{big} is not a KP_2 number\n", "")
    assert hurwitz == (2, "", f"error: hurwitz_zeta2 requires 0 < q <= 1, got 1/{big}\n")


def test_malformed_argument_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "abc"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["census"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["classify", "inf"], ["census", "Infinity"],
                                  ["classify", "--", "-inf"], ["pell", "2", "--count", "nan"]],
                         ids=["inf", "Infinity", "-inf", "nan"])
def test_non_finite_argument_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "not a finite number" in capsys.readouterr().err


def test_parser_reused_after_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "abc"])  # usage error, raised inside the parser
    assert exc.value.code == 2
    assert run(capsys, "witness", "gap", "0")[0] == 2  # ValueError path
    args = ("witness", "x2p1", "--bound", "1100", "--verify", "--format", "json")
    reused = run(capsys, *args)
    cli._build_parser.cache_clear()
    assert run(capsys, *args) == reused
    assert cli._build_parser() is cli._build_parser()


_COMMAND_PATHS = [list(path) for path, (_, handler, _) in cli._COMMANDS.items() if handler]


def _dispatch_cases():
    """Help, a missing argument, an invalid choice and unrecognized arguments
    for every command, then help, usage and the argument forms argparse reads
    itself: a bad integer, --k=3, an abbreviation, --, a negative number."""
    for path in _COMMAND_PATHS:
        yield path + ["-h"]
        yield path  # a missing argument, except for bunyakovsky-report
        yield path + ["--format", "xml"]
        yield path + ["1", "--bogus"]
    yield from ([], ["-h"], ["bogus"], ["witness"], ["witness", "-h"], ["witness", "bogus"],
                ["-h", "classify"], ["witness", "--verify", "gap", "12"], ["estimate", "bogus", "1"],
                ["classify", "abc"], ["classify", "75", "--k", "x"], ["classify", "75", "--k=3"],
                ["classify", "75", "--form", "json"], ["witness", "gap", "12", "--ver"],
                ["classify", "--", "-inf"], ["witness", "gap", "--", "12"],
                ["pell", "2", "--norm", "-1"], ["pell", "2", "--norm", "2"],
                ["classify", "75", "extra"], ["classify", "24", "--", "--k"])


@pytest.mark.parametrize("argv", list(_dispatch_cases()), ids=lambda argv: " ".join(argv) or "bare")
def test_command_parser_matches_the_full_tree(capsys, monkeypatch, argv):
    """main, which parses a request with its command's own parser, gives the
    exit code, stdout and stderr that the full spnum tree gives."""
    got = run(capsys, *argv)
    monkeypatch.setattr(cli, "_parse", lambda argv: cli._build_parser().parse_args(argv))
    assert got == run(capsys, *argv)


def test_well_formed_requests_build_only_their_command_parsers(capsys):
    """A request that its command's parser reads whole never builds the full
    tree, and each command's parser is built once."""
    cli._build_parser.cache_clear()
    cli._command_parser.cache_clear()
    for argv in (["classify", "75"], ["classify", "24", "--k=3", "--form", "json"],
                 ["witness", "gap", "12", "--verify"], ["witness", "sum", "75"],
                 ["witness", "x2p1", "--count", "2"], ["witness", "x3p1", "--t-max", "3"],
                 ["witness", "between-squares", "5"], ["pell", "2", "--norm", "-1"],
                 ["census", "1e4", "--family", "psp"], ["digits", "1000", "--format", "csv"],
                 ["estimate", "zeta", "2"], ["bunyakovsky-report"]):
        assert run(capsys, *argv)[0] == 0, argv
    assert cli._build_parser.cache_info().currsize == 0
    assert cli._command_parser.cache_info().currsize == len(_COMMAND_PATHS)


_AT_DEFAULT_DIGIT_LIMIT = pytest.mark.skipif(
    _DIGIT_LIMIT != 4300, reason="counts pinned at the default digit limit")


@pytest.mark.parametrize("argv, rc", [
    ("classify 24 --k 1", 2),
    ("census 1", 2),
    ("census 1000000000001", 2),
    ("census 100 --checkpoints ,", 2),
    ("census 100 --checkpoints 50,20", 2),
    ("digits 1", 2),
    ("digits 100000000001", 2),
    ("witness x2p1 --bound 100000000000002", 2),
    ("witness x3p1 --bound 1000000000000000000002", 2),
    ("witness x3p1 --t-max 100001", 2),
    pytest.param("pell 2 --count 6000", 2, marks=_AT_DEFAULT_DIGIT_LIMIT),
    pytest.param("witness x2p1 --count 6000", 2, marks=_AT_DEFAULT_DIGIT_LIMIT),
    pytest.param("witness gap 10000019", 2, marks=_AT_DEFAULT_DIGIT_LIMIT),
    pytest.param(f"census {_DIGITS_5000}", 2, marks=_AT_DEFAULT_DIGIT_LIMIT,
                 id="census 5000-digit"),
    ("pell 4", 2),
    ("pell 2 --count -1", 2),
    ("estimate hurwitz 1/0", 2),
    ("witness gap 0", 2),
    ("pell 3 --norm -1", 1),
    ("witness sum 7", 1),
    ("witness sum 45", 1),
])
def test_refusals_write_one_stderr_line(capsys, argv, rc):
    """A refusal exits 2 with one `error: ` line, written by main alone; an
    honest negative exits 1 with a line that carries no such prefix."""
    got, out, err = run(capsys, *argv.split())
    assert (got, out) == (rc, "")
    assert err.endswith("\n") and err.count("\n") == 1
    assert err.startswith("error: ") == (rc == 2)
    assert "error: " not in err.removeprefix("error: ")


def test_census_csv(capsys):
    rc, out, _ = run(capsys, "census", "117", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n,exact,estimate,ratio"
    n, exact, estimate, ratio = lines[1].split(",")
    assert (n, exact) == ("117", "25")
    assert float(estimate) == pytest.approx(analytic.kp_estimate(117, 2), rel=1e-5)
    assert float(ratio) == pytest.approx(25 * log(117) / 117, rel=1e-5)


def test_census_table(capsys):
    rc, out, _ = run(capsys, "census", "1e4", "--checkpoints", "1e2,1e3,1e4")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n", "exact", "estimate", "ratio"]
    rows = [line.split() for line in lines[1:]]
    assert [r[0] for r in rows] == ["100", "1000", "10000"]
    assert [r[1] for r in rows] == ["21", "169", "1230"]


def test_census_json_matches_csv(capsys):
    rc, csv_out, _ = run(capsys, "census", "1000", "--checkpoints", "100,1000",
                         "--format", "csv")
    assert rc == 0
    rc, json_out, _ = run(capsys, "census", "1000", "--checkpoints", "100,1000",
                          "--format", "json")
    assert rc == 0
    doc = json.loads(json_out)
    assert doc["command"] == "census"
    assert doc["parameters"]["checkpoints"] == [100, 1000]
    csv_rows = [line.split(",") for line in csv_out.splitlines()[1:]]
    for row, csv_row in zip(doc["results"], csv_rows, strict=True):
        assert row["n"] == int(csv_row[0])
        assert row["exact"] == int(csv_row[1])
        assert row["estimate"] == float(csv_row[2])
        assert row["ratio"] == float(csv_row[3])


def test_census_psp_family(capsys):
    rc, out, _ = run(capsys, "census", "100", "--family", "psp", "--format", "csv")
    assert rc == 0
    assert out.splitlines()[1].startswith("100,17,")


def test_census_psp_family_k3(capsys):
    rc, out, _ = run(capsys, "census", "1000", "--family", "psp", "--k", "3", "--format", "csv")
    assert rc == 0
    # p1 * p2^3: the KP_3 numbers whose base is prime
    exact = sum(1 for w in kp_enumerate(1000, 3) if is_prime(w.a))
    estimate = cli._fmt6(analytic.psp_estimate(1000, 3))
    assert out.splitlines()[1].startswith(f"1000,{exact},{estimate},")


def test_census_validation_errors(capsys):
    assert run(capsys, "census", "1")[0] == 2
    assert run(capsys, "census", "100", "--checkpoints", "50,20")[0] == 2
    assert run(capsys, "census", "100", "--checkpoints", "50,200")[0] == 2
    assert run(capsys, "census", "100", "--family", "psp", "--k", "1")[0] == 2
    assert run(capsys, "census", "1000000000001")[0] == 2


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("text", [",", ",,", ""])
def test_census_empty_checkpoints_refused_before_counting(capsys, monkeypatch, text, fmt):
    def boom(checkpoints, k, family):
        raise AssertionError(f"census_table({checkpoints}) called")

    monkeypatch.setattr(census, "census_table", boom)
    rc, out, err = run(capsys, "census", "100", "--checkpoints", text, "--format", fmt)
    assert (rc, out, err) == (2, "", "error: --checkpoints names no bound\n")


def test_census_budget_refused_before_counting(capsys, monkeypatch):
    def boom(checkpoints, k, family):
        raise AssertionError(f"census_table({checkpoints}) called")

    monkeypatch.setattr(census, "census_table", boom)
    rc, out, err = run(capsys, "census", "1000000000001")
    assert rc == 2 and out == ""
    assert "exceeds the prime-count table budget (1000000000000" in err
    with pytest.raises(AssertionError, match=r"census_table\(\[1000000000000\]\)"):
        main(["census", "1e12"])  # the largest bound passes the guard


@pytest.mark.parametrize("argv, err", [
    ("census 1000000000001",
     "bound 1000000000001 exceeds the prime-count table budget (1000000000000; the table "
     "holds up to 2.7·isqrt(bound) int64 entries); raise MAX_CENSUS_BOUND only with memory "
     "to spare"),
    ("digits 100000000001",
     "bound 100000000001 exceeds the class prime-count table budget (100000000000; the table "
     "holds 6.9·isqrt(bound) int64 entries); raise MAX_DIGITS_BOUND only with memory to spare"),
    ("witness x2p1 --bound 100000000000002",
     "bound 100000000000002 exceeds the x2p1 scan budget (x <= 10000000, so bound <= "
     "100000000000001; the kernel sieve runs over x in windows, its time growing with x); "
     "raise MAX_SCAN_X only with time to spare"),
    ("witness x3p1 --bound 1000000000000000000002 --verify --format json",
     "bound 1000000000000000000002 exceeds the x3p1 scan budget (x <= 10000000, so bound <= "
     "1000000000000000000001; the candidate scan trial-divides about 1.6·√x_max values); "
     "raise MAX_SCAN_X only with time to spare"),
    ("witness x3p1 --t-max 100001",
     "--t-max 100001 exceeds the x3p1 family budget (100000; one primality test per t); "
     "raise MAX_FAMILY_T only with time to spare"),
], ids=["census", "digits", "x2p1 --bound", "x3p1 --bound", "x3p1 --t-max"])
def test_budget_refusals_at_cap_plus_one(capsys, argv, err):
    """Each budget refusal's whole text, one past its cap."""
    assert run(capsys, *argv.split()) == (2, "", f"error: {err}\n")


def _census_rows(*rows):
    return [dict(zip(("n", "exact", "estimate", "ratio"), row)) for row in rows]


@pytest.mark.parametrize("argv, params, results", [
    ("census 1e4 --checkpoints 1e2,1e3,1e4",
     {"bound": 10000, "k": 2, "family": "kp", "checkpoints": [100, 1000, 10000]},
     _census_rows((100, 21, 14.0046, 0.967086), (1000, 169, 93.3638, 1.16741),
                  (10000, 1230, 700.228, 1.13287))),
    ("census 1e8 --checkpoints 2,1e7,1e8",
     {"bound": 100000000, "k": 2, "family": "kp", "checkpoints": [2, 10000000, 100000000]},
     _census_rows((2, 0, 1.86089, 0.0), (10000000, 553539, 400130.0, 0.892199),
                  (100000000, 4597843, 3501140.0, 0.846954))),
    ("census 1e4 --k 3 --checkpoints 1e2,1e3,1e4",
     {"bound": 10000, "k": 3, "family": "kp", "checkpoints": [100, 1000, 10000]},
     _census_rows((100, 7, 4.38761, 0.322362), (1000, 55, 29.2507, 0.379927),
                  (10000, 391, 219.38, 0.360124))),
    ("census 1e4 --family psp --checkpoints 1e2,1e3,1e4",
     {"bound": 10000, "k": 2, "family": "psp", "checkpoints": [100, 1000, 10000]},
     _census_rows((100, 17, 9.82043, 0.782879), (1000, 112, 65.4695, 0.773669),
                  (10000, 769, 491.021, 0.708275))),
], ids=["kp k=2", "kp k=2 1e8", "kp k=3", "psp"])
def test_census_json_golden(capsys, argv, params, results):
    """The whole JSON reply: each row's estimate and ratio are the table's
    6-significant-digit values, as floats."""
    assert run(capsys, *argv.split(), "--format", "json") == (
        0, _json_reply("census", params, results), "")


def test_census_table_columns_align_at_13_digits(capsys, monkeypatch):
    # the counts are kp_count's; stubbed so that only the layout is under test
    exact = {10**11: 3053140646, 10**12: 27485515099}
    monkeypatch.setattr(census, "census_table", lambda checkpoints, k, family: [
        census.CensusRow(n, exact[n], analytic.kp_estimate(n, 2), exact[n] * log(n) / n)
        for n in checkpoints
    ])
    rc, out, _ = run(capsys, "census", "1e12", "--checkpoints", "1e11,1e12")
    assert rc == 0
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == ["n", "100000000000", "1000000000000"]
    ends = {tuple(m.end() for m in re.finditer(r"\S+", line)) for line in lines}
    assert ends == {(13, 25, 38, 49)}  # n and exact columns widened by one each
    # tables of n <= 999999999999 keep the 12-wide column
    _, out, _ = run(capsys, "census", "1e11")
    assert out.splitlines()[0] == f"{'n':>12} {'exact':>10} {'estimate':>12} {'ratio':>10}"
    assert out.splitlines()[1].startswith("100000000000 3053140646 ")


def test_census_deterministic(capsys):
    args = ("census", "1e4", "--checkpoints", "1e2,1e3,1e4", "--format", "csv")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_digits_table(capsys):
    rc, out, _ = run(capsys, "digits", "30")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split() == ["digit", "count"]
    assert lines[9].split()[:2] == ["8", "3"]
    assert lines[-1].split() == ["total", "6"]
    assert "estimate" in lines[2]  # digit-1 row carries the estimator


def test_digits_csv(capsys):
    rc, out, _ = run(capsys, "digits", "30", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "digit,count"
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert counts == [1, 0, 1, 0, 0, 0, 0, 1, 3, 0]


def test_digits_json(capsys):
    rc, out, _ = run(capsys, "digits", "30", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    counts = [row["count"] for row in doc["results"]]
    assert counts == [1, 0, 1, 0, 0, 0, 0, 1, 3, 0]
    assert doc["results"][1]["estimate"] == pytest.approx(
        analytic.digit1_estimate(30), rel=1e-5)
    assert "estimate" not in doc["results"][0]


def test_digits_validation(capsys):
    assert run(capsys, "digits", "1")[0] == 2


def test_digits_budget_refused_before_enumeration(capsys, monkeypatch):
    def boom(n):
        raise AssertionError(f"digit_census({n}) called")

    monkeypatch.setattr(census, "digit_census", boom)
    rc, out, err = run(capsys, "digits", "100000000001")
    assert rc == 2 and out == ""
    assert err.startswith(
        "error: bound 100000000001 exceeds the class prime-count table budget (100000000000; "
        "the table holds 6.9·isqrt(bound) int64 entries)")
    with pytest.raises(AssertionError, match=r"digit_census\(100000000000\)"):
        main(["digits", "1e11"])  # the largest bound passes the guard


def test_witness_gap(capsys):
    rc, out, _ = run(capsys, "witness", "gap", "6", "--verify")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "gap 6: 18 - 12 = 6  [case EVEN_COMPOSITE_SF]"
    assert lines[1] == "  hi: 18 = 2 · 3²"
    assert lines[2] == "  lo: 12 = 3 · 2²"
    assert lines[3] == "  verify: PASS"


def test_witness_gap_prime_case(capsys):
    rc, out, _ = run(capsys, "witness", "gap", "7", "--verify")
    assert rc == 0
    assert "pell: D=14 (x, y) = (15, 4)" in out
    assert "FAIL" not in out


def test_witness_gap_scaled_case(capsys):
    rc, out, _ = run(capsys, "witness", "gap", "9")
    assert rc == 0
    assert "scaled by t=3 from gap 1" in out


def test_witness_gap_json(capsys):
    rc, out, _ = run(capsys, "witness", "gap", "7", "--format", "json",
                     "--verify")
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "witness gap"
    assert doc["parameters"]["x"] == 7
    (entry,) = doc["results"]
    assert entry["case_tag"] == "PRIME"
    assert entry["verified"] is True
    assert entry["aux"]["pell"]["x"] == 15
    assert entry["hi"]["n"] - entry["lo"]["n"] == 7
    assert out == _json_reply("witness gap", {"x": 7, "verify": True}, [{
        "x": 7, "hi": {"n": 1575, "p": 7, "a": 15}, "lo": {"n": 1568, "p": 2, "a": 28},
        "case_tag": "PRIME", "aux": {"p": 2, "pell": {"D": 14, "x": 15, "y": 4, "norm": 1}},
        "verified": True}])


def test_witness_gap_bad_x(capsys):
    rc, _, err = run(capsys, "witness", "gap", "0")
    assert rc == 2
    assert "requires x >= 1" in err


def test_witness_x2p1(capsys):
    rc, out, _ = run(capsys, "witness", "x2p1", "--count", "3", "--verify")
    assert rc == 0
    assert [line.split()[0] for line in out.splitlines() if line.startswith("x=")] == [
        "x=7:", "x=41:", "x=239:"]
    rc, out, _ = run(capsys, "witness", "x2p1", "--bound", "1100")
    assert rc == 0
    assert "x=7: 50 = 2 · 5²" in out
    assert "x=18: 325 = 13 · 5²" in out
    assert "x=32: 1025 = 41 · 5²" in out


def test_witness_between_squares(capsys):
    rc, out, _ = run(capsys, "witness", "between-squares", "10", "--verify")
    assert rc == 0
    assert out.splitlines()[0] == "x=10: 100 < 128 = 2 · 8² < 144"
    assert "verify: PASS" in out
    assert run(capsys, "witness", "between-squares", "0")[0] == 2


def test_witness_verify_failure(capsys, monkeypatch):
    real = construct.between_squares
    monkeypatch.setattr(construct, "between_squares", lambda x: real(x)._replace(
        sp=SpWitness(162, 2, 9)))
    rc, out, _ = run(capsys, "witness", "between-squares", "10", "--verify")
    assert rc == 1
    assert out.splitlines() == [
        "x=10: 100 < 162 = 2 · 9² < 144",
        "  verify: FAIL (sp.n = 2·n²; x² < sp.n < (x+2)²)",
    ]
    rc, out, _ = run(capsys, "witness", "between-squares", "10", "--verify",
                     "--format", "json")
    assert rc == 1
    assert json.loads(out)["results"][0]["verified"] is False
    # without --verify nothing is checked
    assert run(capsys, "witness", "between-squares", "10")[0] == 0


def test_witness_sum(capsys):
    rc, out, _ = run(capsys, "witness", "sum", "50", "--verify")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "50 = 18 + 32  [q=5 = 2² + 1²]"
    assert lines[1] == "  part1: 18 = 2 · 3²"
    assert lines[2] == "  part2: 32 = 2 · 4²"
    assert lines[3] == "  verify: PASS"


def test_witness_sum_json(capsys):
    part = {"n": 882, "p": 2, "a": 21}
    assert run(capsys, "witness", "sum", "2450", "--verify", "--format", "json") == (
        0, _json_reply("witness sum", {"n": 2450, "verify": True}, [{
            "input": {"n": 2450, "p": 2, "a": 35}, "q": 5, "u": 2, "v": 1,
            "part1": part, "part2": {"n": 1568, "p": 2, "a": 28}, "verified": True}]), "")


def test_witness_sum_negatives(capsys):
    rc, _, err = run(capsys, "witness", "sum", "45")
    assert rc == 1
    assert "no prime factor = 1 (mod 4) in the square base 3" in err
    rc, _, err = run(capsys, "witness", "sum", "7")
    assert rc == 1
    assert "7 is not an SP number" in err


def test_witness_x3p1(capsys):
    rc, out, _ = run(capsys, "witness", "x3p1", "--t-max", "4", "--verify")
    assert rc == 0
    lines = [line for line in out.splitlines() if line.startswith("x=")]
    assert lines[0] == "x=3: t=2 28 = 7 · 2²  curve (p, x, y) = (7, 3, 14)"
    assert lines[1].startswith("x=15: t=4 3376 = 211 · 4²")
    assert "FAIL" not in out
    rc, out, _ = run(capsys, "witness", "x3p1", "--bound", "28")
    assert rc == 0
    assert out.splitlines()[0] == "x=3: 28 = 7 · 2²  curve (p, x, y) = (7, 3, 14)"


@pytest.mark.parametrize("kind, power", [("x2p1", 2), ("x3p1", 3)])
def test_scan_budget_refused_before_scanning(capsys, monkeypatch, kind, power):
    def boom(bound):
        raise AssertionError(f"{kind}_scan({bound}) called")

    monkeypatch.setattr(construct, f"{kind}_scan", boom)
    cap = cli.MAX_SCAN_X**power + 1
    rc, out, err = run(capsys, "witness", kind, "--bound", str(cap + 1))
    assert rc == 2 and out == ""
    cost = {"x2p1": "the kernel sieve runs over x in windows",
            "x3p1": "the candidate scan trial-divides about 1.6·√x_max values"}[kind]
    assert err.startswith(f"error: bound {cap + 1} exceeds the {kind} scan budget "
                          f"(x <= 10000000, so bound <= {cap}; {cost}")
    with pytest.raises(AssertionError, match=rf"{kind}_scan\({cap}\)"):
        main(["witness", kind, "--bound", str(cap)])  # the largest bound passes the guard


def test_family_budget_refused_before_looping(capsys, monkeypatch):
    def boom(t_max):
        raise AssertionError(f"x3p1_family({t_max}) called")

    monkeypatch.setattr(construct, "x3p1_family", boom)
    cap = cli.MAX_FAMILY_T
    rc, out, err = run(capsys, "witness", "x3p1", "--t-max", str(cap + 1))
    assert rc == 2 and out == ""
    assert err.startswith(f"error: --t-max {cap + 1} exceeds the x3p1 family budget ({cap};")
    with pytest.raises(AssertionError, match=rf"x3p1_family\({cap}\)"):
        main(["witness", "x3p1", "--t-max", str(cap)])  # the largest t passes the guard


def test_witness_x3p1_json(capsys):
    rc, out, _ = run(capsys, "witness", "x3p1", "--t-max", "4",
                     "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert [r["t"] for r in doc["results"]] == [2, 4]
    assert doc["results"][0]["curve_point"] == [7, 3, 14]


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("kind, bound", [("x2p1", 10**7), ("x3p1", 10**12)])
def test_scan_verify_checks_each_witness_once(capsys, monkeypatch, kind, bound, fmt):
    """--verify on a --bound scan reports the scan's own checks() gate: one
    checks() call per witness, not a second proof of its prime.  The x3p1
    scan also runs checks() once on each candidate it left undecided, whose
    only failure must then be its prime."""
    cls = {"x2p1": construct.X2p1Witness, "x3p1": construct.X3p1ScanWitness}[kind]
    checked = {}
    real = cls.checks

    def checks(self):
        assert self.x not in checked, self.x
        checked[self.x] = real(self)
        return checked[self.x]

    monkeypatch.setattr(cls, "checks", checks)
    rc, out, _ = run(capsys, "witness", kind, "--bound", str(bound), "--verify", "--format", fmt)
    assert rc == 0
    if fmt == "json":
        results = json.loads(out)["results"]
        assert all(r["verified"] for r in results)
        xs = [r["x"] for r in results]
    else:
        lines = out.splitlines()
        assert lines[1::2] == ["  verify: PASS"] * (len(lines) // 2)
        xs = [int(line.split(":")[0][2:]) for line in lines[::2]]
    assert len(xs) > 10 and all(checked[x] == [] for x in xs)
    dropped = set(checked) - set(xs)
    assert all(checked[x] == ["sp.p prime"] for x in dropped)
    assert bool(dropped) == (kind == "x3p1")


def test_pell(capsys):
    rc, out, _ = run(capsys, "pell", "61")
    assert rc == 0
    assert out == "x=1766319049 y=226153980  [x² - 61·y² = +1]\n"


def test_pell_negative_norm(capsys):
    rc, out, _ = run(capsys, "pell", "2", "--norm", "-1", "--count", "3")
    assert rc == 0
    assert [line.split()[0] for line in out.splitlines()] == [
        "x=1", "x=7", "x=41"]


def test_pell_unsolvable(capsys):
    rc, _, err = run(capsys, "pell", "3", "--norm", "-1")
    assert rc == 1
    assert "no integer solution" in err


def test_pell_square_d(capsys):
    rc, _, err = run(capsys, "pell", "4")
    assert rc == 2
    assert "non-square" in err


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="no int-to-str digit limit in this interpreter")
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_pell_past_digit_limit_writes_nothing(capsys, fmt):
    # the D = 61 solutions gain 9.5 digits each, so the last one passes the limit
    count = str(_DIGIT_LIMIT // 9 + 1)
    rc, out, err = run(capsys, "pell", "61", "--count", count, "--format", fmt)
    assert (rc, out) == (2, "")
    assert f"limit ({_DIGIT_LIMIT} digits)" in err


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="no int-to-str digit limit in this interpreter")
@pytest.mark.parametrize("verify", [[], ["--verify"]])
def test_witness_past_digit_limit_writes_nothing(capsys, monkeypatch, verify):
    big = 10**_DIGIT_LIMIT  # one digit past the limit
    huge = construct.X2p1Witness(big, SpWitness(big**2 + 1, 2, big))
    stream = [construct.x2p1_stream(1)[0], huge]
    monkeypatch.setattr(construct, "x2p1_stream", lambda count, start: stream)
    rc, out, err = run(capsys, "witness", "x2p1", *verify)
    assert (rc, out) == (2, "")
    assert f"limit ({_DIGIT_LIMIT} digits)" in err


@pytest.mark.skipif(_DIGIT_LIMIT != 4300, reason="counts pinned at the default digit limit")
def test_pell_count_below_digit_limit_still_answers(capsys):
    # the x of solution 5617 of x² - 2y² = 1 has 4300 digits, that of 5618 has 4301
    rc, out, _ = run(capsys, "pell", "2", "--count", "5617")
    assert rc == 0 and len(out.splitlines()) == 5617


@pytest.mark.skipif(_DIGIT_LIMIT != 4300, reason="counts pinned at the default digit limit")
@pytest.mark.parametrize("argv, squared", [
    (["pell", "2", "--count", "6000"], []),
    # the x² - 2y² = -1 stream's unit is its first solution (1, 1) squared
    (["witness", "x2p1", "--count", "6000", "--verify"], [pell.PellSolution(2, 1, 1, -1)]),
], ids=["pell", "x2p1"])
def test_count_past_digit_limit_refused_before_composing(capsys, monkeypatch, argv, squared):
    """No solution of the stream is composed; only stream_start's unit is."""
    calls = []
    real = pell.compose
    monkeypatch.setattr(pell, "compose", lambda s1, s2: calls.append((s1, s2)) or real(s1, s2))
    rc, out, err = run(capsys, *argv)
    assert (rc, out, calls) == (2, "", [(s, s) for s in squared])
    assert err.startswith("error: --count 6000 exceeds the digit budget: the last ")
    assert "limit (4300 digits)" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit to set")
@pytest.mark.parametrize("argv, limit, what", [
    (["pell", "3", "--count", "7519"], 4300, "the last x"),
    (["witness", "x2p1", "--count", "418"], 640, "the last n = x²+1"),
], ids=["pell", "x2p1"])
def test_count_just_past_digit_limit_refused_by_name(capsys, argv, limit, what):
    """The bound that refuses a stream before composing can fall short by up
    to log10 4, and these counts get past it: the composed last x or n then
    refuses them by name, not by the interpreter's own text, while one count
    less answers."""
    count = int(argv[-1])
    try:
        sys.set_int_max_str_digits(limit)
        refused = run(capsys, *argv)
        rc, out, _ = run(capsys, *argv[:-1], str(count - 1))
    finally:
        sys.set_int_max_str_digits(_DIGIT_LIMIT)
    assert refused == (2, "", (
        f"error: --count {count} exceeds the digit budget: {what} would have more than "
        f"{limit} digits, past the interpreter's int-to-str limit ({limit} digits), "
        "which PYTHONINTMAXSTRDIGITS sets\n"))
    assert rc == 0 and len(out.splitlines()) == count - 1


@pytest.mark.skipif(_DIGIT_LIMIT != 4300, reason="gaps pinned at the default digit limit")
@pytest.mark.parametrize("argv", [
    ["witness", "gap", "10000019"],
    ["witness", "gap", "100000007", "--verify", "--format", "json"],
    ["witness", "gap", "400000028"],  # 4·100000007: the Pell pair, scaled by 2
])
def test_gap_pair_past_digit_limit_refused(capsys, argv):
    """A prime gap's Pell pair that passes the digit limit is refused by name,
    not by the interpreter's own text, while the 1197-digit pair of 1000003 still prints."""
    assert run(capsys, *argv) == (2, "", (
        f"error: gap {argv[2]} exceeds the digit budget: the pair's larger member hi.n "
        "would have more than 4300 digits, past the interpreter's int-to-str limit "
        "(4300 digits), which PYTHONINTMAXSTRDIGITS sets\n"))
    rc, out, _ = run(capsys, "witness", "gap", "1000003")
    assert rc == 0 and len(out.split()[2]) == 1197  # hi.n


@pytest.mark.skipif(_DIGIT_LIMIT != 4300, reason="bounds pinned at the default digit limit")
@pytest.mark.parametrize("fmt", [[], ["--verify", "--format", "json"]])
def test_between_squares_past_digit_limit_refused(capsys, monkeypatch, fmt):
    """An x whose (x + 2)² passes the digit limit is refused by name before
    any witness is built, while x = 10^2149, whose (x + 2)² has 4299 digits,
    still prints."""
    nines = "9" * 2200
    monkeypatch.setattr(construct, "between_squares", lambda x: pytest.fail("built"))
    assert run(capsys, "witness", "between-squares", nines, *fmt) == (2, "", (
        f"error: between-squares {nines} exceeds the digit budget: the bound (x+2)² "
        "would have more than 4300 digits, past the interpreter's int-to-str limit "
        "(4300 digits), which PYTHONINTMAXSTRDIGITS sets\n"))
    monkeypatch.undo()
    rc, out, _ = run(capsys, "witness", "between-squares", "1e2149")
    assert rc == 0 and len(out.split()[-1]) == 4299  # (x + 2)²


@pytest.mark.skipif(_DIGIT_LIMIT != 4300, reason="bounds pinned at the default digit limit")
def test_between_squares_digit_budget_is_exact(capsys):
    """(x + 2)² = 10^4300 has 4301 digits and is refused by name; one less
    x gives (10^2150 - 1)², 4300 digits, and answers."""
    x = 10**2150 - 2
    assert run(capsys, "witness", "between-squares", str(x)) == (2, "", (
        f"error: between-squares {x} exceeds the digit budget: the bound (x+2)² "
        "would have more than 4300 digits, past the interpreter's int-to-str limit "
        "(4300 digits), which PYTHONINTMAXSTRDIGITS sets\n"))
    rc, out, _ = run(capsys, "witness", "between-squares", str(x - 1))
    assert rc == 0 and out.split()[-1] == str((x + 1) ** 2)


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="no int-to-str digit limit in this interpreter")
def test_gap_digit_budget_is_exact(capsys):
    """The Pell pair of the prime 43997 has a 698-digit hi.n: refused by name
    at a limit of 697 digits, printed at 698."""
    try:
        sys.set_int_max_str_digits(697)
        assert run(capsys, "witness", "gap", "43997") == (2, "", (
            "error: gap 43997 exceeds the digit budget: the pair's larger member hi.n "
            "would have more than 697 digits, past the interpreter's int-to-str limit "
            "(697 digits), which PYTHONINTMAXSTRDIGITS sets\n"))
        sys.set_int_max_str_digits(698)
        rc, out, _ = run(capsys, "witness", "gap", "43997")
    finally:
        sys.set_int_max_str_digits(_DIGIT_LIMIT)
    assert rc == 0 and len(out.split()[2]) == 698  # hi.n


@pytest.mark.parametrize("argv, solves", [
    (["pell", "61", "--count", "3"], {"fundamental_solution": [61]}),
    (["pell", "13", "--count", "0"], {"fundamental_solution": [13]}),
    (["pell", "2", "--norm", "-1", "--count", "4"], {"negative_fundamental": [2]}),
    (["witness", "x2p1", "--count", "3"], {"negative_fundamental": [2]}),
], ids=["norm+1", "count0", "norm-1", "x2p1"])
def test_pell_solves_once_per_request(capsys, monkeypatch, argv, solves):
    """The digit budget and the stream share one stream_start solve; a -1
    stream squares its continued-fraction solution for the unit.  witness
    x2p1 --count hands its budget's solve to construct.x2p1_stream."""
    calls = {}
    for name in ("fundamental_solution", "negative_fundamental"):
        real = getattr(pell, name)
        monkeypatch.setattr(pell, name, lambda d, name=name, real=real:
                            calls.setdefault(name, []).append(d) or real(d))
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and len(out.splitlines()) == int(argv[-1])
    assert calls == solves


def test_pell_negative_norm_walk_budget_refused_by_name(capsys, monkeypatch):
    """A period past the walk's step budget is refused with exit 2 and the
    budget's own text; 4909 has a period of 141 steps."""
    monkeypatch.setattr(pell, "_PERIOD_STEPS", 140)
    assert run(capsys, "pell", "4909", "--norm", "-1", "--count", "0") == (2, "", (
        "error: the continued fraction of sqrt(4909) has a period of more than 140 steps, "
        "the walk's budget (every D <= 10**12 fits within it)\n"))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit to set")
@pytest.mark.parametrize("argv, d", [
    (["pell", "1000000000039"], 1000000000039),
    (["witness", "gap", "1000000000039"], 2000000000078),  # the prime x's Pell D is 2·x
], ids=["pell", "gap"])
def test_chakravala_step_budget_refused_by_name(capsys, monkeypatch, argv, d):
    """With no digit limit nothing stops chakravala early: past its step
    budget the solve is refused with exit 2 and the budget's own text."""
    monkeypatch.setattr(pell, "_CHAKRAVALA_STEPS", 50)
    try:
        sys.set_int_max_str_digits(0)
        result = run(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(_DIGIT_LIMIT)
    assert result == (2, "", (
        f"error: chakravala did not reach the fundamental solution for D={d} "
        "within 50 steps, its step budget\n"))


def test_pell_json(capsys):
    rc, out, _ = run(capsys, "pell", "6", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["results"] == [{"D": 6, "x": 5, "y": 2, "norm": 1}]
    assert run(capsys, "pell", "13", "--count", "2", "--format", "json") == (
        0, _json_reply("pell", {"D": 13, "norm": 1, "count": 2}, [
            {"D": 13, "x": 649, "y": 180, "norm": 1},
            {"D": 13, "x": 842401, "y": 233640, "norm": 1}]), "")


def test_estimate_zeta(capsys):
    rc, out, _ = run(capsys, "estimate", "zeta", "2")
    assert rc == 0
    assert out.startswith("zeta(2) = 1.64493406685 ")
    assert "abs error <=" in out


def test_estimate_prime_zeta(capsys):
    rc, out, _ = run(capsys, "estimate", "prime-zeta", "2")
    assert rc == 0
    assert out.startswith("P(2) = 0.452247420041 ")


def test_estimate_hurwitz(capsys):
    rc, out, _ = run(capsys, "estimate", "hurwitz", "1/10")
    assert rc == 0
    assert out.startswith("zeta(2, 1/10) = 101.433299151 ")
    rc, out, _ = run(capsys, "estimate", "hurwitz", "0.5")
    assert rc == 0
    assert out.startswith("zeta(2, 1/2) = ")


def test_estimate_json(capsys):
    rc, out, _ = run(capsys, "estimate", "zeta", "2", "--format", "json")
    assert rc == 0
    (row,) = json.loads(out)["results"]
    assert row["label"] == "zeta(2)"
    assert row["value"] == pytest.approx(1.64493406685, abs=1e-11)
    assert row["abs_error_bound"] <= 1e-12
    rc, out, _ = run(capsys, "estimate", "hurwitz", "2/6", "--format", "json")
    doc = json.loads(out)
    assert (rc, doc["parameters"]) == (0, {"what": "hurwitz", "value": "2/6"})  # as typed
    assert doc["results"][0]["label"] == "zeta(2, 1/3)"


def test_estimate_errors(capsys):
    assert run(capsys, "estimate", "zeta", "1")[0] == 2
    assert run(capsys, "estimate", "zeta", "2.5")[0] == 2
    assert run(capsys, "estimate", "hurwitz", "0")[0] == 2
    assert run(capsys, "estimate", "hurwitz", "3/2")[0] == 2
    assert run(capsys, "estimate", "hurwitz", "abc")[0] == 2


@pytest.mark.parametrize("argv, err", [
    ("estimate zeta abc", "error: not a number: 'abc'\n"),
    ("estimate zeta 2.5", "error: not an integer: '2.5'\n"),
    ("estimate prime-zeta 2.5", "error: not an integer: '2.5'\n"),
    ("estimate prime-zeta inf", "error: not a finite number: 'inf'\n"),
    ("estimate hurwitz 1/0", "error: zero denominator: '1/0'\n"),
    # past the float range: refused on the exact q, not by float(q)'s OverflowError
    ("estimate hurwitz 1e400", f"error: hurwitz_zeta2 requires 0 < q <= 1, got {10**400}\n"),
    # q^-2 past the float range, where (j + q)^-2 at j = 0 once raised OverflowError
    *[(f"estimate hurwitz 1e-{e}",
       f"error: hurwitz_zeta2 requires q^-2 within the float range, got 1/{10**e}\n")
      for e in (160, 300)],
])
def test_estimate_refusals_quote_the_input(capsys, argv, err):
    assert run(capsys, *argv.split()) == (2, "", err)


@pytest.mark.parametrize("what, label", [("zeta", "zeta"), ("prime-zeta", "P")])
def test_estimate_reads_k_like_every_integer_argument(capsys, what, label):
    expected = run(capsys, "estimate", what, "10")
    assert expected[1].startswith(f"{label}(10) = ")
    for text in ("1e1", "10.0"):
        assert run(capsys, "estimate", what, text) == expected
    rc, out, _ = run(capsys, "estimate", what, "1e400", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["parameters"] == {"what": what, "value": "1e400"}
    assert doc["results"][0]["label"] == f"{label}({10**400})"


def test_bunyakovsky_report(capsys):
    rc, out, _ = run(capsys, "bunyakovsky-report")
    assert rc == 0
    assert "polynomial           t^4 - 3*t^2 + 3" in out
    assert "irreducible          True" in out
    assert "gcd = 1" in out
    assert "gcd(g(2), g(3)) = 5" in out
    assert "[fails both -> constant term 3 confirmed]" in out


def test_bunyakovsky_json(capsys):
    rc, out, _ = run(capsys, "bunyakovsky-report", "--format", "json")
    assert rc == 0
    (row,) = json.loads(out)["results"]
    assert row["gcd_f2_f3"] == 1
    assert row["variant_gcd_f2_f3"] == 5
    assert row["irreducible"] is True
    assert row["variant_irreducible"] is False
    assert row["running_gcd"] == [[1, 1]]
    assert out == _json_reply("bunyakovsky-report", {}, [{
        "polynomial": "t^4 - 3*t^2 + 3", "leading_coefficient": 1, "leading_positive": True,
        "rational_root_candidates": [-3, -1, 1, 3], "has_rational_root": False,
        "has_quadratic_split": False, "irreducible": True, "identity_checked": True,
        "f2": 7, "f3": 57, "gcd_f2_f3": 1, "running_gcd": [[1, 1]], "fixed_divisor_free": True,
        "variant_polynomial": "t^4 - 3*t^2 + 1", "variant_gcd_f2_f3": 5,
        "variant_irreducible": False}])


class _Unrenderable(int):
    """An int that will not render, as one past the int-to-str digit limit."""

    def __format__(self, spec):
        raise ValueError("unrenderable")


def _fmt6_fails(monkeypatch):
    def fmt6(x):
        raise ValueError("unrenderable")

    monkeypatch.setattr(cli, "_fmt6", fmt6)


def _second_pell_solution_fails(monkeypatch):
    monkeypatch.setattr(pell, "solution_stream", lambda *args: [
        pell.PellSolution(2, 3, 2, 1), pell.PellSolution(2, _Unrenderable(17), 12, 1)])


def _second_x2p1_witness_fails(monkeypatch):
    monkeypatch.setattr(construct, "x2p1_stream", lambda count, start: [
        construct.X2p1Witness(7, SpWitness(50, 2, 5)),
        construct.X2p1Witness(_Unrenderable(18), SpWitness(325, 13, 5))])


def _second_digit_row_fails(monkeypatch):
    monkeypatch.setattr(census, "digit_census", lambda n: census.DigitCensus(
        n, (3, _Unrenderable(5)) + (0,) * 8))


def _second_report_line_fails(monkeypatch):
    rep = construct.bunyakovsky_report()._replace(leading_coefficient=_Unrenderable(1))
    monkeypatch.setattr(construct, "bunyakovsky_report", lambda: rep)


def _classify_line_fails(monkeypatch):
    monkeypatch.setattr(cli, "kp_decompose", lambda n, k: SpWitness(_Unrenderable(75), 3, 5))


@pytest.mark.parametrize("argv, break_rendering", [
    ("census 1000", _fmt6_fails),
    ("census 1000 --format csv", _fmt6_fails),
    ("census 1000 --format json", _fmt6_fails),
    ("digits 1000", _fmt6_fails),
    ("digits 1000 --format csv", _second_digit_row_fails),
    ("digits 1000 --format json", _fmt6_fails),
    ("estimate zeta 3", _fmt6_fails),
    ("pell 2 --count 2", _second_pell_solution_fails),
    ("witness x2p1 --count 2", _second_x2p1_witness_fails),
    ("bunyakovsky-report", _second_report_line_fails),
    ("classify 75", _classify_line_fails),
], ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_reply_that_fails_to_render_leaves_stdout_empty(capsys, monkeypatch, argv,
                                                        break_rendering):
    """Every command renders its whole reply before main writes any of it,
    so a line that fails to render after the first leaves stdout empty and
    exits 2.  No real input reaches this today, since census counts and
    floats always render; the one real case, an int past the digit limit,
    is covered by the pell and x2p1 tests above."""
    break_rendering(monkeypatch)
    assert run(capsys, *argv.split()) == (2, "", "error: unrenderable\n")


def _readme_examples() -> list[tuple[str, str]]:
    """(arguments, stdout) of each `$ spnum …` example in the README's
    command-line block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```text\n", 1)[1].split("```", 1)[0]
    return [(args, out.rstrip("\n") + "\n")
            for args, out in (ex.split("\n", 1) for ex in block.split("$ spnum ")[1:])]


@pytest.mark.parametrize("args, expected", [
    pytest.param(args, out, id=args) for args, out in _readme_examples()])
def test_readme_examples(capsys, args, expected):
    assert run(capsys, *args.split())[:2] == (0, expected)


def test_every_exported_name_exists():
    for info in pkgutil.iter_modules(spnum.__path__):
        mod = importlib.import_module(f"spnum.{info.name}")
        assert [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)] == [], info.name


def _child_env() -> dict:
    """The environment of a child that imports spnum from wherever this
    process did (src/ or an install)."""
    src = str(Path(spnum.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spnum.cli", "classify", "75"],
        capture_output=True, text=True, timeout=60, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout.strip() == "75 = 3 · 5²"


# One shell invocation per command: which of the modules a command may not
# need it leaves loaded.
_WATCHED = ("numpy", "spnum._scan", "dataclasses", "decimal", "fractions",
            "spnum.analytic", "spnum.pell")
_COLD_CHILD = """
import contextlib, io, json, sys
from spnum.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = main(json.loads(sys.argv[1]))
print(json.dumps([rc, [name for name in json.loads(sys.argv[2]) if name in sys.modules]]))
"""


def _cold_run(argv: list[str]) -> tuple[int, set[str]]:
    """(exit code, the _WATCHED modules loaded) after main(argv) in a fresh
    interpreter importing spnum from where this process did."""
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_CHILD, json.dumps(argv), json.dumps(_WATCHED)],
        capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    rc, loaded = json.loads(proc.stdout)
    return rc, set(loaded)


@pytest.mark.parametrize("argv", [
    ["classify", "75"],
    ["classify", "24", "--k", "3"],
    ["pell", "61", "--count", "3"],
    ["pell", "2", "--norm", "-1", "--count", "3"],
    ["estimate", "zeta", "3"],
    ["estimate", "prime-zeta", "2"],
    ["estimate", "hurwitz", "1/3"],
    ["witness", "gap", "1000", "--verify"],
    ["witness", "sum", "2450", "--verify"],
    ["witness", "between-squares", "1000000", "--verify"],
    ["witness", "x2p1", "--count", "5", "--verify"],
    ["witness", "x3p1", "--t-max", "30", "--verify"],
    ["bunyakovsky-report"],
], ids=" ".join)
def test_cold_path_answers_without_numpy(argv):
    rc, loaded = _cold_run(argv)
    assert (rc, loaded & {"numpy", "spnum._scan", "dataclasses"}) == (0, set())


@pytest.mark.parametrize("argv, loaded", [
    (["classify", "75"], set()),
    (["classify", "24", "--k", "3"], set()),
    (["pell", "61", "--count", "3"], {"spnum.pell"}),
    (["witness", "gap", "7", "--verify", "--format", "json"], {"spnum.pell"}),
    (["estimate", "hurwitz", "1/3"], {"decimal", "fractions", "spnum.analytic"}),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_cold_path_loads_only_what_it_runs(argv, loaded):
    """classify loads no Decimal, Fraction, analytic or pell, pell no
    analytic, and no command the dataclasses machinery."""
    assert _cold_run(argv) == (0, loaded)


@pytest.mark.parametrize("argv", [
    ["census", "1e4"],
    ["digits", "1e4"],
    ["witness", "x2p1", "--bound", "1000"],
    ["witness", "x3p1", "--bound", "1000"],
], ids=" ".join)
def test_tables_and_scans_load_numpy(argv):
    rc, loaded = _cold_run(argv)
    assert (rc, "numpy" in loaded, "dataclasses" in loaded) == (0, True, False)


_PRIMORIAL_CHILD = """
import contextlib, io, json, sys
from spnum import arith
from spnum.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(json.loads(sys.argv[1]))
print(json.dumps([rc, arith._gcd_primorial.cache_info().currsize]))
"""


@pytest.mark.parametrize("n, rc, built", [
    ("75", 0, 0),
    ("1000003", 1, 0),  # a prime past trial division: one is_prime, no split
    ("1087899640733", 0, 1),  # 1013 · 32771²: split by the gcd
])
def test_gcd_primorial_built_only_when_a_cofactor_is_split(n, rc, built):
    """The product of the primes in (1000, 2^15) is built on the first
    cofactor that needs a split, never at import or for classify 75."""
    proc = subprocess.run([sys.executable, "-c", _PRIMORIAL_CHILD, json.dumps(["classify", n])],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert (proc.returncode, json.loads(proc.stdout)) == (0, [rc, built]), proc.stderr


def test_census_loads_neither_classify_nor_heapq():
    """census counts by the identity only; the heap-merge enumerator is a
    test oracle, so importing census loads no classify and no heapq."""
    code = "import sys, spnum.census; print(sorted({'spnum.classify', 'heapq'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


_TIMED_CHILD = """
import contextlib, io, json, sys, time
from spnum.cli import main
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = main(json.loads(sys.argv[1]))
print(json.dumps([rc, out.getvalue(), time.perf_counter() - start]))
"""


def test_classify_3pq_answers_without_rho():
    """3·P·Q with 20-digit primes P, Q: the stray 3 and a rest P·Q that is no
    square decide "not SP" at once, where rho on P·Q would not end.  (4·P·Q
    and P·Q alone still need rho.)"""
    n = 3 * (10**19 + 51) * (3 * 10**19 + 41)
    proc = subprocess.run([sys.executable, "-c", _TIMED_CHILD, json.dumps(["classify", str(n)])],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    rc, out, seconds = json.loads(proc.stdout)
    assert (rc, out) == (1, f"{n} is not a KP_2 number\n")
    assert seconds < 1


def test_sum_of_a_41_digit_square_base_answers_at_once():
    """witness sum 3·q², q the least prime = 1 (mod 4) above 10^40: finding
    q = u² + v² takes a few modular powers, where a descent over u from √q
    would not end."""
    q = next(m for m in range(10**40 + 1, 10**40 + 10**4, 4) if is_prime(m))
    n = 3 * q * q
    proc = subprocess.run(
        [sys.executable, "-c", _TIMED_CHILD, json.dumps(["witness", "sum", str(n), "--verify"])],
        capture_output=True, text=True, timeout=60, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    rc, out, seconds = json.loads(proc.stdout)
    assert (rc, out.splitlines()[-1]) == (0, "  verify: PASS")
    assert seconds < 1


@pytest.mark.skipif(_DIGIT_LIMIT != 4300, reason="text pinned at the default digit limit")
@pytest.mark.parametrize("value", ["1e-100000000", "1/" + "7" * 4301, "7" * 4301 + "/8"],
                         ids=["1e-100000000", "4301-digit denominator", "4301-digit numerator"])
def test_hurwitz_value_past_digit_limit_refused_unbuilt(value):
    """A value whose text shows it past the limit is refused by name at once:
    10^(10^8) is never built, and int() never refuses a side of a/b in
    CPython's own words."""
    proc = subprocess.run(
        [sys.executable, "-c", _TIMED_CHILD, json.dumps(["estimate", "hurwitz", value])],
        capture_output=True, text=True, timeout=60, env=_child_env())
    rc, out, seconds = json.loads(proc.stdout)
    assert (rc, out, proc.stderr) == (2, "", (
        "error: the value's numerator or denominator has more than 4300 digits, the "
        "interpreter's int-to-str limit, which PYTHONINTMAXSTRDIGITS sets\n"))
    assert seconds < 1


def _timed_run(argv: list[str]) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, seconds in main) of main(argv) in a fresh
    interpreter, which fails the test past 20 s instead of hanging it."""
    proc = subprocess.run([sys.executable, "-c", _TIMED_CHILD, json.dumps(argv)],
                          capture_output=True, text=True, timeout=20, env=_child_env())
    rc, out, seconds = json.loads(proc.stdout)
    return rc, out, proc.stderr, seconds


_DIGIT_BUDGET = ("exceeds the digit budget: {} would have more than 4300 digits, past the "
                 "interpreter's int-to-str limit (4300 digits), which PYTHONINTMAXSTRDIGITS sets\n")


@pytest.mark.skipif(_DIGIT_LIMIT != 4300, reason="text pinned at the default digit limit")
@pytest.mark.parametrize("argv, rc, out, err", [
    pytest.param(*case, id=case[0]) for case in [
        ("pell 10000000019", 2, "", "error: --count 1 " + _DIGIT_BUDGET.format("the last x")),
        ("pell 1000000000039", 2, "", "error: --count 1 " + _DIGIT_BUDGET.format("the last x")),
        ("witness gap 10000000019", 2, "",
         "error: gap 10000000019 " + _DIGIT_BUDGET.format("the pair's larger member hi.n")),
        ("witness gap 1000000000039", 2, "",
         "error: gap 1000000000039 " + _DIGIT_BUDGET.format("the pair's larger member hi.n")),
        ("witness gap 4000000000156 --verify --format json", 2, "",  # 4·1000000000039
         "error: gap 4000000000156 " + _DIGIT_BUDGET.format("the pair's larger member hi.n")),
        ("pell 1000000000039 --count 0", 0, "", ""),
        ("pell 1000000000039 --count 0 --format json", 0,
         _json_reply("pell", {"D": 1000000000039, "norm": 1, "count": 0}, []), ""),
        # 3 (mod 4): no -1 solution, with no walk
        ("pell 1000000000039 --norm -1", 1, "",
         "x^2 - 1000000000039*y^2 = -1 has no integer solution\n"),
        ("pell 1000000000037 --norm -1", 1, "",  # 53·59·349·916319: 59 = 3 (mod 4)
         "x^2 - 1000000000037*y^2 = -1 has no integer solution\n"),
        # 67·79·18307·103200291611: 67 = 3 (mod 4), and a period past the walk's budget
        ("pell 10000000000000000061 --norm -1", 1, "",
         "x^2 - 10000000000000000061*y^2 = -1 has no integer solution\n"),
        ("pell 1000000000061 --norm -1", 2, "",  # an odd period of 596837 steps
         "error: --count 1 " + _DIGIT_BUDGET.format("the last x")),
        ("pell 1000000000061 --norm -1 --count 0", 0, "", ""),
    ]
])
def test_pell_solve_stops_at_the_digit_limit(argv, rc, out, err):
    """chakravala for these D would run a period of hundreds of thousands of
    steps with ever larger integers; it stops once its iterate reaches
    10**4300.  The -1 walk must see the whole period, but its convergents
    stop growing there too.  Each reply is the one the whole solve gives."""
    got = _timed_run(argv.split())
    assert got[:3] == (rc, out, err)
    assert got[3] < 1


@pytest.mark.skipif(_DIGIT_LIMIT != 4300, reason="text pinned at the default digit limit")
@pytest.mark.parametrize("value, err", [
    pytest.param(*case, id=case[0]) for case in [
        ("1e-99999999999999999999", "the value's numerator or denominator has more than 4300 "
         "digits, the interpreter's int-to-str limit, which PYTHONINTMAXSTRDIGITS sets"),
        ("1e99999999999999999999", "the value's numerator or denominator has more than 4300 "
         "digits, the interpreter's int-to-str limit, which PYTHONINTMAXSTRDIGITS sets"),
        ("0e-10000000", "hurwitz_zeta2 requires 0 < q <= 1, got 0"),
        ("0e-99999999999999999999", "hurwitz_zeta2 requires 0 < q <= 1, got 0"),
        ("+0E+99999999999999999999", "hurwitz_zeta2 requires 0 < q <= 1, got 0"),
        ("1e 99999999999999999999", "Invalid literal for Fraction: '1e 99999999999999999999'"),
        ("1e5e99999999999999999999", "Invalid literal for Fraction: '1e5e99999999999999999999'"),
    ]
])
def test_hurwitz_exponent_read_by_int_answers_at_once(value, err):
    """An exponent past Decimal's range is read by int() and refused by name,
    a zero decimal is 0 without 10**|exponent| being built, and text that
    neither reads still gets Fraction's own words."""
    rc, out, got, seconds = _timed_run(["estimate", "hurwitz", value])
    assert (rc, out, got) == (2, "", f"error: {err}\n")
    assert seconds < 1


def test_names_the_benchmark_imports_resolve():
    """perfbench imports these names from the library; they must stay."""
    assert cli.main is main
    assert callable(pell.cf_fundamental)
    assert construct.sieve_primes is arith.sieve_primes
