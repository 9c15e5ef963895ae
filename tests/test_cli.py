"""Command-line interface: problem-file parsing, exit codes, output formats."""

import argparse
import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as Fr
from pathlib import Path

import pytest

import regsing
from regsing.cli import (
    _FAMILY_CLI,
    ParseError,
    SchemaError,
    build_parser,
    cmd_eval,
    dump_problem,
    main,
    parse_problem,
)
from regsing.logseries import DomainError, LogSeries, evaluate
from regsing.mellin import (
    _FAMILY_PARAMS,
    PowerData,
    catalog_family,
    evaluate_power,
    mellin_integrand,
    residue_eval,
)


BESSEL_DOC = {
    "kind": "two_point",
    "p": {"-1": "1"},
    "q": {"-2": "-1/9", "0": "1"},
    "series_cutoff": 12,
}


@pytest.fixture
def bessel_json(tmp_path):
    path = tmp_path / "bessel.json"
    path.write_text(json.dumps(BESSEL_DOC))
    return str(path)


@pytest.fixture
def struve_json(tmp_path):
    doc = {
        "kind": "two_point",
        "p": {"-1": "1"},
        "q": {"-2": "-1/9", "0": "1"},
        "rhs": [{"sigma": "-2/3", "coeff": "1"}],
        "series_cutoff": 12,
    }
    path = tmp_path / "struve.json"
    path.write_text(json.dumps(doc))
    return str(path)


# ------------------------------------------------------------ problem files

def test_parse_problem_reads_rationals_exactly(bessel_json):
    prob = parse_problem(bessel_json)
    assert prob.kind == "two_point"
    assert prob.p(-1) == 1 and isinstance(prob.p_coeffs[-1], Fr)
    assert prob.q(-2) == Fr(-1, 9)
    assert prob.q(0) == 1
    assert prob.series_cutoff == 12


def test_missing_q_minus2_defaults_to_zero(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"kind": "two_point", "q": {"0": "1"}}))
    prob = parse_problem(path)
    assert prob.q(-2) == 0
    assert prob.p(-1) == 0


def test_unknown_top_level_key_is_schema_error(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"kind": "two_point", "r": {"0": "1"}}))
    with pytest.raises(SchemaError, match="unknown keys.*'r'"):
        parse_problem(path)


def test_missing_kind_is_schema_error(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"p": {"-1": "1"}}))
    with pytest.raises(SchemaError, match="missing required key 'kind'"):
        parse_problem(path)


def test_bad_kind_value_is_schema_error(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"kind": "four_point"}))
    with pytest.raises(SchemaError, match="two_point"):
        parse_problem(path)


@pytest.mark.parametrize("name, index", [("p", -2), ("q", -3)])
def test_index_below_its_bound_is_schema_error(tmp_path, name, index):
    # the bounds p_{>=-1} and q_{>=-2} are OdeProblem's
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"kind": "two_point", name: {str(index): "1"}}))
    with pytest.raises(SchemaError, match=f"{name} indices start at {index + 1}"):
        parse_problem(path)


def test_float_coefficient_is_parse_error_with_field(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"kind": "two_point", "q": {"0": 0.5}}))
    with pytest.raises(ParseError, match=r"q\[0\]"):
        parse_problem(path)


def test_malformed_rational_names_the_field(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"kind": "two_point", "p": {"-1": "one"}}))
    with pytest.raises(ParseError, match=r"p\[-1\]"):
        parse_problem(path)


def test_invalid_json_reports_line_and_column(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"kind": "two_point",\n  "p": }')
    with pytest.raises(ParseError, match=r":2:\d+:"):
        parse_problem(path)


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        parse_problem(tmp_path / "nope.json")


def test_bad_rhs_entry_is_schema_error(tmp_path):
    path = tmp_path / "p.json"
    base = {"kind": "two_point", "q": {"0": "1"}}
    path.write_text(json.dumps({**base, "rhs": [{"coeff": "1", "side": 2}]}))
    with pytest.raises(SchemaError, match="unknown keys"):
        parse_problem(path)
    path.write_text(json.dumps({**base, "rhs": [{"power": 1}]}))
    with pytest.raises(SchemaError, match="coeff"):
        parse_problem(path)
    path.write_text(json.dumps({**base, "rhs": [{"coeff": "1", "power": -2}]}))
    with pytest.raises(SchemaError, match="power"):
        parse_problem(path)


def test_rhs_with_incompatible_sigmas_is_schema_error(tmp_path):
    path = tmp_path / "p.json"
    doc = {"kind": "two_point", "q": {"0": "1"},
           "rhs": [{"sigma": "0", "coeff": "1"},
                   {"sigma": "1/2", "coeff": "1"}]}
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        parse_problem(path)


_TWO = {"kind": "two_point"}


@pytest.mark.parametrize("doc, error, match", [
    ([], SchemaError, "top level must be a JSON object"),
    ({**_TWO, "p": ["1"]}, SchemaError, "'p' must be an object"),
    ({**_TWO, "q": "1"}, SchemaError, "'q' must be an object"),
    ({**_TWO, "q": {"0.5": "1"}}, SchemaError, "'q' key '0.5' is not an integer"),
    ({**_TWO, "p": {"-1": ["1"]}}, ParseError, r"p\[-1\]: expected a rational, got list"),
    ({**_TWO, "q": {"0": None}}, ParseError, r"q\[0\]: expected a rational, got NoneType"),
    ({**_TWO, "rhs": []}, SchemaError, "'rhs' must be a non-empty list"),
    ({**_TWO, "rhs": {"coeff": "1"}}, SchemaError, "'rhs' must be a non-empty list"),
    ({**_TWO, "rhs": ["1"]}, SchemaError, r"rhs\[0\]: expected an object"),
    ({**_TWO, "rhs": [{"coeff": "1", "log_power": -1}]}, SchemaError, r"rhs\[0\]\.log_power"),
    ({**_TWO, "rhs": [{"coeff": "1", "log_power": "1"}]}, SchemaError, r"rhs\[0\]\.log_power"),
    ({**_TWO, "series_cutoff": 0}, SchemaError, "'series_cutoff' must be a positive integer"),
    ({**_TWO, "series_cutoff": 12.0}, SchemaError, "'series_cutoff' must be a positive integer"),
    # a JSON true is a bool, which Python counts as the int 1
    ({**_TWO, "series_cutoff": True}, SchemaError, "'series_cutoff' must be a positive integer"),
    ({**_TWO, "rhs": [{"coeff": "1", "power": True}]}, SchemaError, r"rhs\[0\]\.power"),
    ({**_TWO, "rhs": [{"coeff": "1", "log_power": True}]}, SchemaError, r"rhs\[0\]\.log_power"),
], ids=["top-level", "p", "q", "index-key", "list-value", "null-value", "empty-rhs",
        "rhs-object", "rhs-entry", "negative-log-power", "string-log-power", "zero-cutoff",
        "float-cutoff", "bool-cutoff", "bool-power", "bool-log-power"])
def test_malformed_problem_file_is_refused(tmp_path, doc, error, match):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(error, match=match):
        parse_problem(path)


def test_boolean_series_cutoff_exits_one(tmp_path, capsys):
    # a JSON true was taken for the order 1 and printed back as "# iterations=True"
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**BESSEL_DOC, "series_cutoff": True}))
    assert main(["solve", "--problem", str(path), "--c0", "1"]) == 1
    assert capsys.readouterr().out == ""


def test_dump_problem_round_trips_identically(struve_json, tmp_path):
    prob = parse_problem(struve_json)
    out = tmp_path / "dumped.json"
    dump_problem(prob, out)
    assert parse_problem(out) == prob


# ------------------------------------------------------------- solve / eval

def test_solve_bessel_matches_catalog_shape(bessel_json, capsys):
    code = main(["solve", "--problem", bessel_json, "--root", "1",
                 "--order", "10", "--c0", "1"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [ln.split() for ln in lines
            if ln and not ln.startswith("#") and ln.split()[0].isdigit()]
    # order 10 holds six nonzero even-index coefficients, signs alternating
    assert len(rows) == 6
    assert [r[0] for r in rows] == ["0", "2", "4", "6", "8", "10"]
    coeffs = [Fr(r[2]) for r in rows]
    assert coeffs[0] == 1
    assert all(a * b < 0 for a, b in zip(coeffs, coeffs[1:]))


def test_solve_csv_is_byte_stable(bessel_json, capsys):
    argv = ["solve", "--problem", bessel_json, "--c0", "1", "--format", "csv"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "m,log_power,coefficient_numerator,coefficient_denominator" in first
    assert "0,0,1,1" in first
    assert "2,0,-3,16" in first


# tests/golden holds the stdout of `regsing solve` on the demo problem
# files, iterations line included: the exact files as the Neumann-loop
# solver printed them, the float ones as the exact solve of the floats'
# dyadic values, each coefficient rounded once.  Regenerate all 24 with
#     PYTHONPATH=src python tests/test_cli.py
# only when a change of the output is intended.

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_SEEDS = {"bessel": ["--c0", "1"], "gauss": ["--c0", "1"], "struve": []}
GOLDEN_CASES = [(name, mode, fmt, order) for name in sorted(GOLDEN_SEEDS)
                for mode in ("exact", "float") for fmt in ("table", "csv")
                for order in (12, 60)]


def _golden_args(name, mode, fmt, order):
    """The problem file and the options of one golden case, and its file."""
    problem = str(ROOT / "demos" / "problems" / f"{name}.json")
    options = [*GOLDEN_SEEDS[name], "--mode", mode, "--format", fmt, "--order", str(order)]
    return problem, options, GOLDEN / f"{name}-{mode}-{fmt}-{order}.txt"


@pytest.mark.parametrize("order", [12, 60])
@pytest.mark.parametrize("fmt", ["table", "csv"])
@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", sorted(GOLDEN_SEEDS))
def test_solve_output_matches_golden_bytes(name, mode, fmt, order, capsys):
    problem, options, golden = _golden_args(name, mode, fmt, order)
    assert main(["solve", "--problem", problem, *options]) == 0
    assert capsys.readouterr().out == golden.read_text()


def test_golden_cases_repeat_in_one_process(capsys):
    # the parser is built once per process: two passes over the golden
    # cases, the second reversed, each solve followed by an eval with
    # repeated --z options, print the same bytes, so no parsed state leaks
    # from one call into the next
    evals = {}
    for case in GOLDEN_CASES + GOLDEN_CASES[::-1]:
        problem, options, golden = _golden_args(*case)
        assert main(["solve", "--problem", problem, *options]) == 0
        assert capsys.readouterr().out == golden.read_text()
        assert main(["eval", "--problem", problem, *options, "--z", "0.25", "--z", "0.5"]) == 0
        out = capsys.readouterr().out
        assert len([ln for ln in out.splitlines() if ln.startswith(("psi(", "0.25,", "0.5,"))]) == 2
        assert evals.setdefault(case, out) == out


@pytest.fixture
def bessel_20_json(tmp_path):
    path = tmp_path / "bessel-20.json"
    path.write_text(json.dumps({**BESSEL_DOC, "series_cutoff": 20}))
    return str(path)


def _solve_rows(argv, capsys):
    assert main(argv) == 0
    return [int(ln.split()[0]) for ln in capsys.readouterr().out.splitlines()
            if ln and not ln.startswith("#") and ln.split()[0].isdigit()]


def test_order_defaults_to_the_files_series_cutoff(bessel_20_json, capsys):
    solve = ["solve", "--problem", bessel_20_json, "--c0", "1"]
    assert _solve_rows(solve, capsys) == list(range(0, 21, 2))
    assert _solve_rows(solve + ["--order", "7"], capsys) == [0, 2, 4, 6]
    evaluate = ["eval", "--problem", bessel_20_json, "--c0", "1", "--z", "0.9",
                "--format", "csv"]
    outputs = []
    for order in ([], ["--order", "20"], ["--order", "12"]):
        assert main(evaluate + order) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] != outputs[2]


def test_solve_csv_float_mode_changes_column(bessel_json, capsys):
    code = main(["solve", "--problem", bessel_json, "--c0", "1",
                 "--mode", "float", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    assert "m,log_power,coefficient_float" in out
    assert "# mode=float" in out


def test_solve_dump_problem_round_trip(struve_json, tmp_path, capsys):
    out = tmp_path / "echo.json"
    code = main(["solve", "--problem", struve_json,
                 "--dump-problem", str(out)])
    assert code == 0
    capsys.readouterr()
    assert parse_problem(out) == parse_problem(struve_json)


def test_eval_prints_value(bessel_json, capsys):
    code = main(["eval", "--problem", bessel_json, "--c0", "1",
                 "--z", "0.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "psi(0.5) =" in out
    value = float(out.split("=")[1])
    # Gamma(4/3) 2^{1/3} J_{1/3}(1/2), plumbing check against the library
    from regsing.catalog import bessel_j_series
    from regsing.logseries import evaluate, shift_exponent
    ref = evaluate(shift_exponent(bessel_j_series(Fr(1, 3), 12), Fr(1, 3)), 0.5)
    assert value == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------- exit codes

def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_usage_error_exits_one():
    assert main(["solve"]) == 1           # --problem missing
    assert main(["frobnicate"]) == 1      # unknown subcommand
    assert main(["solve", "--problem", "x.json", "--c0", "one"]) == 1


def test_parse_failure_exits_one(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text("{not json")
    assert main(["solve", "--problem", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_schema_failure_exits_one(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"kind": "two_point", "r": {}}))
    assert main(["solve", "--problem", str(path)]) == 1
    capsys.readouterr()


def test_complex_roots_exit_two(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"kind": "two_point", "q": {"-2": "1"}}))
    assert main(["solve", "--problem", str(path), "--c0", "1"]) == 2
    assert "solve error:" in capsys.readouterr().err


def test_resonant_c1_seed_produces_log_solution(tmp_path, capsys):
    # integer gap with a c1 seed: the resonance fires the log branch and
    # the full log-second solution comes out of the generic pipeline
    path = tmp_path / "p.json"
    doc = {"kind": "two_point", "p": {"-1": "1"}, "q": {"-2": "-1", "0": "1"}}
    path.write_text(json.dumps(doc))
    assert main(["solve", "--problem", str(path), "--c1", "1"]) == 0
    out = capsys.readouterr().out
    rows = [ln.split() for ln in out.splitlines()
            if ln and not ln.startswith("#") and ln.split()[0].isdigit()]
    assert any(r[1] == "1" for r in rows)          # log rows present
    assert ["2", "1", "1/4"] in rows


def test_eval_outside_domain_exits_two(bessel_json, capsys):
    assert main(["eval", "--problem", bessel_json, "--c0", "1",
                 "--z", "-1"]) == 2
    assert "solve error:" in capsys.readouterr().err


def test_eval_float_beyond_the_float_range_exits_three(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(dict(BESSEL_DOC, q={"-2": "-1/9", "0": "1" + "0" * 150})))
    assert main(["eval", "--problem", str(path), "--mode", "float", "--c0", "1",
                 "--z", "0.5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "accuracy error:" in captured.err


@pytest.mark.parametrize("fmt", ["table", "csv"])
@pytest.mark.parametrize("mode", ["exact", "float"])
def test_eval_whose_sum_leaves_the_float_range_exits_three(tmp_path, capsys, mode, fmt):
    # the coefficients fit a float, their sum at z = 1e5 does not: this
    # printed psi(100000.0) = inf and exited 0
    path = tmp_path / "p.json"
    path.write_text(json.dumps(dict(BESSEL_DOC, q={"-2": "-1/9", "0": "1" + "0" * 150},
                                    series_cutoff=4)))
    assert main(["eval", "--problem", str(path), "--mode", mode, "--format", fmt,
                 "--c0", "1", "--z", "100000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("accuracy error: the series at z = 100000.0 does not sum "
                            "to a finite float: inf\n")


def test_eval_of_an_exact_coefficient_beyond_the_float_range_exits_three(tmp_path, capsys):
    # the exact solve holds the coefficient; rounding it for the sum was a
    # bare OverflowError, printed as a solve error with exit 2
    path = tmp_path / "p.json"
    path.write_text(json.dumps(dict(BESSEL_DOC, q={"-2": "-1/9", "0": "1" + "0" * 160},
                                    series_cutoff=12)))
    assert main(["eval", "--problem", str(path), "--c0", "1", "--z", "0.5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("accuracy error: the series at z = 0.5 leaves the float range "
                            "(integer division result too large for a float)\n")


def test_solve_whose_irrational_roots_leave_the_float_range_exits_three(tmp_path, capsys):
    # the indicial roots are irrational and about -1e200: rounding them was
    # a bare OverflowError, printed as a solve error with exit 2
    path = tmp_path / "p.json"
    path.write_text(json.dumps(dict(BESSEL_DOC, p={"-1": "1" + "0" * 200}, q={"-2": "3"})))
    assert main(["solve", "--problem", str(path), "--c0", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("accuracy error: the irrational indicial roots leave the float "
                            "range (integer division result too large for a float)\n")


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_eval_of_a_problem_coefficient_beyond_the_float_range_exits_three(tmp_path, capsys,
                                                                           mode):
    # float mode rounds q_0 = 10^400 before it solves: a bare OverflowError
    # there exited 2, where the exact solve's sum already exited 3
    path = tmp_path / "p.json"
    path.write_text(json.dumps(dict(BESSEL_DOC, q={"-2": "-1/9", "0": "1" + "0" * 400},
                                    series_cutoff=4)))
    assert main(["eval", "--problem", str(path), "--mode", mode, "--c0", "1",
                 "--z", "0.5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = "(integer division result too large for a float)\n"
    assert captured.err == ("accuracy error: " + {
        "exact": "the series at z = 0.5 leaves the float range ",
        "float": "q_0 leaves the float range "}[mode] + reason)


def test_float_eval_of_a_seed_beyond_the_float_range_exits_three(capsys):
    # float mode rounds the seeds too: a bare OverflowError there exited 2
    bessel = str(ROOT / "demos" / "problems" / "bessel.json")
    assert main(["eval", "--problem", bessel, "--mode", "float", "--c0", "1" + "0" * 400,
                 "--z", "0.5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("accuracy error: c0 leaves the float range "
                            "(integer division result too large for a float)\n")


def test_eval_checks_every_point_before_printing(capsys):
    bessel = str(ROOT / "demos" / "problems" / "bessel.json")
    assert main(["eval", "--problem", bessel, "--c0", "1",
                 "--z", "0.5", "--z", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs z > 0, got -1.0" in captured.err


def _eval_argv(z):
    return ["eval", "--problem", str(ROOT / "demos" / "problems" / "bessel.json"),
            "--c0", "1", "--z", z]


@pytest.mark.parametrize("call, error", [
    (lambda: evaluate(LogSeries.monomial(1, 0, 4), math.nan), DomainError),
    (lambda: cmd_eval(build_parser().parse_args(_eval_argv("nan"))), DomainError),
    (lambda: evaluate_power(PowerData(1, 2), math.nan), ValueError),
    (lambda: mellin_integrand(catalog_family("Exp"), 0.5 + 1j, math.nan), ValueError),
    (lambda: residue_eval(catalog_family("Exp"), math.nan), ValueError),
], ids=["evaluate", "cmd_eval", "evaluate_power", "mellin_integrand", "residue_eval"])
def test_a_nan_point_is_a_domain_error(call, error):
    # NaN fails every comparison, so "z <= 0" let it through to the sum,
    # which then read as an accuracy error
    with pytest.raises(error, match="z > 0|positive"):
        call()


def test_eval_at_nan_exits_two(capsys):
    assert main(_eval_argv("nan")) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "needs z > 0, got nan" in captured.err


def test_eval_refuses_points_outside_the_disc(capsys):
    # 2F1(1/2, 1/3; 5/4) converges for |z| < 1 only: its order-40 partial
    # sum reads 36541.6 at z = 1.5.  Nothing is printed, not even the
    # points inside the disc
    gauss = str(ROOT / "demos" / "problems" / "gauss.json")
    for z in ("1.5", "1"):
        assert main(["eval", "--problem", gauss, "--c0", "1", "--order", "40",
                     "--z", "0.5", "--z", z]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "outside the disc |z| < 1" in captured.err
    assert main(["eval", "--problem", gauss, "--c0", "1", "--z", "0.99"]) == 0
    assert capsys.readouterr().out.startswith("psi(0.99) = ")


def test_eval_of_a_terminating_series_is_not_refused(tmp_path, capsys):
    # the Gegenbauer polynomial 2F1(-3, 5; 3/2; z) has no disc to leave:
    # 1 - 15 + 54 - 54 = -14 at z = 3/2, as mpmath's hyp2f1 gives
    from regsing.problem import map_gegenbauer
    path = tmp_path / "gegenbauer.json"
    dump_problem(map_gegenbauer(Fr(1, 2), 3), path)
    for mode in ("exact", "float"):
        assert main(["eval", "--problem", str(path), "--c0", "1", "--order", "40",
                     "--mode", mode, "--z", "1.5"]) == 0
        assert capsys.readouterr().out == "psi(1.5) = -14\n"


def test_eval_refuses_points_outside_the_disc_in_float_mode(tmp_path, capsys):
    # 2F1(1/2, 1/3; 20): the coefficients decay like n^-20, so the order-40
    # float residual is under the float tolerance, but the series does not
    # terminate; its partial sum read 1.01354177244 at z = 1.5
    path = tmp_path / "hyp2f1.json"
    path.write_text(json.dumps({"kind": "three_point", "p": {"-1": "20", "0": "-11/6"},
                                "q": {"-1": "-1/6"}, "series_cutoff": 40}))
    for mode in ("exact", "float"):
        assert main(["eval", "--problem", str(path), "--c0", "1", "--mode", mode,
                     "--z", "1.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "outside the disc |z| < 1" in captured.err


def test_eval_at_an_irrational_root_refuses_points_outside_the_disc(tmp_path, capsys):
    # q_{-2} = 1 gives the roots of lambda^2 + 19 lambda + 1: the exact solve
    # runs in floats, so whether the series terminates is not decided, and
    # its partial sum read 0.988801634966 at z = 1.5
    path = tmp_path / "irrational.json"
    path.write_text(json.dumps({"kind": "three_point", "p": {"-1": "20", "0": "-11/6"},
                                "q": {"-2": "1", "-1": "-1/6"}, "series_cutoff": 40}))
    for mode in ("exact", "float"):
        assert main(["eval", "--problem", str(path), "--c0", "1", "--mode", mode,
                     "--z", "1.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "outside the disc |z| < 1" in captured.err
        assert "irrational root" in captured.err
        assert main(["eval", "--problem", str(path), "--c0", "1", "--mode", mode,
                     "--z", "0.5"]) == 0
        assert capsys.readouterr().out == "psi(0.5) = 1.04060716278\n"


def test_eval_of_a_two_point_problem_has_no_disc(bessel_json, capsys):
    assert main(["eval", "--problem", bessel_json, "--c0", "1",
                 "--z", "50"]) == 0
    assert capsys.readouterr().out.startswith("psi(50.0) = ")


def test_contour_residues_that_outgrow_a_float_exit_three(capsys):
    # the exact coefficients of cos(10^20 z) do not fit a float after a few
    # steps; that is an accuracy failure, not a solve-domain one
    code = main(["contour", "--family", "cos", "--omega", "100000000000000000000",
                 "--z", "0.3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "accuracy error: a residue of TrigHyp at z = 0.3 overflows a float "
        "(integer division result too large for a float)\n")


def test_bad_family_parameters_exit_two(capsys):
    assert main(["compare", "--family", "hyp1f1", "--a", "1/2"]) == 2
    assert main(["compare", "--family", "bessel_log", "--n", "1/2"]) == 2
    capsys.readouterr()


def test_bessel_irregular_at_integer_nu_says_why(capsys):
    assert main(["compare", "--family", "bessel_irregular", "--nu", "2"]) == 2
    assert capsys.readouterr().err == (
        "solve error: BesselIrregular(nu=2): bottom b = -1 of the term ratio "
        "is a non-positive integer\n")


def test_every_family_name_maps_to_a_tag_and_an_oracle():
    subcommands = next(a for a in build_parser()._actions if a.choices)
    for command in ("contour", "compare"):
        family = next(a for a in subcommands.choices[command]._actions
                      if a.dest == "family")
        assert sorted(family.choices) == sorted(_FAMILY_CLI)
    for tag, oracle in _FAMILY_CLI.values():
        assert tag in _FAMILY_PARAMS and callable(oracle)
    assert {tag for tag, _ in _FAMILY_CLI.values()} == set(_FAMILY_PARAMS)


# ------------------------------------------------------------------ compare

COMPARE_CASES = [
    ["--family", "exp"],
    ["--family", "cos", "--omega", "2"],
    ["--family", "sin", "--omega", "3/2"],
    ["--family", "cosh"],
    ["--family", "sinh"],
    ["--family", "bessel", "--nu", "1/3"],
    ["--family", "bessel_irregular", "--nu", "1/3"],
    ["--family", "bessel_log", "--n", "1"],
    ["--family", "hyp1f1", "--a", "2/3", "--c", "7/5"],
    ["--family", "hyp1f1_irregular", "--a", "2/3", "--c", "7/5"],
    ["--family", "hyp2f1", "--a", "1/2", "--b", "1/3", "--c", "5/4"],
    ["--family", "hyp2f1_irregular", "--a", "1/2", "--b", "1/3", "--c", "5/4"],
    ["--family", "struve", "--nu", "1/3"],
    # with c < 1 the larger indicial root is 1 - c, not 0
    ["--family", "hyp1f1", "--a", "1", "--c", "1/2"],
    ["--family", "hyp1f1_irregular", "--a", "1", "--c", "1/2"],
    ["--family", "hyp2f1", "--a", "1/2", "--b", "1/3", "--c", "1/3"],
    ["--family", "hyp2f1_irregular", "--a", "1/2", "--b", "1/3", "--c", "1/3"],
]


@pytest.mark.parametrize("flags", COMPARE_CASES,
                         ids=lambda fl: "-".join(fl[1::2]))
def test_compare_is_exact_for_every_family(flags, capsys):
    code = main(["compare"] + flags + ["--order", "12"])
    out = capsys.readouterr().out
    assert code == 0
    assert "max_coefficient_discrepancy = 0" in out


@pytest.mark.parametrize("flags", [
    ["--family", "bessel", "--nu=-1/3"],
    ["--family", "bessel", "--nu=-5/2"],
    ["--family", "bessel_irregular", "--nu=-1/3"],
    ["--family", "bessel_irregular", "--nu=-1"],
    ["--family", "struve", "--nu=-1/3"],
], ids=lambda fl: "".join(fl[1:]))
def test_compare_is_exact_for_negative_nu(flags, capsys):
    # the solver takes the root nu by value, the smaller one for nu < 0
    assert main(["compare"] + flags + ["--order", "16"]) == 0
    assert capsys.readouterr().out == "max_coefficient_discrepancy = 0\n"


def test_compare_with_point_checks_reports_quadrature(capsys):
    # the vertical-line quadrature cannot reach the tolerance, so point
    # checks fail honestly while the coefficient comparison stays exact
    code = main(["compare", "--family", "exp", "--z", "0.5"])
    out = capsys.readouterr().out
    assert code == 3
    assert "max_coefficient_discrepancy = 0" in out
    assert "contour=FAILED" in out


# ------------------------------------------------------------------ contour

def test_contour_exp_reports_honest_failure(capsys):
    code = main(["contour", "--family", "exp", "--z", "0.5"])
    out = capsys.readouterr().out
    assert code == 3
    assert "tail_estimate" in out
    assert "series_value     = 1.648721271" in out


def test_contour_struve_within_loose_tolerance(capsys):
    code = main(["contour", "--family", "struve", "--nu", "0",
                 "--z", "0.5", "--tol", "1.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "quadrature_value" in out


def test_contour_integrand_that_overflows_a_float_exits_three(capsys):
    # exp's integrand grows like e^{pi Im s} and leaves the float range on
    # this tall line: an accuracy failure, not a solve-domain one
    code = main(["contour", "--family", "exp", "--z", "0.5",
                 "--half-height", "300", "--step", "0.5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "the integrand of Exp" in captured.err and "overflows a float" in captured.err


def test_contour_whose_gamma_overflows_a_float_exits_three(capsys):
    # Gamma(1 + nu) leaves the float range at nu = 200: an accuracy failure
    code = main(["contour", "--family", "bessel", "--nu", "200", "--z", "0.5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("accuracy error: the integrand of BesselRegular")
    assert "overflows a float" in captured.err


def test_contour_whose_gamma_underflows_exits_three(capsys):
    # Gamma(1/3 - s) underflows to 0 on this tall line; 1/Gamma was a bare
    # ZeroDivisionError, printed as a solve error with exit 2
    code = main(["contour", "--family", "bessel", "--nu", "1/3", "--z", "0.5",
                 "--half-height", "500", "--step", "0.5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("accuracy error: the integrand of BesselRegular")
    assert "underflows a float" in captured.err
    assert captured.err.startswith("accuracy error: the integrand of BesselRegular at "
                                   "s = (0.5-500j) underflows a float (")


def test_contour_bad_spec_exits_two(capsys):
    code = main(["contour", "--family", "exp", "--z", "0.5",
                 "--abscissa", "1.5"])
    assert code == 2
    capsys.readouterr()


# ----------------------------------------------------------------- surface

def test_module_entry_runs_without_warnings():
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    run = subprocess.run(
        [sys.executable, "-W", "error", "-m", "regsing", "compare",
         "--family", "exp", "--order", "12"],
        env=env, capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (
        0, "max_coefficient_discrepancy = 0\n", "")


def _settable_options():
    """(owner, name) of every value a caller can set: the defaulted
    parameters of the callables in regsing.__all__, the defaulted fields of
    its dataclasses, and the option strings of each CLI subcommand."""
    found = set()
    for name in regsing.__all__:
        obj = getattr(regsing, name)
        if not callable(obj):
            continue
        if dataclasses.is_dataclass(obj):
            found |= {(name, f.name) for f in dataclasses.fields(obj)
                      if f.default is not dataclasses.MISSING
                      or f.default_factory is not dataclasses.MISSING}
        try:
            params = inspect.signature(obj).parameters.values()
        except (TypeError, ValueError):
            continue
        found |= {(name, p.name) for p in params if p.default is not p.empty}
    subs = next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    for command, sub in subs.choices.items():
        found |= {(command, opt) for action in sub._actions
                  for opt in action.option_strings}
    return found


# may shrink, never grow
OPTIONS_INVENTORY = {
    ("ContourSpec", "abscissa"), ("ContourSpec", "half_height"),
    ("ContourSpec", "step"),
    ("OdeProblem", "rhs"), ("OdeProblem", "series_cutoff"),
    ("PowerData", "log_coefficient"),
    ("Solution", "_log_stream_args"),
    ("contour_eval", "spec"), ("contour_eval", "tol"),
    ("contour_eval", "full_output"),
    ("residue_eval", "terms"), ("residue_eval", "full_output"),
    ("family_operator", "order"),
    ("map_gegenbauer", "series_cutoff"), ("solve", "order"),
    ("solve_log_second", "order"), ("struve_series", "scaled"),
    *(("solve", opt) for opt in (
        "-h", "--help", "--problem", "--order", "--root", "--c0", "--c1",
        "--mode", "--format", "--dump-problem")),
    *(("eval", opt) for opt in (
        "-h", "--help", "--problem", "--order", "--root", "--c0", "--c1",
        "--mode", "--format", "--z")),
    *(("contour", opt) for opt in (
        "-h", "--help", "--family", "--nu", "--a", "--b", "--c", "--n",
        "--omega", "--z", "--abscissa", "--half-height", "--step", "--tol")),
    *(("compare", opt) for opt in (
        "-h", "--help", "--family", "--nu", "--a", "--b", "--c", "--n",
        "--omega", "--order", "--tol", "--z")),
}


def test_options_only_shrink():
    found = _settable_options()
    assert {("ContourSpec", "step"), ("contour", "--tol")} <= found
    assert found <= OPTIONS_INVENTORY


if __name__ == "__main__":
    import contextlib
    import io

    for case in GOLDEN_CASES:
        problem, options, golden = _golden_args(*case)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["solve", "--problem", problem, *options]) == 0
        golden.write_text(out.getvalue())
