"""Command-line surface: solve problems from JSON files, evaluate solutions,
run contour quadrature diagnostics, and compare solver output against the
classical-series oracles.

Exit codes: 0 success, 1 parse/schema errors, 2 solve-domain errors,
3 accuracy errors (quadrature tails, tolerance violations, and problem
coefficients, seeds, solves, sums and residues that do not fit a float).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

from .catalog import (
    ParameterError,
    bessel_j_series,
    bessel_log_second_series,
    hyp1f1_series,
    hyp2f1_series,
    struve_series,
)
from .logseries import (
    DomainError,
    LogSeries,
    NonIntegerExponentGap,
    evaluate,
    linear_combine,
    shift_exponent,
)
from .mellin import (
    _FAMILY_PARAMS,
    DEFAULT_CONTOUR,
    AccuracyError,
    ContourSpec,
    PoleError,
    _family_problem,
    catalog_family,
    contour_eval,
    residue_eval,
)
from .problem import OdeProblem
from .scalars import is_exact, parse_rational
from .solver import solve


class ParseError(ValueError):
    """Problem file is not valid JSON or a value cannot be decoded."""


class SchemaError(ValueError):
    """Problem file JSON does not match the expected schema."""


_ALLOWED_KEYS = {"kind", "p", "q", "rhs", "series_cutoff"}
_RHS_KEYS = {"sigma", "power", "log_power", "coeff"}


def _scalar(value, where: str) -> Fraction:
    # rationals travel as strings (or ints) so nothing goes through floats
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(
            f"{where}: write rationals as strings like \"-1/9\", not floats")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: {exc}") from exc
    raise ParseError(f"{where}: expected a rational, got {type(value).__name__}")


def _coeff_map(doc, name: str) -> dict:
    if not isinstance(doc, dict):
        raise SchemaError(f"'{name}' must be an object mapping index to rational")
    out = {}
    for key, value in doc.items():
        try:
            idx = int(key)
        except ValueError as exc:
            raise SchemaError(f"'{name}' key {key!r} is not an integer") from exc
        out[idx] = _scalar(value, f"{name}[{key}]")
    return out


def _rhs_series(doc, order: int) -> LogSeries:
    if not isinstance(doc, list) or not doc:
        raise SchemaError("'rhs' must be a non-empty list of term objects")
    series = None
    for pos, entry in enumerate(doc):
        where = f"rhs[{pos}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: expected an object")
        unknown = set(entry) - _RHS_KEYS
        if unknown:
            raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
        sigma = _scalar(entry.get("sigma", 0), f"{where}.sigma")
        power = entry.get("power", 0)
        log_power = entry.get("log_power", 0)
        if type(power) is not int or power < 0:
            raise SchemaError(f"{where}.power must be an integer >= 0")
        if type(log_power) is not int or log_power < 0:
            raise SchemaError(f"{where}.log_power must be an integer >= 0")
        if "coeff" not in entry:
            raise SchemaError(f"{where}: missing required key 'coeff'")
        coeff = _scalar(entry["coeff"], f"{where}.coeff")
        term = LogSeries(sigma, order, {(power, log_power): coeff})
        try:
            series = term if series is None else linear_combine(1, series, 1, term)
        except NonIntegerExponentGap as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    return series


def parse_problem(path) -> OdeProblem:
    """Load an OdeProblem from a JSON file (exact rationals throughout)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a JSON object")
    unknown = set(doc) - _ALLOWED_KEYS
    if unknown:
        raise SchemaError(f"unknown keys {sorted(unknown)}")
    if "kind" not in doc:
        raise SchemaError("missing required key 'kind'")
    cutoff = doc.get("series_cutoff", 12)
    # type, not isinstance: a JSON true or false is a bool, which is an int
    if type(cutoff) is not int or cutoff < 1:
        raise SchemaError("'series_cutoff' must be a positive integer")
    p = _coeff_map(doc.get("p", {}), "p")
    q = _coeff_map(doc.get("q", {}), "q")   # missing q[-2] just means 0
    rhs = _rhs_series(doc["rhs"], cutoff) if "rhs" in doc else None
    try:
        # OdeProblem checks the kind and the index bounds
        return OdeProblem(doc["kind"], p, q, rhs=rhs, series_cutoff=cutoff)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def dump_problem(problem: OdeProblem, path) -> None:
    """Write a problem file that parse_problem reads back identically."""
    doc = {
        "kind": problem.kind,
        "p": {str(i): str(Fraction(v)) for i, v in sorted(problem.p_coeffs.items())},
        "q": {str(i): str(Fraction(v)) for i, v in sorted(problem.q_coeffs.items())},
        "series_cutoff": problem.series_cutoff,
    }
    if problem.rhs is not None:
        doc["rhs"] = [
            {"sigma": str(Fraction(problem.rhs.sigma)), "power": m,
             "log_power": k, "coeff": str(Fraction(c))}
            for (m, k), c in sorted(problem.rhs.coeffs.items())
        ]
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


# ----------------------------------------------------------------- helpers

def _to_float(value, name: str) -> float:
    """value rounded to a float; AccuracyError, chained from the
    OverflowError, where it leaves the float range."""
    try:
        return float(value)
    except OverflowError as exc:
        raise AccuracyError(f"{name} leaves the float range ({exc})") from exc


def _to_float_problem(problem: OdeProblem) -> OdeProblem:
    """The problem with every coefficient rounded to a float, refused with
    AccuracyError where one leaves the float range."""
    rhs = problem.rhs
    if rhs is not None:
        rhs = LogSeries(_to_float(rhs.sigma, "the rhs exponent"), rhs.order,
                        {(m, k): _to_float(c, f"rhs[{m}, {k}]")
                         for (m, k), c in rhs.coeffs.items()})
    return OdeProblem(problem.kind,
                      {i: _to_float(v, f"p_{i}") for i, v in problem.p_coeffs.items()},
                      {i: _to_float(v, f"q_{i}") for i, v in problem.q_coeffs.items()},
                      rhs=rhs, series_cutoff=problem.series_cutoff)


def _print_series(f: LogSeries, meta: list, fmt: str, out) -> None:
    """Coefficient table: meta lines, then (m, log_power, coefficient) rows."""
    exact = f.mode == "exact"
    for key, value in meta:
        print(f"# {key}={value}", file=out)
    if fmt == "csv":
        if exact:
            print("m,log_power,coefficient_numerator,coefficient_denominator",
                  file=out)
        else:
            print("m,log_power,coefficient_float", file=out)
        for (m, k), c in sorted(f.coeffs.items()):
            if exact:
                c = Fraction(c)
                print(f"{m},{k},{c.numerator},{c.denominator}", file=out)
            else:
                print(f"{m},{k},{float(c)!r}", file=out)
    else:
        print(f"{'m':>4} {'k':>3}  coefficient", file=out)
        for (m, k), c in sorted(f.coeffs.items()):
            print(f"{m:>4} {k:>3}  {c}", file=out)


def _family_from_args(args) -> "CatalogFamily":
    tag = _FAMILY_CLI[args.family][0]
    params = {}
    for name in _FAMILY_PARAMS[tag]:
        if name == "variant":
            params[name] = args.family
            continue
        value = getattr(args, name, None)
        if value is None:
            raise ParameterError(f"--family {args.family} requires --{name}")
        params[name] = value
    return catalog_family(tag, **params)


def _trig_series(p, order: int) -> LogSeries:
    shift = 0 if p["variant"] in ("cos", "cosh") else 1
    sign = -1 if p["variant"] in ("cos", "sin") else 1
    return LogSeries(0, order, {(2 * k, 0): sign ** k * p["omega"] ** (2 * k)
                                / Fraction(factorial(2 * k + shift))
                                for k in range(order // 2 + 1)})


def _bessel_irregular_series(p, order: int) -> LogSeries:
    """-z^{-2 nu}/(2 nu) times the bessel_j_series of -nu."""
    nu = p["nu"]
    return LogSeries(-2 * nu, order, {mk: Fraction(-1, 2) / nu * c for mk, c
                                      in bessel_j_series(-nu, order).coeffs.items()})


# --family name -> (tag, oracle).  The oracle maps (params, order) to the
# classical series the solver is compared against: catalog.py and factorial
# formulas, independent of the solver and of the term ratios
_FAMILY_CLI = {
    "exp": ("Exp", lambda p, n: LogSeries(0, n, {(k, 0): Fraction(1, factorial(k))
                                                 for k in range(n + 1)})),
    **dict.fromkeys(("cos", "sin", "cosh", "sinh"), ("TrigHyp", _trig_series)),
    "bessel": ("BesselRegular", lambda p, n: bessel_j_series(p["nu"], n)),
    "bessel_irregular": ("BesselIrregular", _bessel_irregular_series),
    "bessel_log": ("BesselLogSecond",
                   lambda p, n: bessel_log_second_series(p["n"], n)),
    "hyp1f1": ("Hyp1F1Regular", lambda p, n: hyp1f1_series(p["a"], p["c"], n)),
    "hyp1f1_irregular": ("Hyp1F1Irregular", lambda p, n: hyp1f1_series(
        p["a"] + 1 - p["c"], 2 - p["c"], n)),
    "hyp2f1": ("Hyp2F1Regular",
               lambda p, n: hyp2f1_series(p["a"], p["b"], p["c"], n)),
    "hyp2f1_irregular": ("Hyp2F1Irregular", lambda p, n: hyp2f1_series(
        p["a"] + 1 - p["c"], p["b"] + 1 - p["c"], 2 - p["c"], n)),
    # struve_series is psi, based at 1 + nu; f = z^{-nu} psi (the family's root is nu)
    "struve": ("Struve", lambda p, n: shift_exponent(struve_series(p["nu"], n, scaled=True),
                                                     -p["nu"])),
}


def _family_solver_series(name: str, fam, order: int):
    """(solver f, oracle LogSeries) of the family."""
    oracle = _FAMILY_CLI[name][1](dict(fam.params), order)
    return solve(*_family_problem(fam, order), order=order).f, oracle


# ---------------------------------------------------------------- commands

def _solve_file(args, dump=None):
    """(problem, Solution) of --problem: the problem as parsed, written to
    `dump` when given, and its solution in --mode."""
    problem = parse_problem(args.problem)
    if dump:
        dump_problem(problem, dump)
    return problem, _solve_in(args.mode, problem, args)


def _solve_in(mode: str, problem: OdeProblem, args):
    """The solution from --c0/--c1, with problem and seeds taken to float
    in float mode."""
    c0, c1 = args.c0, args.c1
    if mode == "float":
        problem = _to_float_problem(problem)
        c0, c1 = _to_float(c0, "c0"), _to_float(c1, "c1")
    return solve(problem, args.root, c0, c1, order=args.order)


def cmd_solve(args) -> int:
    _, sol = _solve_file(args, args.dump_problem)
    meta = [("lambda", sol.lam), ("sigma", sol.f.sigma), ("mode", sol.mode),
            ("iterations", sol.iterations_used),
            ("residual_leading_order", sol.residual_leading_order)]
    _print_series(sol.f, meta, args.format, sys.stdout)
    return 0


def cmd_eval(args) -> int:
    problem, sol = _solve_file(args)
    points = args.z or [0.5]
    bad = [z for z in points if not z > 0]
    if bad:
        raise DomainError(f"series evaluation needs z > 0, got {bad[0]}")
    outside = [z for z in points if z >= problem.radius]
    # whether the series terminates is a property of the equation and the
    # seeds: a float solve's None only says its residual is under the float
    # tolerance, so the exact solve decides.  At an irrational root the
    # exact solve runs in floats too, and nothing decides it
    if outside:
        exact = sol if args.mode == "exact" else _solve_in("exact", problem, args)
        if not is_exact(exact.lam):
            raise DomainError(f"z = {outside[0]} is outside the disc |z| < "
                              f"{problem.radius}, and at the irrational root "
                              f"lambda = {exact.lam} whether the series terminates "
                              f"cannot be decided")
        if exact.residual_leading_order is not None:
            raise DomainError(f"z = {outside[0]} is outside the disc |z| < "
                              f"{problem.radius} of a series that does not terminate")
    values = [evaluate(sol.psi, z) for z in points]     # all or nothing
    if args.format == "csv":
        print("z,value")
        for z, value in zip(points, values):
            print(f"{z!r},{value!r}")
    else:
        for z, value in zip(points, values):
            print(f"psi({z}) = {value:.12g}")
    return 0


def cmd_contour(args) -> int:
    family = _family_from_args(args)
    spec = ContourSpec(abscissa=args.abscissa, half_height=args.half_height,
                       step=args.step)
    points = args.z or [0.5]
    worst_tail = 0.0
    worst_imag = 0.0
    for z in points:
        res = contour_eval(family, z, spec, tol=args.tol, full_output=True)
        series = residue_eval(family, z)
        print(f"z={z}")
        print(f"  quadrature_value = {res.value:.10g}")
        print(f"  tail_estimate    = {res.tail_estimate:.3e}")
        print(f"  imag_magnitude   = {res.imag_magnitude:.3e}")
        print(f"  series_value     = {series:.10g}")
        print(f"  |difference|     = {abs(res.value - series):.3e}")
        worst_tail = max(worst_tail, res.tail_estimate)
        worst_imag = max(worst_imag, res.imag_magnitude)
    ok = worst_tail <= args.tol and worst_imag < 1e-8
    return 0 if ok else 3


def cmd_compare(args) -> int:
    family = _family_from_args(args)
    got, oracle = _family_solver_series(args.family, family, args.order)
    diff = linear_combine(1, got, -1, oracle)
    worst = max((abs(c) for c in diff.coeffs.values()), default=0)
    print(f"max_coefficient_discrepancy = {worst}")
    ok = float(worst) <= args.tol
    for z in args.z or []:
        series = residue_eval(family, z)
        try:
            quad = contour_eval(family, z, tol=args.tol)
            gap = abs(quad - series)
            print(f"z={z}: series={series:.12g} contour={quad:.12g} "
                  f"|diff|={gap:.3e}")
            ok = ok and gap <= args.tol
        except (AccuracyError, PoleError) as exc:
            print(f"z={z}: series={series:.12g} contour=FAILED ({exc})")
            ok = False
    return 0 if ok else 3


# ------------------------------------------------------------------ parser

def _add_series_flags(sub) -> None:
    sub.add_argument("--order", type=int,
                     help="truncation order (default: the file's series_cutoff)")
    sub.add_argument("--root", type=int, choices=(1, 2), default=1)
    sub.add_argument("--c0", type=parse_rational, default=Fraction(0))
    sub.add_argument("--c1", type=parse_rational, default=Fraction(0))
    sub.add_argument("--mode", choices=("exact", "float"), default="exact")
    sub.add_argument("--format", choices=("table", "csv"), default="table")


def _add_family_flags(sub) -> None:
    sub.add_argument("--family", required=True, choices=sorted(_FAMILY_CLI))
    sub.add_argument("--nu", type=parse_rational)
    sub.add_argument("--a", type=parse_rational)
    sub.add_argument("--b", type=parse_rational)
    sub.add_argument("--c", type=parse_rational)
    sub.add_argument("--n", type=parse_rational)
    sub.add_argument("--omega", type=parse_rational, default=Fraction(1))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The regsing argument parser, built once per process: in-process
    callers of main would otherwise pay its 40-odd add_argument calls each
    time.  parse_args leaves it as it is; callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="regsing",
        description="Series solutions of ODEs with a regular singular point, "
                    "with contour-integral cross checks.")
    subs = parser.add_subparsers(dest="command", required=True)

    solve_p = subs.add_parser("solve", help="solve a problem file")
    solve_p.add_argument("--problem", required=True)
    _add_series_flags(solve_p)
    solve_p.add_argument("--dump-problem", metavar="PATH",
                         help="write the parsed problem back to a JSON file")
    solve_p.set_defaults(func=cmd_solve)

    eval_p = subs.add_parser("eval", help="evaluate a solution at points")
    eval_p.add_argument("--problem", required=True)
    _add_series_flags(eval_p)
    eval_p.add_argument("--z", action="append", type=float)
    eval_p.set_defaults(func=cmd_eval)

    contour_p = subs.add_parser(
        "contour", help="vertical-line quadrature diagnostics for a family")
    _add_family_flags(contour_p)
    contour_p.add_argument("--z", action="append", type=float)
    contour_p.add_argument("--abscissa", type=float,
                           default=DEFAULT_CONTOUR.abscissa)
    contour_p.add_argument("--half-height", dest="half_height", type=float,
                           default=DEFAULT_CONTOUR.half_height)
    contour_p.add_argument("--step", type=float, default=DEFAULT_CONTOUR.step)
    contour_p.add_argument("--tol", type=float, default=1e-8)
    contour_p.set_defaults(func=cmd_contour)

    compare_p = subs.add_parser(
        "compare", help="compare solver output against the classical oracle")
    _add_family_flags(compare_p)
    compare_p.add_argument("--order", type=int, default=12)
    compare_p.add_argument("--tol", type=float, default=1e-8)
    compare_p.add_argument("--z", action="append", type=float,
                           help="also check series vs contour at these points")
    compare_p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; fold the latter
        # into the parse-error class
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (ParseError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AccuracyError, PoleError) as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        # every solve-domain error (DomainError, ParameterError,
        # SingularTerm, IndexMismatch, ...) subclasses one of the two
        print(f"solve error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
