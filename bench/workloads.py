"""The benchmark's workloads.

Each workload has four parts, kept apart so that set-up time measures only
the program's share:

- spec(seed): the inputs as plain data (Fractions, floats, strings).  Only
  this part depends on the seed, and it never calls the program.
- build(spec, rs): the program-side construction of the inputs (problems,
  series, family records) through the regsing package `rs`.
- reference(spec): the expected outputs, computed apart from the program
  (see reference.py).
- ops(spec, built, ref, rs, workdir): the fixed list of operations of one
  pass, each with the check of its output.

The number and kind of operations in a pass never depend on the seed, so the
share of failed operations is the same in every run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction as Fr
from typing import Callable, NamedTuple

import reference as R


class Op(NamedTuple):
    """One timed call into the program and the check of what it returned."""

    name: str
    kind: str               # "cli" operations return (exit code, stdout)
    run: Callable[[], object]
    check: Callable[[object], bool]


def _residual_ok(order: int, lead) -> bool:
    return lead is None or lead >= order - 1


def _series_matches(series, base, coeffs: dict) -> bool:
    """The LogSeries sits at `base` and holds exactly the nonzero `coeffs`."""
    want = {mk: c for mk, c in coeffs.items() if c != 0}
    return series.sigma == base and series.coeffs == want


def _solve_op(name, run, part, base, want, order) -> Op:
    """An exact solve whose `part` ("f" or "psi") must be exactly `want` at
    `base`, with a residual order of at least order - 1."""
    def check(sol):
        return (_series_matches(getattr(sol, part), base, want)
                and _residual_ok(order, sol.residual_leading_order))
    return Op(name, "solve", run, check)


def _powers(values: list) -> dict:
    return {(m, 0): c for m, c in enumerate(values) if c != 0}


# ---------------------------------------------------------------- solve_deep
#
# Fixed cases at orders in the hundreds: the Neumann resolvent and bigint
# growth dominate.  The seed is not used; every run measures the same work.

DEEP_ORDERS = (400, 800)
DEEP_NU = Fr(1, 3)
DEEP_ABC = (Fr(1, 2), Fr(1, 3), Fr(5, 4))
DEEP_LOG_N = 1


def deep_spec(seed: int) -> dict:
    return {"orders": DEEP_ORDERS}


def _bessel_pq(nu):
    return {-1: 1}, {-2: -nu * nu, 0: 1}


def _hyp2f1_pq(a, b, c):
    return {-1: c, 0: -(a + b + 1)}, {-1: -a * b}


def _hyp1f1_pq(a, c):
    return {-1: c, 0: -1}, {-1: -a}


def deep_build(spec: dict, rs) -> dict:
    out = {}
    for n in spec["orders"]:
        out[("bessel", n)] = rs.OdeProblem("two_point", *_bessel_pq(DEEP_NU), series_cutoff=n)
        out[("hyp2f1", n)] = rs.OdeProblem("three_point", *_hyp2f1_pq(*DEEP_ABC), series_cutoff=n)
        out[("log", n)] = rs.OdeProblem("two_point", *_bessel_pq(DEEP_LOG_N), series_cutoff=n)
    return out


def deep_reference(spec: dict) -> dict:
    ref = {}
    for n in spec["orders"]:
        ref[("bessel", n)] = {(m, 0): c for m, c in R.bessel_j_coeffs(DEEP_NU, n).items()}
        ref[("hyp2f1", n)] = {(m, 0): c for m, c in R.hyp2f1_coeffs(*DEEP_ABC, n).items()}
        ref[("log", n)] = R.log_second_coeffs(DEEP_LOG_N, n)
    return ref


def deep_ops(spec, built, ref, rs, workdir) -> list:
    ops = []
    for n in spec["orders"]:
        for case, base in (("bessel", 0), ("hyp2f1", 0), ("log", -2 * DEEP_LOG_N)):
            prob = built[(case, n)]
            if case == "log":
                def run(prob=prob, n=n):
                    return rs.solve_log_second(prob, DEEP_LOG_N, order=n)
            else:
                def run(prob=prob, n=n):
                    return rs.solve(prob, 1, 1, 0, order=n)
            ops.append(_solve_op(f"{case}@{n}", run, "f", base, ref[(case, n)], n))
    return ops


# --------------------------------------------------------------- solve_small
#
# Hundreds of exact solves at orders 12..40, part of them through the
# command line in process.  Per-call overhead dominates.

SMALL_RANDOM = 48          # random problems, each solved at both roots
SMALL_CLI_FILES = 14       # of them also solved through `regsing solve`
_LAM_DENS = (2, 3, 4)
_COEF_DENS = (1, 2, 3)
_COMPARE_ORDERS = (12, 20, 28, 36, 40)

# c > 1 throughout: the CLI compares the hypergeometric families at fixed
# roots, which are the regular and irregular ones only when c > 1
_HYP2_CLI = (("1/2", "1/3", "5/4"), ("1/3", "2/3", "3/2"), ("1/4", "1/2", "7/3"))
# family -> tuple of candidate parameter dicts; every candidate is valid
_CLI_FAMILIES = {
    "exp": ({},),
    "cos": tuple({"omega": w} for w in ("1", "1/2", "3/2", "2")),
    "sin": tuple({"omega": w} for w in ("1", "1/2", "3/2", "2")),
    "cosh": tuple({"omega": w} for w in ("1", "1/2", "3/2", "2")),
    "sinh": tuple({"omega": w} for w in ("1", "1/2", "3/2", "2")),
    "bessel": tuple({"nu": v} for v in ("1/3", "1/4", "2/3", "1", "2")),
    "bessel_irregular": tuple({"nu": v} for v in ("1/3", "1/4", "2/3", "3/4", "1/5")),
    "bessel_log": tuple({"n": v} for v in ("0", "1", "2")),
    "hyp1f1": tuple({"a": a, "c": c} for a, c in
                    (("1", "3/2"), ("1/2", "5/3"), ("2/3", "4/3"), ("-1/2", "7/4"))),
    "hyp1f1_irregular": tuple({"a": a, "c": c} for a, c in
                              (("1", "3/2"), ("1/2", "5/3"), ("2/3", "4/3"), ("1/3", "9/4"))),
    "hyp2f1": tuple(dict(zip("abc", t)) for t in _HYP2_CLI),
    "hyp2f1_irregular": tuple(dict(zip("abc", t)) for t in _HYP2_CLI),
    "struve": tuple({"nu": v} for v in ("0", "1/3", "1/2", "1")),
}


def _random_problem(rng, slot: int) -> dict:
    """Rational indicial roots whose gap is not an integer, plus one more
    term in each of p and q.

    The slot fixes the kind, the order, the extra terms and the roots'
    denominators; the seed draws only the roots' numerators, so the cost
    of a pass, and of its median operation, hardly depend on the seed.
    """
    d1 = _LAM_DENS[slot % len(_LAM_DENS)]
    d2 = _LAM_DENS[(slot // len(_LAM_DENS)) % len(_LAM_DENS)]
    while True:
        l1, l2 = Fr(rng.randint(-6, 6), d1), Fr(rng.randint(-6, 6), d2)
        if (l1 - l2).denominator != 1:
            break
    if l1 < l2:
        l1, l2 = l2, l1
    dp = _COEF_DENS[slot % len(_COEF_DENS)]
    dq = _COEF_DENS[(slot // len(_COEF_DENS)) % len(_COEF_DENS)]
    p = {-1: 1 - (l1 + l2), slot % 2: Fr(1, dp)}
    q = {-2: l1 * l2, (slot // 2) % 3 - 1: Fr(-1, dq)}
    return {"kind": "two_point" if slot % 4 < 2 else "three_point",
            "p": p, "q": q, "roots": (l1, l2), "order": 12 + (7 * slot) % 29}


def small_spec(seed: int) -> dict:
    rng = random.Random(seed)
    problems = [_random_problem(rng, i) for i in range(SMALL_RANDOM)]
    hyp_int = [(Fr(rng.randint(1, 3), rng.choice((2, 3, 4))),
                Fr(rng.randint(1, 3), rng.choice((2, 3, 4))), Fr(c), order)
               for c, order in ((2, 24), (3, 32))]
    struve = [(rng.choice((Fr(0), Fr(1, 3), Fr(1, 2), Fr(2, 3), Fr(1))), order)
              for order in (20, 36)]
    compares = [(family, rng.choice(choices), _COMPARE_ORDERS[j % len(_COMPARE_ORDERS)])
                for j, (family, choices) in enumerate(sorted(_CLI_FAMILIES.items()))]
    return {"problems": problems, "logs": [(0, 36), (1, 40), (2, 12)],
            "bessel_int": [(1, 20), (2, 28)], "hyp_int": hyp_int, "struve": struve,
            "compares": compares}


def _struve_problem(rs, nu, order):
    rhs = rs.LogSeries(nu - 1, order, {(0, 0): 1})
    return rs.OdeProblem("two_point", *_bessel_pq(nu), rhs=rhs, series_cutoff=order)


def small_build(spec: dict, rs) -> dict:
    return {
        "problems": [rs.OdeProblem(p["kind"], p["p"], p["q"], series_cutoff=p["order"])
                     for p in spec["problems"]],
        "logs": [rs.OdeProblem("two_point", *_bessel_pq(n), series_cutoff=order)
                 for n, order in spec["logs"]],
        "bessel_int": [rs.OdeProblem("two_point", *_bessel_pq(n), series_cutoff=order)
                       for n, order in spec["bessel_int"]],
        "hyp_int": [rs.OdeProblem("three_point", *_hyp2f1_pq(a, b, c), series_cutoff=order)
                    for a, b, c, order in spec["hyp_int"]],
        "struve": [_struve_problem(rs, nu, order) for nu, order in spec["struve"]],
    }


def small_reference(spec: dict) -> dict:
    ref = {"problems": [], "logs": [], "bessel_int": [], "hyp_int": [], "struve": []}
    for p in spec["problems"]:
        ref["problems"].append(tuple(
            _powers(R.frobenius(p["kind"], p["p"], p["q"], lam, p["order"]))
            for lam in p["roots"]))
    for n, order in spec["logs"]:
        ref["logs"].append(R.log_second_coeffs(n, order))
    for n, order in spec["bessel_int"]:
        ref["bessel_int"].append(
            _powers(R.frobenius("two_point", *_bessel_pq(n), Fr(n), order)))
    for a, b, c, order in spec["hyp_int"]:
        ref["hyp_int"].append(
            _powers(R.frobenius("three_point", *_hyp2f1_pq(a, b, c), Fr(0), order)))
    for nu, order in spec["struve"]:
        ref["struve"].append(_powers(R.frobenius("two_point", *_bessel_pq(nu), nu + 1, order,
                                                 forcing={nu - 1: 1})))
    return ref


def _problem_doc(kind, p, q, order, rhs_sigma=None) -> dict:
    doc = {"kind": kind,
           "p": {str(i): str(v) for i, v in sorted(p.items())},
           "q": {str(i): str(v) for i, v in sorted(q.items())},
           "series_cutoff": order}
    if rhs_sigma is not None:
        doc["rhs"] = [{"sigma": str(rhs_sigma), "coeff": "1"}]
    return doc


def _write_cli_files(spec: dict, ref: dict, workdir: str) -> list:
    """Write the problem files of the command-line solves.

    Random problems alternate roots; the driven Struve problems solve with
    zero seeds.  Returns (argv, expected f coefficients, f base, lambda,
    order) per file.
    """
    jobs = []
    for i, p in enumerate(spec["problems"][:SMALL_CLI_FILES]):
        root = 1 + i % 2
        doc = _problem_doc(p["kind"], p["p"], p["q"], p["order"])
        jobs.append((f"random{i}", doc, root, "1", p["order"], ref["problems"][i][root - 1],
                     Fr(0), p["roots"][root - 1]))
    for j, (nu, order) in enumerate(spec["struve"]):
        doc = _problem_doc("two_point", *_bessel_pq(nu), order, rhs_sigma=nu - 1)
        jobs.append((f"struve{j}", doc, 1, "0", order, ref["struve"][j], Fr(1), nu))
    out = []
    for name, doc, root, c0, order, want, sigma, lam in jobs:
        path = os.path.join(workdir, name + ".json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        argv = ["solve", "--problem", path, "--root", str(root), "--c0", c0,
                "--order", str(order), "--format", "csv"]
        out.append((argv, want, sigma, lam, order))
    return out


def _cli(rs, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = rs.cli.main(argv)
    return code, buf.getvalue()


def parse_solve_csv(text: str):
    """(meta dict, {(m, k): Fraction}) from `regsing solve --format csv`."""
    meta, coeffs = {}, {}
    lines = text.splitlines()
    rows = iter(lines)
    for line in rows:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            if line != "m,log_power,coefficient_numerator,coefficient_denominator":
                raise ValueError(f"unexpected CSV header {line!r}")
            break
    for line in rows:
        m, k, num, den = line.split(",")
        coeffs[(int(m), int(k))] = Fr(int(num), int(den))
    return meta, coeffs


def check_cli_solve(out, want, sigma, lam, order) -> bool:
    code, text = out
    if code != 0:
        return False
    try:
        meta, coeffs = parse_solve_csv(text)
    except ValueError:
        return False
    lead = meta.get("residual_leading_order")
    return (coeffs == want
            and meta.get("lambda") == str(lam)
            and meta.get("sigma") == str(sigma)
            and meta.get("mode") == "exact"
            and (lead == "None" or int(lead) >= order - 1))


def small_ops(spec, built, ref, rs, workdir) -> list:
    ops = []
    for i, (p, prob) in enumerate(zip(spec["problems"], built["problems"])):
        for root in (1, 2):
            ops.append(_solve_op(f"random{i}.root{root}",
                                 lambda prob=prob, root=root: rs.solve(prob, root, 1, 0),
                                 "psi", p["roots"][root - 1], ref["problems"][i][root - 1],
                                 p["order"]))
    for (n, order), prob, want in zip(spec["logs"], built["logs"], ref["logs"]):
        ops.append(_solve_op(f"bessel_log{n}",
                             lambda prob=prob, n=n: rs.solve_log_second(prob, n),
                             "f", -2 * n, want, order))
    regular = [(f"bessel_int{n}", Fr(n), order) for n, order in spec["bessel_int"]]
    regular += [(f"hyp2f1_c{c}", Fr(0), order) for _a, _b, c, order in spec["hyp_int"]]
    for (name, lam, order), prob, want in zip(regular, built["bessel_int"] + built["hyp_int"],
                                              ref["bessel_int"] + ref["hyp_int"]):
        ops.append(_solve_op(name, lambda prob=prob: rs.solve(prob, 1, 1, 0),
                             "psi", lam, want, order))
    for j, ((nu, order), prob, want) in enumerate(zip(spec["struve"], built["struve"],
                                                      ref["struve"])):
        ops.append(_solve_op(f"struve{j}", lambda prob=prob: rs.solve(prob, 1, 0, 0),
                             "psi", nu + 1, want, order))

    for argv, want, sigma, lam, order in _write_cli_files(spec, ref, workdir):
        def check(out, want=want, sigma=sigma, lam=lam, order=order):
            return check_cli_solve(out, want, sigma, lam, order)
        ops.append(Op("cli.solve." + os.path.basename(argv[2]), "cli",
                      lambda argv=argv: _cli(rs, argv), check))

    for family, params, order in spec["compares"]:
        argv = ["compare", "--family", family, "--order", str(order)]
        argv += [f"--{key}={value}" for key, value in sorted(params.items())]
        ops.append(Op(f"cli.compare.{family}", "cli", lambda argv=argv: _cli(rs, argv),
                      lambda out: out == (0, "max_coefficient_discrepancy = 0\n")))
    return ops


# ---------------------------------------------------------------- eval_float
#
# Float-mode solves and evaluation, residue sums, fractional operator powers,
# Mellin-Barnes integrands and the line quadrature.  Coefficients are floats,
# not bigints, and this is the only workload that runs the contour layer.

FLOAT_TOL = 1e-12
CONTOUR_TOL = 1e-8
# the acceptance criterion's series-vs-contour cases, at z = 0.25 and 0.5
CONTOUR_CASES = (
    ("Exp", {}),
    ("BesselRegular", {"nu": Fr(0)}),
    ("Hyp1F1Regular", {"a": Fr(1), "c": Fr(3, 2)}),
    ("Hyp2F1Regular", {"a": Fr(1, 2), "b": Fr(1, 3), "c": Fr(5, 4)}),
    ("Struve", {"nu": Fr(0)}),
)
CONTOUR_Z = (0.25, 0.5)
# residue sums run on exact Pochhammer products, whose cost depends on the
# parameters, so these are fixed and the seed draws only the points
MELLIN_FAMILIES = (
    ("Exp", {}),
    ("BesselRegular", {"nu": Fr(1, 3)}),
    ("Hyp1F1Regular", {"a": Fr(1, 2), "c": Fr(5, 3)}),
    ("Hyp2F1Regular", {"a": Fr(1, 2), "b": Fr(1, 3), "c": Fr(5, 4)}),
    ("Struve", {"nu": Fr(1, 3)}),
)
_NUS = (Fr(0), Fr(1, 4), Fr(1, 3), Fr(1, 2), Fr(2, 3), Fr(3, 4), Fr(1), Fr(3, 2))
_HYP1 = ((Fr(1), Fr(3, 2)), (Fr(1, 2), Fr(5, 3)), (Fr(2, 3), Fr(4, 3)), (Fr(1, 3), Fr(9, 4)))
_HYP2 = ((Fr(1, 2), Fr(1, 3), Fr(5, 4)), (Fr(1, 3), Fr(2, 3), Fr(3, 2)),
         (Fr(1, 4), Fr(1, 2), Fr(7, 3)), (Fr(2, 3), Fr(1, 5), Fr(8, 5)))
_Z_POINTS = 5          # evaluation points per float solve
_EVAL_POINTS = 10      # points per evaluate-only series
# z, v or s points per family; with 8, the slowest tenth of the timings are
# the 2F1 residue sums and the contour evaluations
_MELLIN_POINTS = 8


def _z(rng):
    return rng.uniform(0.02, 0.5)


def float_spec(seed: int) -> dict:
    rng = random.Random(seed)
    solves = []
    for kind in ("bessel", "struve"):
        for nu in rng.sample(_NUS, 2):
            solves.append((kind, {"nu": nu}, 30))
    for a, c in rng.sample(_HYP1, 2):
        solves.append(("hyp1f1", {"a": a, "c": c}, 40))
    for a, b, c in rng.sample(_HYP2, 2):
        solves.append(("hyp2f1", {"a": a, "b": b, "c": c}, 60))
    solves = [(kind, params, order, [_z(rng) for _ in range(_Z_POINTS)])
              for kind, params, order in solves]
    series = [("bessel", {"nu": rng.choice(_NUS)}, 30),
              ("hyp1f1", dict(zip("ac", rng.choice(_HYP1))), 40),
              ("hyp2f1", dict(zip("abc", rng.choice(_HYP2))), 60),
              ("log", {"n": rng.choice((1, 2))}, 30)]
    series = [(kind, params, order, [_z(rng) for _ in range(_EVAL_POINTS)])
              for kind, params, order in series]
    residues, powers, integrands = [], [], []
    for tag, params in MELLIN_FAMILIES:
        residues += [(tag, params, _z(rng)) for _ in range(_MELLIN_POINTS)]
        # non-integer powers: Re v in [0.1, 4] away from integers
        powers += [(tag, params, complex(rng.randrange(4) + rng.uniform(0.1, 0.9),
                                         rng.uniform(-2, 2)))
                   for _ in range(_MELLIN_POINTS)]
        integrands += [(tag, params, complex(rng.uniform(0.05, 0.95), rng.uniform(-8, 8)),
                        _z(rng)) for _ in range(_MELLIN_POINTS)]
    return {"solves": solves, "series": series, "residues": residues,
            "powers": powers, "integrands": integrands}


def _float_problem(rs, kind, params, order):
    def fl(d):
        return {i: float(v) for i, v in d.items()}
    if kind in ("bessel", "struve"):
        nu = params["nu"]
        p, q = _bessel_pq(nu)
        rhs = None
        if kind == "struve":
            rhs = rs.LogSeries(float(nu - 1), order, {(0, 0): 1.0})
        return rs.OdeProblem("two_point", fl(p), fl(q), rhs=rhs, series_cutoff=order)
    if kind == "hyp1f1":
        return rs.OdeProblem("two_point", *map(fl, _hyp1f1_pq(params["a"], params["c"])),
                             series_cutoff=order)
    return rs.OdeProblem("three_point",
                         *map(fl, _hyp2f1_pq(params["a"], params["b"], params["c"])),
                         series_cutoff=order)


def _exact_series(kind, params, order):
    """(base, {(m, k): Fraction}) of the evaluate-only series."""
    if kind == "bessel":
        return Fr(0), {(m, 0): c for m, c in R.bessel_j_coeffs(params["nu"], order).items()}
    if kind == "hyp1f1":
        return Fr(0), _powers(R.frobenius("two_point", *_hyp1f1_pq(params["a"], params["c"]),
                                          Fr(0), order))
    if kind == "hyp2f1":
        return Fr(0), {(m, 0): c for m, c in
                       R.hyp2f1_coeffs(params["a"], params["b"], params["c"], order).items()}
    n = params["n"]
    return Fr(-2 * n), R.log_second_coeffs(n, order)


def _family(rs, tag, params):
    return rs.catalog_family(tag, **params)


def float_build(spec: dict, rs) -> dict:
    series = []
    for kind, params, order, _zs in spec["series"]:
        base, coeffs = _exact_series(kind, params, order)
        series.append(rs.LogSeries(float(base), order,
                                   {mk: float(c) for mk, c in coeffs.items()}))
    return {
        "solves": [_float_problem(rs, kind, params, order)
                   for kind, params, order, _zs in spec["solves"]],
        "series": series,
        "residues": [_family(rs, tag, params) for tag, params, _z in spec["residues"]],
        "powers": [_family(rs, tag, params) for tag, params, _v in spec["powers"]],
        "integrands": [_family(rs, tag, params) for tag, params, _s, _z in spec["integrands"]],
        "contours": [_family(rs, tag, params) for tag, params in CONTOUR_CASES],
    }


def _solve_value(kind, params, z):
    if kind == "bessel":
        nu = params["nu"]
        return float(z) ** float(nu) * R.bessel_f(nu, z)
    if kind == "struve":
        return R.struve_scaled(params["nu"], z)
    if kind == "hyp1f1":
        return R.hyp1f1(params["a"], params["c"], z)
    return R.hyp2f1(params["a"], params["b"], params["c"], z)


def float_reference(spec: dict) -> dict:
    series = []
    for kind, params, order, zs in spec["series"]:
        base, coeffs = _exact_series(kind, params, order)
        series.append([R.series_value(base, coeffs, z) for z in zs])
    return {
        "solves": [[_solve_value(kind, params, z) for z in zs]
                   for kind, params, _order, zs in spec["solves"]],
        "series": series,
        "residues": [R.family_value(tag, params, z) for tag, params, z in spec["residues"]],
        "powers": [R.power_coeff(tag, params, v) for tag, params, v in spec["powers"]],
        "integrands": [R.integrand(tag, params, s, z)
                       for tag, params, s, z in spec["integrands"]],
        "contours": [R.family_value(tag, params, z) for tag, params in CONTOUR_CASES
                     for z in CONTOUR_Z],
    }


def _all_close(got, want, tol=FLOAT_TOL) -> bool:
    return len(got) == len(want) and all(R.rel_close(g, w, tol) for g, w in zip(got, want))


def float_ops(spec, built, ref, rs, workdir) -> list:
    ops = []
    for (kind, _params, _order, zs), prob, want in zip(spec["solves"], built["solves"],
                                                       ref["solves"]):
        c0 = 0.0 if kind == "struve" else 1.0     # the driven solution has no seed

        def run(prob=prob, zs=zs, c0=c0):
            sol = rs.solve(prob, 1, c0, 0.0)
            return [rs.evaluate(sol.psi, z) for z in zs]
        ops.append(Op(f"float_solve.{kind}", "solve", run,
                      lambda got, want=want: _all_close(got, want)))

    for (kind, _params, _order, zs), series, wants in zip(spec["series"], built["series"],
                                                          ref["series"]):
        for z, want in zip(zs, wants):
            ops.append(Op(f"evaluate.{kind}", "evaluate",
                          lambda series=series, z=z: rs.evaluate(series, z),
                          lambda got, want=want: R.rel_close(got, want, FLOAT_TOL)))

    for (tag, _params, z), fam, want in zip(spec["residues"], built["residues"],
                                            ref["residues"]):
        ops.append(Op(f"residue_eval.{tag}", "mellin",
                      lambda fam=fam, z=z: rs.residue_eval(fam, z),
                      lambda got, want=want: R.rel_close(got, want, FLOAT_TOL)))

    for (tag, _params, v), fam, want in zip(spec["powers"], built["powers"], ref["powers"]):
        expo = 2 * v + 1 if tag == "Struve" else (2 * v if tag == "BesselRegular" else v)

        def check(data, want=want, expo=expo):
            return (R.rel_close(complex(data.coefficient), want, FLOAT_TOL)
                    and R.rel_close(complex(data.exponent), expo, FLOAT_TOL)
                    and data.log_coefficient == 0)
        ops.append(Op(f"fractional_power_coeff.{tag}", "mellin",
                      lambda fam=fam, v=v: rs.fractional_power_coeff(fam, v), check))

    for (tag, _params, s, z), fam, want in zip(spec["integrands"], built["integrands"],
                                               ref["integrands"]):
        ops.append(Op(f"mellin_integrand.{tag}", "mellin",
                      lambda fam=fam, s=s, z=z: rs.mellin_integrand(fam, s, z),
                      lambda got, want=want: R.rel_close(complex(got), want, FLOAT_TOL)))

    wants = iter(ref["contours"])
    for (tag, _params), fam in zip(CONTOUR_CASES, built["contours"]):
        for z in CONTOUR_Z:
            ops.append(Op(f"contour_eval.{tag}@{z}", "mellin",
                          lambda fam=fam, z=z: rs.contour_eval(fam, z),
                          lambda got, want=next(wants): abs(got - want) <= CONTOUR_TOL))
    return ops


WORKLOADS = {
    "solve_deep": (deep_spec, deep_build, deep_reference, deep_ops),
    "solve_small": (small_spec, small_build, small_reference, small_ops),
    "eval_float": (float_spec, float_build, float_reference, float_ops),
}
