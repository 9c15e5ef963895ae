"""Span tracing of the program's layers, from the benchmark's side.

Tracer.install wraps the public functions of each layer (the modules of
src/regsing) and puts the wrapper in place of the function in every regsing
module that holds it by name, so calls between layers are caught as well as
the benchmark's own.  Each call records a span: name, start, end and the
span that was open when it began.  The spans stay in memory until the run
ends.

Self time of a span is its duration minus the time its child spans cover.
Counts (terms fed to the series primitives, iterations, coefficient sizes)
are taken in the same wrappers.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from fractions import Fraction

# layer -> public functions wrapped; a name the program no longer has is
# skipped and its metrics read 0
LAYERS = {
    "logseries": ("mul_poly", "linear_combine", "integrate", "differentiate", "evaluate"),
    "operators": ("apply_A", "apply_L", "make_f0"),
    "problem": ("transform",),
    "solver": ("solve", "solve_log_second", "residual"),
    "catalog": ("pochhammer", "harmonic", "hyp1f1_series", "hyp2f1_series",
                "bessel_j_series", "struve_series", "struve_prefactor",
                "log_second_c1", "log_second_c2", "bessel_log_second_series"),
    "mellin": ("complex_gamma", "digamma", "catalog_family", "family_operator",
               "fractional_power_coeff", "evaluate_power", "residue_eval",
               "mellin_integrand", "contour_eval"),
    "cli": ("main", "parse_problem"),
}

# the per-layer metrics, in the order BENCHMARK.json lists them
METRICS = (
    ("setup.import_numpy_s", "s"),
    ("setup.import_regsing_s", "s"),
    ("operators.apply_A.calls", "count"),
    ("operators.apply_A.terms_in", "count"),
    ("operators.apply_A.self_s", "s"),
    ("operators.apply_L.self_s", "s"),
    ("solver.solve.calls", "count"),
    ("solver.iterations", "count"),
    ("solver.resolvent_s", "s"),
    ("solver.residual_s", "s"),
    ("logseries.mul_poly.calls", "count"),
    ("logseries.mul_poly.self_s", "s"),
    ("logseries.linear_combine.calls", "count"),
    ("logseries.linear_combine.self_s", "s"),
    ("logseries.integrate.self_s", "s"),
    ("logseries.differentiate.self_s", "s"),
    ("logseries.terms_in", "count"),
    ("logseries.max_coeff_bits", "bits"),
    ("logseries.evaluate.calls", "count"),
    ("logseries.evaluate.self_s", "s"),
    ("problem.transform.calls", "count"),
    ("problem.transform.self_s", "s"),
    ("catalog.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.parse_problem.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("mellin.fractional_power_coeff.calls", "count"),
    ("mellin.fractional_power_coeff.self_s", "s"),
    ("mellin.residue_eval.self_s", "s"),
    ("mellin.complex_gamma.calls", "count"),
    ("mellin.complex_gamma.self_s", "s"),
    ("mellin.mellin_integrand.calls", "count"),
    ("mellin.contour_eval.self_s", "s"),
    ("mellin.contour_eval.nodes", "count"),
)

# direct children of a solve span that are not the resolvent
_NOT_RESOLVENT = ("problem.transform", "operators.make_f0", "solver.residual")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = {"operators.apply_A.terms_in": 0, "logseries.terms_in": 0,
                       "solver.iterations": 0, "logseries.max_coeff_bits": 0}
        self.missing: list[str] = []

    # ------------------------------------------------------------ install

    def install(self, rs) -> None:
        """Wrap every function of LAYERS wherever a regsing module holds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "regsing" or key.startswith("regsing."))]
        hooks = {
            "operators.apply_A": (self._terms_apply_A, None),
            "logseries.mul_poly": (self._terms_first, None),
            "logseries.integrate": (self._terms_first, None),
            "logseries.differentiate": (self._terms_first, None),
            "logseries.linear_combine": (self._terms_combine, None),
            "solver.solve": (None, self._solution),
        }
        for layer, funcs in LAYERS.items():
            home = sys.modules.get(f"regsing.{layer}")
            for fname in funcs:
                fn = getattr(home, fname, None) or getattr(rs, fname, None)
                name = f"{layer}.{fname}"
                if not callable(fn):
                    self.missing.append(name)
                    continue
                on_call, on_return = hooks.get(name, (None, None))
                wrapper = self._wrap(name, fn, on_call, on_return)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)

    def _wrap(self, name, fn, on_call, on_return):
        nid = len(self.names)
        self.names.append(name)
        stack, name_of, parent = self._stack, self.name_of, self.parent
        start, end = self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            if on_call is not None:
                on_call(args, kwargs)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if on_return is not None:
                on_return(result)
            return result
        return traced

    # --------------------------------------------------------------- hooks

    def _terms_apply_A(self, args, kwargs):
        self.counts["operators.apply_A.terms_in"] += len(_arg(args, kwargs, 1, "f").coeffs)

    def _terms_first(self, args, kwargs):
        self.counts["logseries.terms_in"] += len(_arg(args, kwargs, 0, "f").coeffs)

    def _terms_combine(self, args, kwargs):
        self.counts["logseries.terms_in"] += (len(_arg(args, kwargs, 1, "f").coeffs)
                                              + len(_arg(args, kwargs, 3, "g").coeffs))

    def _solution(self, sol):
        self.counts["solver.iterations"] += sol.iterations_used
        bits = self.counts["logseries.max_coeff_bits"]
        for c in sol.f.coeffs.values():
            if isinstance(c, Fraction):
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
        self.counts["logseries.max_coeff_bits"] = bits

    # ------------------------------------------------------------- metrics

    def layer_metrics(self, passes: int, stdout_bytes: int, setup: dict) -> dict:
        """Per-pass values of METRICS (max_coeff_bits is the run's maximum)."""
        ids = {name: i for i, name in enumerate(self.names)}
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        n = len(self.start)
        covered = array("d", bytes(8 * n))
        not_resolvent = array("d", bytes(8 * n))
        solve_id = ids.get("solver.solve", -1)
        contour_id = ids.get("mellin.contour_eval", -1)
        integrand_id = ids.get("mellin.mellin_integrand", -1)
        skip_ids = {ids[k] for k in _NOT_RESOLVENT if k in ids}
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        nodes = 0
        for i in range(n):
            p = parent[i]
            if p >= 0:
                d = end[i] - start[i]
                covered[p] += d
                nid, pid = name_of[i], name_of[p]
                if pid == solve_id and nid in skip_ids:
                    not_resolvent[p] += d
                elif pid == contour_id and nid == integrand_id:
                    nodes += 1
        resolvent = residual = 0.0
        residual_id = ids.get("solver.residual", -1)
        for i in range(n):
            nid = name_of[i]
            d = end[i] - start[i]
            calls[nid] += 1
            self_s[nid] += d - covered[i]
            if nid == solve_id:
                resolvent += d - not_resolvent[i]
            elif nid == residual_id:
                residual += d

        def per_pass(x):
            return x / passes

        def c(name):
            return per_pass(calls[ids[name]]) if name in ids else 0.0

        def s(name):
            return per_pass(self_s[ids[name]]) if name in ids else 0.0

        out = {
            "setup.import_numpy_s": setup["import_numpy_s"],
            "setup.import_regsing_s": setup["import_regsing_s"],
            "solver.resolvent_s": per_pass(resolvent),
            "solver.residual_s": per_pass(residual),
            "logseries.terms_in": per_pass(self.counts["logseries.terms_in"]),
            "operators.apply_A.terms_in": per_pass(self.counts["operators.apply_A.terms_in"]),
            "solver.iterations": per_pass(self.counts["solver.iterations"]),
            "logseries.max_coeff_bits": self.counts["logseries.max_coeff_bits"],
            "catalog.self_s": sum(s(f"catalog.{f}") for f in LAYERS["catalog"]),
            "cli.stdout_bytes": per_pass(stdout_bytes),
            "mellin.contour_eval.nodes": per_pass(nodes),
        }
        for name, _unit in METRICS:
            if name in out:
                continue
            base, _, stat = name.rpartition(".")
            out[name] = c(base) if stat == "calls" else s(base)
        return {name: out[name] for name, _unit in METRICS}

    def write(self, path: str) -> None:
        """Spans as gzip text: a line of the names, then one span a line,
        `name_index parent_span start_ns end_ns`, spans numbered from 0 and
        times counted from the first span's start."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# " + " ".join(self.names) + "\n")
            fh.writelines(f"{n} {p} {round((a - t0) * 1e9)} {round((b - t0) * 1e9)}\n"
                          for n, p, a, b in zip(self.name_of, self.parent,
                                                self.start, self.end))
