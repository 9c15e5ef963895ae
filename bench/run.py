"""Benchmark of regsing: one workload per run, from one process and thread.

    python3 bench/run.py --workload solve_deep --seed 1 --seconds 30 --trace 0

Workloads: solve_deep, solve_small, eval_float (see workloads.py and
README.md).  A run times whole passes over the workload's fixed list of
operations until --seconds of passes have gone by, and checks every output
against values computed apart from the program.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it wraps the program's layers
(tracing.py) and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Results and spans are also written under
bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 11          # fresh interpreters timed per run, after one warm-up


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _numpy_import_s(stderr: str) -> float:
    """Cumulative time of the numpy import from `-X importtime` output."""
    for line in stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "numpy":
            return int(fields[1]) * 1e-6
    return 0.0


class SetupSampler:
    """Set-up time in fresh interpreters: `import regsing` plus the
    program-side construction of the inputs (setup_child.py).

    The samples are spread over the run, between passes, so that their
    median sees the same stretch of machine time as the passes do.  One
    start before them writes the bytecode caches and is not counted.
    """

    def __init__(self, workload: str, seed: int, trace: bool):
        self.cmd = [sys.executable]
        if trace:
            self.cmd += ["-X", "importtime"]
        self.cmd += [os.path.join(HERE, "setup_child.py"), workload, str(seed)]
        self.setup, self.numpy_s, self.regsing_s = [], [], []
        self._start()

    def _start(self):
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        rec = json.loads(proc.stdout.splitlines()[-1])
        if not os.path.abspath(rec["regsing_file"]).startswith(SRC + os.sep):
            raise RuntimeError(f"set-up child imported {rec['regsing_file']}")
        return rec, _numpy_import_s(proc.stderr)

    def catch_up(self, share: float) -> None:
        """Take samples until their count matches `share` of the run."""
        while len(self.setup) < math.ceil(SETUP_SAMPLES * min(share, 1.0)):
            rec, numpy_s = self._start()
            self.setup.append(rec["import_s"] + rec["build_s"])
            self.numpy_s.append(numpy_s)
            self.regsing_s.append(rec["import_s"] - numpy_s)

    def summary(self) -> dict:
        self.catch_up(1.0)
        return {"setup_s": statistics.median(self.setup),
                "import_numpy_s": statistics.median(self.numpy_s),
                "import_regsing_s": statistics.median(self.regsing_s)}


def run_passes(ops: list, seconds: float, between=None) -> dict:
    """Whole passes over `ops` until `seconds` of passes have gone by.

    Each operation is timed alone; its output is checked after the pass,
    outside the timed region.  An operation that raises counts as failed;
    one whose output fails its check counts as failed and wrong.
    `between(share)` runs after each pass, off the clock, with the share of
    `seconds` used so far.
    """
    op_times = [[] for _ in ops]
    pass_times = []
    attempted = failed = 0
    wrong: dict[str, int] = {}
    errors: dict[str, str] = {}
    stdout_bytes = 0
    clock = time.perf_counter
    used = 0.0
    while True:
        gc.collect()
        outputs = []
        p0 = clock()
        for i, op in enumerate(ops):
            t0 = clock()
            try:
                out, err = op.run(), None
            except Exception as exc:   # counted, reported, and the run goes on
                out, err = None, exc
            op_times[i].append(clock() - t0)
            outputs.append((out, err))
        pass_times.append(clock() - p0)
        for op, (out, err) in zip(ops, outputs):
            attempted += 1
            if err is not None:
                failed += 1
                errors.setdefault(op.name, f"{type(err).__name__}: {err}")
                continue
            try:
                ok = bool(op.check(out))
            except Exception:
                ok = False
            if not ok:
                failed += 1
                wrong[op.name] = wrong.get(op.name, 0) + 1
            if op.kind == "cli":
                stdout_bytes += len(out[1].encode())
        del outputs
        used += clock() - p0
        if between is not None:
            between(used / seconds)
        if used >= seconds:
            break
    return {"op_times": op_times, "pass_times": pass_times, "attempted": attempted,
            "failed": failed, "wrong": wrong, "errors": errors,
            "stdout_bytes": stdout_bytes}


def end_to_end(setup: dict, res: dict) -> dict:
    # Every timing of every operation in every pass.  A quantile over these
    # moves less from run to run than one over the per-operation medians, whose
    # 90th percentile sits where one family of operations gives way to the next.
    samples = sorted(t for times in res["op_times"] for t in times)
    p90 = samples[math.ceil(0.9 * len(samples)) - 1]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": {"value": setup["setup_s"], "unit": "s"},
        "sweep_s": {"value": statistics.median(res["pass_times"]), "unit": "s"},
        "op_s.p50": {"value": statistics.median(samples), "unit": "s"},
        "op_s.p90": {"value": p90, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "regsing", "__init__.py")):
        print(f"error: the regsing sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import regsing as rs
    if os.path.dirname(os.path.abspath(rs.__file__)) != os.path.join(SRC, "regsing"):
        print(f"error: imported regsing from {rs.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spec_fn, build_fn, ref_fn, ops_fn = workloads.WORKLOADS[args.workload]
    sampler = SetupSampler(args.workload, args.seed, bool(args.trace))
    spec = spec_fn(args.seed)
    ref = ref_fn(spec)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = None
    try:
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(rs)
        built = build_fn(spec, rs)
        ops = ops_fn(spec, built, ref, rs, workdir)
        res = run_passes(ops, args.seconds, between=sampler.catch_up)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup = sampler.summary()

    passes = len(res["pass_times"])
    sweep = statistics.median(res["pass_times"])
    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} operations a pass, "
          f"{passes} passes ({passes * len(ops)} operation timings), "
          f"sweep {sweep:.6g} s{' (traced)' if tracer else ''}")
    for name, msg in sorted(res["errors"].items()):
        print(f"failed: {name}: {msg}")
    for name, count in sorted(res["wrong"].items()):
        print(f"WRONG OUTPUT: {name} ({count} times)")

    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        values = tracer.layer_metrics(passes, res["stdout_bytes"], setup)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.METRICS}
        for name in tracer.missing:
            print(f"not traced (absent from the program): {name}")
        tracer.write(stem + ".spans.gz")
    else:
        metrics = end_to_end(setup, res)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": not res["wrong"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    with open(stem + ".json", "w") as fh:
        json.dump(dict(result, passes=passes, sweep_s=sweep, seconds=args.seconds,
                       pass_times=res["pass_times"], setup=setup,
                       errors=res["errors"], wrong=res["wrong"]), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
