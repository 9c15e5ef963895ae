"""One in-process pass of each benchmark workload (bench/workloads.py) at
seed 1, so that an operation whose output the benchmark would count as wrong
shows here first.  Every operation that returns must pass its own check; the
only ones that may raise are eval_float's line quadratures (contour_eval.*),
which refuse the acceptance criterion 7 cases on their tail estimate."""

import sys
from pathlib import Path

import pytest

import regsing

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_of_the_benchmark_operations(name, tmp_path):
    spec_fn, build_fn, ref_fn, ops_fn = workloads.WORKLOADS[name]
    spec = spec_fn(1)
    ops = ops_fn(spec, build_fn(spec, regsing), ref_fn(spec), regsing, str(tmp_path))
    wrong, raised = [], {}
    for op in ops:
        try:
            out = op.run()
        except Exception as exc:   # counted as failed, as the benchmark does
            raised[op.name] = f"{type(exc).__name__}: {exc}"
            continue
        if not op.check(out):
            wrong.append(op.name)
    assert wrong == []
    may_raise = {op.name for op in ops
                 if name == "eval_float" and op.name.startswith("contour_eval.")}
    assert set(raised) <= may_raise, raised
