"""Set-up time in a fresh interpreter: `import regsing`, then the
program-side construction of one workload's inputs.

run.py starts it as `python3 bench/setup_child.py <workload> <seed>`; it
prints one JSON line.  Nothing but the interpreter's own start-up runs
before the timed import.
"""

import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

t0 = time.perf_counter()
import regsing  # noqa: E402
t1 = time.perf_counter()

import json  # noqa: E402

import workloads  # noqa: E402

spec_fn, build_fn, _ref_fn, _ops_fn = workloads.WORKLOADS[sys.argv[1]]
spec = spec_fn(int(sys.argv[2]))
t2 = time.perf_counter()
build_fn(spec, regsing)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t3 - t2, "regsing_file": regsing.__file__}))
