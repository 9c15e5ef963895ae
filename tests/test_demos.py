"""Each demo's stdout, byte for byte, against tests/golden/demo-<stem>.txt.

To regenerate a golden file after an intended change of output:

    PYTHONPATH=src python demos/<stem>.py > tests/golden/demo-<stem>.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_golden_file_has_its_demo():
    golden = {p.stem.removeprefix("demo-")
              for p in (ROOT / "tests" / "golden").glob("demo-*.txt")}
    assert golden == {p.stem for p in DEMOS} != set()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_stdout_matches_golden(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    run = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                         capture_output=True, timeout=120, check=True)
    golden = ROOT / "tests" / "golden" / f"demo-{demo.stem}.txt"
    assert run.stdout == golden.read_bytes()
