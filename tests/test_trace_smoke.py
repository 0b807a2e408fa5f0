"""A short benchmark run per workload as a test.

`perfbench/run.py --trace 1` exits 3 when an entry point it wraps is gone or
never called, and counts a failed operation when an answer disagrees with its
pixel oracle, so a refactor that breaks either fails here. gradient-levels
queries three clean levels, so a fault in per-level state shows there. One
run with `--trace 0` takes the untraced path that the end-to-end metrics
are measured on.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "workload, trace",
    [("noise-regions", 1), ("gradient-levels", 1), ("sign-mosaic", 1), ("sign-mosaic", 0)],
    ids=["noise-regions", "gradient-levels", "sign-mosaic", "sign-mosaic-untraced"],
)
def test_traced_benchmark_run_succeeds(workload, trace):
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
