"""The benchmark's own smoke test, so that a change to the program that
breaks the benchmark harness (a name it imports, a workload it runs) fails
here too."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    done = subprocess.run(
        [sys.executable, "bench/smoke.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
