"""Smoke test of the benchmark itself: every workload at toy size.

    python3 bench/smoke.py

For each workload, one end-to-end run and two traced runs of one seed must
exit 0, report ``correct``, emit exactly the metric names that
BENCHMARK.json lists, and repeat the bundle digest and every exact count.
The gate must also reject tampered bundles.  Run from the repository root;
exits 1 on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 3


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0.2", "--trace", str(trace), "--size", "toy"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} trace={trace} exited {done.returncode}: {done.stderr[-1000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        fail(f"{workload} trace={trace} is not correct:\n" + "\n".join(lines[-8:]))
    sha = next(line.split("sha256=")[1] for line in lines if line.startswith("digest "))
    return result["metrics"], sha


def fail(message):
    print(f"FAIL: {message}")
    sys.exit(1)


def check_gate():
    """The gate accepts a real bundle and rejects two tampered copies."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import numpy as np
    from svrisk.bounds import compute_bundle
    from tracing import NULL
    from workloads import gate, setup_many_small

    case = setup_many_small(np.random.default_rng(SEED), True, None)[0]
    case.reference()
    text = compute_bundle(case.portfolio, case.spec, strategies=case.strategies).to_json()
    if gate(text, case.ref, NULL) is not None:
        fail(f"gate rejects an untouched bundle: {gate(text, case.ref, NULL)}")
    for region, shift, caught_by in (("outer", 1.0, "sandwich"), ("marginal", 1e-6, "reference")):
        data = json.loads(text)
        data[region]["vertices"] = [[x + shift, y + shift] for x, y in data[region]["vertices"]]
        if gate(json.dumps(data, sort_keys=True), case.ref, NULL) is None:
            fail(f"gate accepts a bundle whose {region} moved by {shift} ({caught_by} check)")
    print("gate: rejects tampered bundles")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        metrics, sha = run(workload, 0)
        if set(metrics) != end_to_end:
            fail(f"{workload}: end-to-end names {sorted(set(metrics) ^ end_to_end)} disagree")
        traced = [run(workload, 1) for _ in range(2)]
        for layers, traced_sha in traced:
            if set(layers) != per_layer:
                fail(f"{workload}: per-layer names {sorted(set(layers) ^ per_layer)} disagree")
            if traced_sha != sha:
                fail(f"{workload}: bundle digest differs between runs of seed {SEED}")
        (first, _), (second, _) = traced
        counts = [k for k, v in first.items() if v["unit"] in ("count", "B")]
        moved = [k for k in counts if first[k]["value"] != second[k]["value"]]
        if moved:
            fail(f"{workload}: counts differ between runs of seed {SEED}: {moved}")
        print(f"{workload}: ok ({len(counts)} exact counts, sha256 {sha[:12]})")
    check_gate()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
