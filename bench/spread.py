"""Run a workload on several seeds and report each end-to-end metric's spread.

    python3 bench/spread.py --workload NAME [--runs 10] [--first-seed 1] [--out FILE]
    python3 bench/spread.py --compare FIRST.json SECOND.json

The spread is the distance between the first and third quartile of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of their
median.  A metric is steady when its spread is below a third of its bound
in BENCHMARK.json (``setup_s`` is exempt).  ``--compare`` checks that no
median of the second set is worse than the first by more than the bound.
Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def run_seeds(workload, runs, first_seed, seconds):
    """Metric values per name over the runs; stops at the first failure."""
    values = {}
    for seed in range(first_seed, first_seed + runs):
        cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(done.stdout.splitlines()[-1]) if done.returncode == 0 else None
        if result is None or not result["correct"]:
            sys.exit(f"seed {seed}: run failed\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    return values


def summarize(values, metrics):
    ok = True
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        bound = metrics[name]["bound"]
        steady = name == "setup_s" or spread < bound / 3
        ok &= steady
        print(f"  {name:<14} median {median:<12.6g} spread {spread:7.2%}  "
              f"bound {bound:.0%}  {'ok' if steady else 'NOT STEADY'}")
    return ok


def compare(first, second, metrics):
    ok = True
    for workload in sorted(set(first) & set(second)):
        for name, vals in first[workload].items():
            a = statistics.median(vals)
            b = statistics.median(second[workload][name])
            m = metrics[name]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            fine = worse <= m["bound"]
            ok &= fine
            print(f"  {workload:<15} {name:<14} {a:<12.6g} -> {b:<12.6g} "
                  f"{worse:+7.2%} worse  bound {m['bound']:.0%}  {'ok' if fine else 'WORSE'}")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", help="merge the values into this JSON file, keyed by workload")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = p.parse_args()
    spec, metrics = load_spec()
    if args.compare:
        first, second = (json.loads(Path(f).read_text()) for f in args.compare)
        return 0 if compare(first, second, metrics) else 1
    if not args.workload:
        p.error("--workload or --compare is required")
    values = run_seeds(args.workload, args.runs, args.first_seed, spec["run_seconds"])
    ok = summarize(values, metrics)
    if args.out:
        out = Path(args.out)
        merged = json.loads(out.read_text()) if out.exists() else {}
        merged[args.workload] = values
        out.write_text(json.dumps(merged, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
