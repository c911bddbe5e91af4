"""svrisk benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size toy]

Run from the root of an svrisk checkout; the program is imported from
``src``.  The seed makes every input.  Units of the workload repeat until
``--seconds`` have passed (at least ``MIN_UNITS`` of them), every bundle is
checked by ``workloads.gate``, and the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced units with traced ones and reports per-layer metrics: self time per
layer, exact counts, and the tracing overhead.  Spans go to
``.bench_work/traces/<workload>-seed<N>.jsonl``.  ``--size toy`` shrinks
every input so that the smoke test runs in seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_UNITS = 3  # untraced units per run; a traced run makes TRACED_PAIRS pairs
TRACED_PAIRS = 2
SETUP_REPS = 3  # set-ups per untraced run; setup_s is their median
TIME_CAP = 120.0  # no unit starts after this many seconds of measuring

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import svrisk, svrisk.cli; "
    "print(time.perf_counter() - t)"
)

# Per-layer metrics whose dominant share the workload is predicted to show.
PREDICTED_DOMINANT = {
    "cone-det-large": ("riskstats.eval_s", "selections.build_s"),
    "support-grid": ("bounds.outer_s",),
    "audit": ("selections.audit_s",),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full")
    return p.parse_args(argv)


def time_import():
    """Seconds a fresh interpreter spends importing svrisk."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def digest(units):
    """SHA-256 of one unit's bundle JSON, and whether every unit agrees."""
    sums = {hashlib.sha256("\n".join(t or "" for t in u.texts).encode()).hexdigest()
            for u in units}
    return min(sums), len(sums) == 1


def percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure(loop, seconds, least):
    """Call ``loop`` at least ``least`` times, and again while finishing one
    more call ends nearer to ``seconds`` of measuring than stopping now."""
    start = time.perf_counter()
    done = 0
    while True:
        t0 = time.perf_counter()
        loop()
        done += 1
        now = time.perf_counter()
        elapsed = now - start
        if done >= least and (elapsed + (now - t0) / 2 >= seconds or elapsed >= TIME_CAP):
            return


def end_to_end(workload, cases, args, setups):
    from tracing import NULL
    from workloads import run_unit
    from svrisk.bounds import compute_bundle

    units = []
    measure(lambda: units.append(run_unit(cases, NULL, compute_bundle)), args.seconds, MIN_UNITS)
    latencies = [x for u in units for x in u.latencies]
    attempted = len(latencies)
    failed = sum(len(u.errors) for u in units)
    metrics = {
        "wall_s": (statistics.median(u.wall for u in units), "s"),
        "bundles_per_s": (attempted / sum(u.wall for u in units), "1/s"),
        "bundle_p50_ms": (1e3 * percentile(latencies, 0.5), "ms"),
        "bundle_p90_ms": (1e3 * percentile(latencies, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    print("unit latencies: " + json.dumps([[round(x, 5) for x in u.latencies] for u in units]))
    return units, attempted, failed, metrics, []


def traced(workload, cases, args, setups):
    import tracing
    from workloads import run_unit
    from svrisk.bounds import compute_bundle

    gone, unmeasured = tracing.missing(workload.through_cli)
    stage = "bounds.outer_s" not in unmeasured
    plain, spanned, tracers = [], [], []

    def pair():
        plain.append(run_unit(cases, tracing.NULL, compute_bundle))
        tracer = tracing.Tracer()
        staged = tracing.Staged(tracer) if stage else None
        with tracer.instrument(staged):
            spanned.append(run_unit(cases, tracer, staged or compute_bundle))
        if staged is not None and staged.calls == 0:
            # The CLI no longer calls compute_bundle by that name.
            gone.append("cli.compute_bundle")
            unmeasured.update(tracing.STAGED_METRICS)
        tracers.append(tracer)

    measure(pair, args.seconds, TRACED_PAIRS)
    problems = []
    if digest(plain)[0] != digest(spanned)[0]:
        problems.append("staged bundles differ from compute_bundle's bytes")
    per_unit = [t.layer_metrics(u.wall) for t, u in zip(tracers, spanned)]
    for name in tracing.EXACT_COUNTS:
        if len({m[name] for m in per_unit}) != 1:
            problems.append(f"count {name} differs between units: "
                            f"{[m[name] for m in per_unit]}")
    metrics = {}
    for name in per_unit[0]:
        if name in unmeasured:
            continue
        if name in tracing.EXACT_COUNTS:
            metrics[name] = (per_unit[0][name], "B" if "bytes" in name else "count")
        else:
            value = statistics.median(m[name] for m in per_unit)
            metrics[name] = (value, "s" if name.endswith("_s") else "ratio")
    metrics["trace.overhead_s"] = (
        metrics["trace.wall_s"][0] - statistics.median(u.wall for u in plain), "s")
    write_spans(args, tracers)
    report_layers(args.workload, metrics)
    if gone:
        print(f"missing layers: {', '.join(sorted(set(gone)))} "
              f"(not measured: {', '.join(sorted(unmeasured))})")
    units = plain + spanned
    attempted = sum(len(u.texts) for u in units)
    failed = sum(len(u.errors) for u in units)
    return units, attempted, failed, metrics, problems


def write_spans(args, tracers):
    path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for index, tracer in enumerate(tracers):
            tracer.write_jsonl(fh, index)
    print(f"spans: {path.relative_to(ROOT)}")


def report_layers(name, metrics):
    from tracing import LAYER_MAP

    wall = metrics["trace.wall_s"][0]
    times = {k: v for k, (v, unit) in metrics.items()
             if unit == "s" and not k.startswith("trace.")}
    for key in sorted(times, key=times.get, reverse=True):
        print(f"  {key:<22} {times[key]:9.4f} s  {times[key] / wall:6.1%}  "
              f"moves {LAYER_MAP.get(key, '-')}")
    print(f"  traced wall {wall:.4f} s, layers account for "
          f"{metrics['trace.attributed_share'][0]:.1%}, "
          f"tracing overhead {metrics['trace.overhead_s'][0]:+.4f} s")
    predicted = PREDICTED_DOMINANT.get(name)
    if predicted:
        share = sum(times.get(k, 0.0) for k in predicted)
        rest = max((v for k, v in times.items() if k not in predicted), default=0.0)
        verdict = "met" if share > rest else "NOT met"
        print(f"  predicted dominant {' + '.join(predicted)}: {verdict}")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "svrisk" / "__init__.py").is_file():
        print(f"error: no svrisk sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.environ["SVRISK_THREADS"] = workload.threads
    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        setups = []
        for _ in range(1 if args.trace else SETUP_REPS):
            imported = time_import()
            start = time.perf_counter()
            cases = workload.setup(np.random.default_rng(args.seed), args.size == "toy", work)
            setups.append(imported + time.perf_counter() - start)
        for case in cases:
            case.reference()
        run = traced if args.trace else end_to_end
        units, attempted, failed, metrics, problems = run(workload, cases, args, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    sha, repeated = digest(units)
    if not repeated:
        problems.append("bundle digest differs between units")
    for unit in units:
        for index, message in unit.errors[:3]:
            problems.append(f"case {index}: {message}")
    print(f"digest {args.workload} seed={args.seed}: sha256={sha}")
    for problem in problems:
        print(f"FAIL: {problem}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
