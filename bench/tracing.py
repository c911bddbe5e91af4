"""Per-layer tracing for the svrisk benchmark.

Spans are recorded from the benchmark's own code, around calls into each
module's public functions; nothing inside ``src/svrisk`` is edited.  A traced
bundle is built by ``Staged``, which repeats ``bounds.compute_bundle`` call
by call so that every layer gets its own span.  ``Tracer.instrument`` routes
the CLI through the staged pipeline, wraps the CLI's scenario readers, and
counts every ``SetPortfolio.support_values`` call while a traced unit runs.
Support values get spans only when ``outer_region`` asks for them (the outer
direction set); those that ``audit_selection`` asks for stay in its self time.

A layer's self time is its spans' duration minus the part covered by their
child spans; spans are kept in memory and written as JSON lines at the end.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from svrisk import bounds, cli, geom2d, markets, selections
from svrisk.errors import ValidationError

# span name -> per-layer metric holding the spans' summed self time
LAYER_SPANS = {
    "scenarios.read_csv": "scenarios.read_csv_s",
    "scenarios.generate": "scenarios.generate_s",
    "selections.build": "selections.build_s",
    "selections.audit": "selections.audit_s",
    "riskstats.eval": "riskstats.eval_s",
    "geom2d.hull": "geom2d.hull_s",
    "markets.support": "markets.support_s",
    "bounds.compute_bundle": "bounds.self_s",
    "bounds.outer": "bounds.outer_s",
    "bounds.marginal": "bounds.marginal_s",
    "bounds.json": "bounds.json_s",
    "bounds.check": "bounds.check_s",
    "cli": "cli.self_s",
}

# Counts recorded at the same boundaries.  They depend only on the inputs,
# so they must repeat exactly between units and between runs of one seed.
EXACT_COUNTS = (
    "selections.count",
    "selections.bytes",
    "selections.audit_calls",
    "riskstats.evals",
    "riskstats.values_sorted",
    "geom2d.hull_points",
    "geom2d.hull_vertices",
    "markets.support_calls",
    "bounds.outer_dirs",
    "bounds.outer_cuts",
    "cli.bytes_written",
)

# Which end-to-end metric each layer metric should move, on which workload.
LAYER_MAP = {
    "scenarios.read_csv_s": "wall_s on support-grid",
    "scenarios.generate_s": "setup_s on support-grid, many-small; wall_s elsewhere",
    "selections.build_s": "wall_s, peak_rss_mb on cone-det-large; wall_s on many-small",
    "riskstats.eval_s": "wall_s on cone-det-large; bundle_p90_ms on many-small",
    "geom2d.hull_s": "wall_s on many-small and cone-det-large",
    "markets.support_s": "wall_s on support-grid and audit",
    "bounds.outer_s": "wall_s on support-grid",
    "bounds.marginal_s": "wall_s on support-grid",
    "bounds.check_s": "wall_s on support-grid",
    "bounds.json_s": "bundle_p50_ms on many-small",
    "bounds.self_s": "wall_s on many-small",
    "selections.audit_s": "wall_s on audit",
    "cli.self_s": "wall_s on support-grid",
}

# Metrics that only the staged pipeline can measure.
STAGED_METRICS = (
    "selections.build_s", "selections.audit_s", "selections.count",
    "selections.bytes", "selections.audit_calls", "riskstats.eval_s",
    "riskstats.evals", "riskstats.values_sorted", "geom2d.hull_s",
    "geom2d.hull_points", "geom2d.hull_vertices", "geom2d.hull_keep_ratio",
    "bounds.self_s", "bounds.outer_s", "bounds.outer_dirs", "bounds.outer_cuts",
    "bounds.marginal_s", "markets.support_s",
)

# Public names each group of metrics needs.  When a later version of the
# program drops one, those metrics are reported as missing instead of failing
# the run, and traced bundles come from compute_bundle itself.
NEEDS = (
    (
        (
            (bounds, "gather_selections"), (selections, "audit_selection"),
            (bounds, "risk_of_selection"), (bounds, "inner_recession"),
            (geom2d, "region_from_points_plus_cone"), (bounds, "outer_region"),
            (bounds, "marginal_region"), (bounds, "RiskBundle"),
        ),
        STAGED_METRICS,
    ),
    (
        ((markets.SetPortfolio, "support_values"),),
        ("markets.support_s", "markets.support_calls", "bounds.outer_dirs"),
    ),
    (((cli, "read_csv"),), ("scenarios.read_csv_s",)),
    (((cli, "generate"),), ("scenarios.generate_s",)),
)

AUDIT_TOL = 1e-7  # the limit compute_bundle applies to audit_selection


class NullTracer:
    """Stand-in used by untraced units: records nothing."""

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name, k=1):
        pass


NULL = NullTracer()


class Tracer:
    """In-memory spans (id, name, start, end, parent) and counts of one unit."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self.in_outer = False  # support values get spans only inside outer_region

    @contextlib.contextmanager
    def span(self, name):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent)

    def count(self, name, k=1):
        self.counts[name] += k

    def self_times(self):
        covered = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(float)
        for sid, name, start, end, _ in self.spans:
            out[name] += end - start - covered[sid]
        return out

    @contextlib.contextmanager
    def instrument(self, staged):
        """Wrap support values and the CLI's scenario readers in spans, and
        send the CLI's compute_bundle through ``staged`` (when available)."""
        patches = []

        def patch(owner, name, replacement):
            patches.append((owner, name, getattr(owner, name)))
            setattr(owner, name, replacement)

        if hasattr(markets.SetPortfolio, "support_values"):
            support = markets.SetPortfolio.support_values

            def support_values(portfolio, u):
                self.count("markets.support_calls")
                if not self.in_outer:
                    return support(portfolio, u)
                with self.span("markets.support"):
                    return support(portfolio, u)

            patch(markets.SetPortfolio, "support_values", support_values)
        for layer, name in (("scenarios.read_csv", "read_csv"),
                            ("scenarios.generate", "generate")):
            if hasattr(cli, name):
                patch(cli, name, self._spanned(layer, getattr(cli, name)))
        if staged is not None and hasattr(cli, "compute_bundle"):
            patch(cli, "compute_bundle", staged)
        try:
            yield
        finally:
            for owner, name, original in reversed(patches):
                setattr(owner, name, original)

    def _spanned(self, layer, fn):
        def wrapper(*args, **kwargs):
            with self.span(layer):
                return fn(*args, **kwargs)
        return wrapper

    def layer_metrics(self, wall):
        """Per-layer self times and counts of the unit, plus the share of the
        traced wall time that the layers account for."""
        own = self.self_times()
        out = {metric: own.get(name, 0.0) for name, metric in LAYER_SPANS.items()}
        out.update({name: self.counts[name] for name in EXACT_COUNTS})
        points = self.counts["geom2d.hull_points"]
        out["geom2d.hull_keep_ratio"] = (
            self.counts["geom2d.hull_vertices"] / points if points else 0.0
        )
        attributed = sum(out[m] for m in LAYER_SPANS.values())
        out["trace.wall_s"] = wall
        out["trace.attributed_share"] = attributed / wall
        return out

    def write_jsonl(self, fh, unit):
        for sid, name, start, end, parent in self.spans:
            fh.write(json.dumps({"unit": unit, "id": sid, "name": name,
                                 "start": start, "end": end, "parent": parent}))
            fh.write("\n")


def missing(through_cli):
    """Public names the traced run needs but the program lacks, and the
    metrics that cannot be measured without them."""
    gone, metrics = [], set()
    for names, fed in NEEDS:
        if through_cli and fed is STAGED_METRICS:
            names += ((cli, "compute_bundle"),)
        lost = [f"{owner.__name__}.{name}" for owner, name in names
                if not hasattr(owner, name)]
        if lost:
            gone += lost
            metrics.update(fed)
    return gone, metrics


def _ordered_map(fn, items):
    # Same threading rule as the program: SVRISK_THREADS workers, input order.
    raw = os.environ.get("SVRISK_THREADS", "").strip()
    workers = int(raw) if raw else 1
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


class Staged:
    """``compute_bundle`` repeated call by call from public functions, with a
    span around each layer.  Its bundle must equal compute_bundle's bytes."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.calls = 0

    def __call__(self, portfolio, risk_spec, strategies=None, n_dirs=181, audit=False):
        t = self.tracer
        self.calls += 1
        with t.span("bounds.compute_bundle"):
            with t.span("selections.build"):
                sels = bounds.gather_selections(portfolio, risk_spec, strategies)
            n = portfolio.ensemble.n
            t.count("selections.count", len(sels))
            t.count("selections.bytes", sum(s.gains.nbytes for s in sels))
            if audit:
                for sel in sels:
                    with t.span("selections.audit"):
                        gap = selections.audit_selection(portfolio, sel)
                    if gap > AUDIT_TOL:
                        raise ValidationError(
                            f"selection {sel.label!r} leaves the portfolio "
                            f"(support violation {gap:.3e})"
                        )
                t.count("selections.audit_calls", len(sels))
            weights = portfolio.ensemble.weights
            with t.span("riskstats.eval"):
                points = _ordered_map(
                    lambda sel: bounds.risk_of_selection(sel, weights, risk_spec), sels
                )
            t.count("riskstats.evals", len(points))
            t.count("riskstats.values_sorted", 2 * n * len(points))
            recession = bounds.inner_recession(portfolio, risk_spec)
            with t.span("geom2d.hull"):
                inner = geom2d.region_from_points_plus_cone(
                    np.vstack(points), recession
                )
            t.count("geom2d.hull_points", len(points))
            t.count("geom2d.hull_vertices", len(inner.vertices))
            before = t.counts["markets.support_calls"]
            t.in_outer = True
            try:
                with t.span("bounds.outer"):
                    outer = bounds.outer_region(portfolio, risk_spec, n_dirs)
            finally:
                t.in_outer = False
            t.count("bounds.outer_dirs", t.counts["markets.support_calls"] - before)
            t.count("bounds.outer_cuts", len(outer.halfspaces().offsets))
            with t.span("bounds.marginal"):
                marginal = bounds.marginal_region(portfolio, risk_spec)
            meta = {
                "portfolio": portfolio.kind,
                "risk": {"kind": risk_spec.kind, "level": risk_spec.level},
                "scenarios": n,
                "selections": len(sels),
                "directions": int(n_dirs),
            }
            return bounds.RiskBundle(inner=inner, outer=outer, marginal=marginal, meta=meta)
