"""The benchmark's four workloads and the gate every bundle must pass.

A workload makes its inputs from the seed in ``setup`` and names the cases
that one timed unit runs; ``run_unit`` runs them in order.  Each case yields
one bundle.  A case that raises, exits non-zero or fails the gate counts as a
failed bundle; nothing is dropped.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from svrisk import bounds, cli, markets, scenarios
from svrisk.riskstats import ES, NEG_ESSINF, NEG_EXPECTATION, RiskSpec

GATE_TOL = 1e-9  # largest sandwich_violation a bundle may show
REF_TOL = 1e-9  # relative match of the marginal point to the reference

CONE_DET = "cone-det"
RANDOM = "cone-halfplane-random"
LIQUIDITY = "liquidity-capped"
BALL = "ball"
SEGMENT = "segment-hull"
KINDS = (CONE_DET, RANDOM, LIQUIDITY, BALL, SEGMENT)

# Toy runs keep the cone-det selection family small so that they take seconds.
TOY_STRATEGIES = [
    {"strategy": "identity"},
    {"strategy": "quantile-shift", "side": "both", "t_grid": {"count": 4}},
    {"strategy": "corner-selections"},
]


def reference_risk(values, kind, level):
    """Scalar risk of equally weighted values, computed without svrisk."""
    v = np.sort(np.asarray(values, dtype=float))
    if kind == NEG_EXPECTATION:
        return -float(v.mean())
    if kind == NEG_ESSINF:
        return -float(v[0])
    k = level * v.size
    m = int(k)
    tail = v[:m].sum() + ((k - m) * v[m] if m < v.size else 0.0)
    return -float(tail / k)


def reference_point(gains, kind, level):
    """Expected marginal-region vertex: the coordinatewise risk point."""
    return np.array([reference_risk(gains[:, j], kind, level) for j in (0, 1)])


def gate(text, ref, tracer):
    """Failure message for a bundle's canonical JSON text, or None.

    The bundle as loaded by ``RiskBundle.from_dict`` must be nested
    (``sandwich_violation <= GATE_TOL``), order its support values at (1, 1)
    the same way, and put its marginal vertex at the risk point ``ref``
    computed independently of svrisk.
    """
    with tracer.span("bounds.json"):
        bundle = bounds.RiskBundle.from_dict(json.loads(text))
    with tracer.span("bounds.check"):
        gap = bounds.sandwich_violation(bundle)
        support = bounds.scalarize_bundle(bundle, (1.0, 1.0))
    if not gap <= GATE_TOL:
        return f"sandwich violation {gap:.3e}"
    m, i, o = support["marginal"], support["inner"], support["outer"]
    if not (m >= i - GATE_TOL and i >= o - GATE_TOL):
        return f"support values at (1, 1) out of order: {m}, {i}, {o}"
    point = np.asarray(bundle.marginal.vertices, dtype=float)
    if point.shape != (1, 2) or not np.allclose(point[0], ref, rtol=REF_TOL, atol=REF_TOL):
        return f"marginal point {point.tolist()} differs from reference {ref.tolist()}"
    return None


def _gen_block(rng, n):
    """Generator config: correlated normal gains plus a lognormal rate."""
    return {
        "n": int(n),
        "seed": int(rng.integers(2**31)),
        "mean": [0.1, 0.0],
        "stdev": [1.0, 1.3],
        "correlation": round(float(rng.uniform(-0.5, 0.5)), 3),
        "rate": {"mean": 1.5, "vol": 0.3},
    }


def _generate(block):
    return scenarios.generate(scenarios.GenSpec.from_dict(block))


# Portfolio blocks for `svrisk risk` configs, one per kind.
PORTFOLIO_BLOCKS = {
    CONE_DET: {"kind": CONE_DET, "pi12": 1.5, "pi21": 1.5},
    RANDOM: {"kind": RANDOM},
    LIQUIDITY: {"kind": LIQUIDITY, "cap": [1.0, 1.0]},
    BALL: {"kind": BALL, "radius": 1.0},
    SEGMENT: {"kind": SEGMENT, "extra": "mirror"},
}


@dataclass
class CliCase:
    """One `svrisk risk` call; ``gains`` loads the scenarios it will see."""

    argv: list
    out: str
    gains: object
    risk: dict
    ref: np.ndarray | None = None

    def reference(self):
        self.ref = reference_point(self.gains(), self.risk["kind"], self.risk.get("level"))

    def run(self, tracer, bundle_fn):
        err = io.StringIO()
        with tracer.span("cli"), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.entrypoint(self.argv)
        if code != 0:
            return None, f"svrisk risk exited {code}: {err.getvalue().strip()}"
        tracer.count("cli.bytes_written", sum(
            os.path.getsize(os.path.join(self.out, f)) for f in os.listdir(self.out)))
        with tracer.span("bounds.json"):
            with open(os.path.join(self.out, "bundle.json")) as fh:
                text = fh.read().rstrip("\n")
        return text, gate(text, self.ref, tracer)


@dataclass
class LibraryCase:
    """One in-process bundle."""

    portfolio: markets.SetPortfolio
    spec: RiskSpec
    strategies: list | None
    ref: np.ndarray | None = None

    def reference(self):
        self.ref = reference_point(self.portfolio.ensemble.gains, self.spec.kind, self.spec.level)

    def run(self, tracer, bundle_fn):
        bundle = bundle_fn(self.portfolio, self.spec, strategies=self.strategies)
        with tracer.span("bounds.json"):
            text = bundle.to_json()
        return text, gate(text, self.ref, tracer)


def _cli_case(work, name, config, gains, extra_argv=()):
    cfg = os.path.join(work, f"{name}.json")
    out = os.path.join(work, name)
    with open(cfg, "w") as fh:
        json.dump(config, fh)
    argv = ["risk", "--config", cfg, "--out", out, *extra_argv]
    return CliCase(argv, out, gains, config["risk"])


def _risk_config(portfolio, scenario_block, risk, **extra):
    return {"scenarios": scenario_block, "portfolio": portfolio, "risk": risk, **extra}


ES_05 = {"kind": ES, "level": 0.05}


def setup_cone_det_large(rng, toy, work):
    block = _gen_block(rng, 400 if toy else 10_000)
    extra = {"strategies": TOY_STRATEGIES} if toy else {}
    config = _risk_config(PORTFOLIO_BLOCKS[CONE_DET], {"generate": block}, ES_05, **extra)
    return [_cli_case(work, CONE_DET, config, lambda: _generate(block).gains)]


def setup_support_grid(rng, toy, work):
    ensemble = _generate(_gen_block(rng, 1_000 if toy else 50_000))
    path = os.path.join(work, "scenarios.csv")
    scenarios.write_csv(ensemble, path)

    def gains():
        return np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1))

    cases = []
    for kind in (BALL, LIQUIDITY, SEGMENT):
        config = _risk_config(PORTFOLIO_BLOCKS[kind], {"csv": path}, ES_05, directions=181)
        cases.append(_cli_case(work, kind, config, gains, ["--window=-5,-5,5,5"]))
    return cases


def setup_audit(rng, toy, work):
    cases = []
    for kind in KINDS:
        block = _gen_block(rng, 200 if toy else 2_000)
        extra = {"strategies": TOY_STRATEGIES} if toy and kind == CONE_DET else {}
        config = _risk_config(PORTFOLIO_BLOCKS[kind], {"generate": block}, ES_05,
                              audit=True, **extra)
        cases.append(_cli_case(work, kind, config, lambda b=block: _generate(b).gains))
    return cases


def _small_portfolio(rng, kind, ensemble):
    if kind == CONE_DET:
        cone = markets.ExchangeCone2D(*rng.uniform(1.1, 3.0, size=2))
        return markets.SetPortfolio.cone_det(ensemble, cone)
    if kind == RANDOM:
        return markets.SetPortfolio.random_halfplane(ensemble)
    if kind == LIQUIDITY:
        return markets.SetPortfolio.liquidity_capped(ensemble, rng.uniform(0.5, 1.5, size=2))
    if kind == BALL:
        return markets.SetPortfolio.ball(ensemble, rng.uniform(0.2, 1.5))
    return markets.SetPortfolio.segment_hull(ensemble, [ensemble.gains[:, ::-1]])


def _small_spec(rng, kind):
    # Coherent functionals only.  The random kind needs ES at a level <= 0.2
    # for a dual certificate to exist at these sample sizes.
    if kind == RANDOM:
        return RiskSpec(ES, float(rng.uniform(0.02, 0.2)))
    pick = rng.integers(5)
    if pick == 0:
        return RiskSpec(NEG_EXPECTATION)
    if pick == 1:
        return RiskSpec(NEG_ESSINF)
    return RiskSpec(ES, float(rng.uniform(0.02, 0.45)))


def setup_many_small(rng, toy, work):
    per_kind = 2 if toy else 20
    kinds = list(KINDS) * per_kind
    rng.shuffle(kinds)
    cases = []
    for kind in kinds:
        spec = scenarios.GenSpec(
            n=int(rng.integers(40, 101 if toy else 401)),
            seed=int(rng.integers(2**31)),
            correlation=float(rng.uniform(-0.6, 0.6)),
            rate_mean=float(rng.uniform(0.8, 2.0)),
            rate_vol=float(rng.uniform(0.1, 0.3)),
        )
        portfolio = _small_portfolio(rng, kind, scenarios.generate(spec))
        strategies = TOY_STRATEGIES if toy and kind == CONE_DET else None
        cases.append(LibraryCase(portfolio, _small_spec(rng, kind), strategies))
    return cases


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object  # (rng, toy, work dir) -> cases of one unit
    threads: str = "1"  # SVRISK_THREADS while the workload runs
    through_cli: bool = True


# Why each workload exists is recorded in BENCHMARK.json and bench/NOTES.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cone-det-large", setup_cone_det_large, threads="2"),
        Workload("support-grid", setup_support_grid),
        Workload("many-small", setup_many_small, through_cli=False),
        Workload("audit", setup_audit),
    )
}


@dataclass
class UnitResult:
    wall: float = 0.0
    texts: list = field(default_factory=list)  # bundle JSON; None where the program failed
    latencies: list = field(default_factory=list)  # seconds per case
    errors: list = field(default_factory=list)  # (case index, message)


def run_unit(cases, tracer, bundle_fn):
    """Run every case once, in order; return timings, bundles and failures."""
    result = UnitResult()
    start = time.perf_counter()
    for index, case in enumerate(cases):
        t0 = time.perf_counter()
        try:
            text, error = case.run(tracer, bundle_fn)
        except Exception as exc:  # a crash of the program is a failed bundle
            text, error = None, f"{type(exc).__name__}: {exc}"
        result.latencies.append(time.perf_counter() - t0)
        result.texts.append(text)
        if error is not None:
            result.errors.append((index, error))
    result.wall = time.perf_counter() - start
    return result
