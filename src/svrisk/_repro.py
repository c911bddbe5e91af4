"""Pinned example configurations with expected values for regression runs.

Each runner returns (rows, artifacts): rows are computed-vs-expected
records, artifacts map file stems to writable objects.  The CLI prints
the rows as a diff table; the test suite asserts them directly.
"""

from __future__ import annotations

import numpy as np

from .bounds import (
    compute_bundle,
    cone_risk_bounds,
    cone_risk_bounds_lognormal,
    outer_region,
    risk_point,
    risk_of_selection,
    sandwich_violation,
)
from .geom2d import _unit
from .markets import ExchangeCone2D, ScenarioEnsemble, SetPortfolio
from .riskstats import ES, RiskSpec, WeightedSample, es_normal
from .scenarios import GenSpec, generate
from .errors import ValidationError
from .selections import (
    axis_transfer_selections,
    build_family,
    frictionless_projection,
    liquidity_capped_projection,
    selection_auditor,
)

REPRO_IDS = ("intro", "nonmargin", "normcone", "frictionless", "liquidity")

_ES05 = RiskSpec(ES, 0.05)


def _row(name, computed, expected, tol):
    computed = float(computed)
    return {
        "name": name,
        "computed": computed,
        "expected": float(expected),
        "tol": float(tol),
        "ok": bool(abs(computed - float(expected)) <= tol),
    }


def run_intro():
    """Two business lines in different currencies, frictionless random rate.

    Reserves are quoted in units of the first currency at the initial
    rate 1.5, i.e. through the direction (1, 1/1.5).
    """
    gen = GenSpec(
        n=1_000_000, seed=11, mean=(0.5, 0.5), stdev=(1.0, 1.0),
        correlation=0.0, rate_mean=1.5, rate_vol=0.4,
    )
    E = generate(gen)
    w = E.weights
    quote = np.array([1.0, 1.0 / 1.5])

    closed = es_normal(0.5, 1.0, 0.05) * (1.0 + 1.0 / 1.5)
    rows = [_row("no-compensation closed form", closed, 2.6045, 5e-3)]

    to_first, to_second = axis_transfer_selections(E)
    rows.append(
        _row("transfer-to-1", risk_of_selection(to_first, w, _ES05) @ quote, 1.801, 2e-2)
    )
    rows.append(
        _row("transfer-to-2", risk_of_selection(to_second, w, _ES05) @ quote, 1.784, 2e-2)
    )
    proj = frictionless_projection(E)
    rows.append(
        _row("origin-projection", risk_of_selection(proj, w, _ES05) @ quote, 1.661, 2e-2)
    )
    liq = liquidity_capped_projection(E, (1.0, 1.0))
    rows.append(
        _row("liquidity-capped", risk_of_selection(liq, w, _ES05) @ quote, 1.735, 2e-2)
    )
    return rows, {}


def _nonmargin_setup():
    E = ScenarioEnsemble([[-2.0, 4.0], [4.0, -2.0]])
    cone = ExchangeCone2D(5.0, 5.0)
    portfolio = SetPortfolio.cone_det(E, cone)
    spec = RiskSpec(ES, 0.75)
    eta1 = np.array([[1.2, -6.0], [0.0, 0.0]])
    eta2 = np.array([[0.0, 0.0], [-6.0, 1.2]])
    strategies = [
        {"strategy": "quantile-shift", "side": "both"},
        {"strategy": "quantile-shift", "side": "ray1"},
        {"strategy": "quantile-shift", "side": "ray2"},
        {"strategy": "corner-selections"},
        {"strategy": "explicit", "gains": (E.gains + eta1).tolist(), "label": "shift-1"},
        {"strategy": "explicit", "gains": (E.gains + eta2).tolist(), "label": "shift-2"},
    ]
    return E, portfolio, spec, eta1, eta2, strategies


def run_nonmargin():
    """Two-scenario gains with a deterministic 5/5 exchange cone."""
    E, portfolio, spec, eta1, eta2, strategies = _nonmargin_setup()
    w = E.weights
    tol = 1e-9

    rows = []
    base = risk_point(E.gains, w, spec)
    shifted1 = risk_point(E.gains + eta1, w, spec)
    shifted2 = risk_point(E.gains + eta2, w, spec)
    for j, (got, want) in enumerate(
        [(base, (0.0, 0.0)), (shifted1, (-0.8, 2.0)), (shifted2, (2.0, -0.8))]
    ):
        label = ("risk(X)", "risk(X+shift1)", "risk(X+shift2)")[j]
        rows.append(_row(f"{label}[0]", got[0], want[0], tol))
        rows.append(_row(f"{label}[1]", got[1], want[1], tol))

    outer = outer_region(portfolio, spec)
    vertex = outer.vertices[0]
    rows.append(_row("outer-vertex[0]", vertex[0], -1.0 / 3.0, tol))
    rows.append(_row("outer-vertex[1]", vertex[1], -1.0 / 3.0, tol))

    bundle = compute_bundle(portfolio, spec, strategies=strategies)
    rows.append(_row("sandwich-slack", max(sandwich_violation(bundle), 0.0), 0.0, tol))
    return rows, {"bundle": bundle}


def run_normcone():
    """Normal sample with a deterministic 1.5/1.5 exchange cone."""
    gen = GenSpec(n=1000, seed=23)
    E = generate(gen)
    cone = ExchangeCone2D(1.5, 1.5)
    portfolio = SetPortfolio.cone_det(E, cone)
    bundle = compute_bundle(portfolio, _ES05)

    rows = [
        _row(
            "sandwich-slack", max(sandwich_violation(bundle), 0.0), 0.0, 1e-9
        )
    ]
    # the corner constructions pin the inner hull to the outer cuts
    for name, direction in (("corner-dual-1", cone.a1), ("corner-dual-2", cone.a2)):
        u = _unit(direction)
        gap = bundle.inner.scalarize(u) - bundle.outer.scalarize(u)
        rows.append(_row(f"{name}-gap", gap, 0.0, 1e-9))
    return rows, {"bundle": bundle}


def run_frictionless():
    """Random frictionless exchange line with lognormal rate."""
    sigma, alpha = 0.4, 0.05
    inner_cone, outer_cone = cone_risk_bounds_lognormal(sigma, alpha)
    pins = {
        "closed-inner-low-slope": (-0.4086929, inner_cone.lo, 1e-4),
        "closed-inner-high-slope": (-2.085047, inner_cone.hi, 1e-4),
        "closed-outer-low-slope": (-0.4780971, outer_cone.lo, 1e-4),
        "closed-outer-high-slope": (-1.782366, outer_cone.hi, 1e-4),
    }
    rows = []
    for name, (want, ray, tol) in pins.items():
        rows.append(_row(name, ray[1] / ray[0], want, tol))

    rate_gen = GenSpec(n=1_000_000, seed=31, rate_mean=1.0, rate_vol=sigma)
    rates = generate(rate_gen)
    emp_inner, emp_outer = cone_risk_bounds(
        WeightedSample(rates.require_rates(), rates.weights), alpha
    )
    for name, (want, _, _), cone_ray in zip(
        ("emp-inner-low-slope", "emp-inner-high-slope",
         "emp-outer-low-slope", "emp-outer-high-slope"),
        pins.values(),
        (emp_inner.lo, emp_inner.hi, emp_outer.lo, emp_outer.hi),
    ):
        rows.append(_row(name, cone_ray[1] / cone_ray[0], want, 5e-3))

    bundle_gen = GenSpec(n=1000, seed=33, rate_mean=1.0, rate_vol=sigma)
    E = generate(bundle_gen)
    portfolio = SetPortfolio.random_halfplane(E)
    bundle = compute_bundle(portfolio, _ES05)
    rows.append(_row("sandwich-slack", max(sandwich_violation(bundle), 0.0), 0.0, 1e-9))
    return rows, {"bundle": bundle}


def run_liquidity():
    """Random exchange line with a one-unit conversion cap per currency."""
    gen = GenSpec(n=1000, seed=57, rate_mean=1.0, rate_vol=0.4)
    E = generate(gen)
    portfolio = SetPortfolio.liquidity_capped(E, cap=(1.0, 1.0))
    bundle = compute_bundle(portfolio, _ES05)

    rows = [_row("sandwich-slack", max(sandwich_violation(bundle), 0.0), 0.0, 1e-9)]
    sels = [
        sel
        for cfg in ({"strategy": "identity"}, {"strategy": "liquidity-family"})
        for sel in build_family(portfolio, cfg, _ES05)
    ]
    worst = np.max(selection_auditor(portfolio)(np.stack([sel.gains for sel in sels])))
    rows.append(_row("selection-audit", max(worst, 0.0), 0.0, 1e-9))
    return rows, {"bundle": bundle}


_RUNNERS = {
    "intro": run_intro,
    "nonmargin": run_nonmargin,
    "normcone": run_normcone,
    "frictionless": run_frictionless,
    "liquidity": run_liquidity,
}


def run_repro(example_id):
    """Run one pinned example; returns (rows, artifacts)."""
    if example_id not in _RUNNERS:
        raise ValidationError(
            f"unknown example {example_id!r}; choose from {', '.join(REPRO_IDS)}"
        )
    return _RUNNERS[example_id]()
