"""Inner and outer approximations of set-valued portfolio risk.

The inner region, the convex hull of the selection risk points plus a
recession cone that provably stays inside the true region, comes from
``selections.selection_region``; the outer region intersects the dual
half-space bounds that the portfolio kind's record in ``markets`` makes
(``PortfolioKind.outer_cuts``).  So nothing here knows a kind, a block size
or an audit rule.  Between them sits the coordinatewise marginal bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geom2d import (
    ConvexCone2D,
    HalfSpaceSet,
    RiskRegion2D,
    _scale_of,
    _unit,
    canonical_json,
    region_from_halfspaces,
    region_from_points_plus_cone,
)
from .markets import tail_slope_cone
from .riskstats import es_var_lognormal_mean_one, risk_rows, var_empirical
from .selections import gather_selections, selection_region  # noqa: F401 (gather_selections)

# Largest slack sandwich_violation may show before compute_bundle refuses
# to return a bundle, relative to the largest vertex coordinate of the three
# regions (at least 1): the hull and the cuts carry rounding and tolerances
# that grow with the data.
_SANDWICH_TOL = 1e-9


def risk_point(gains, weights, risk_spec):
    """Coordinatewise scalar risk of an (n, 2) payoff matrix under
    probability weights (n,)."""
    return risk_rows(risk_spec, np.asarray(gains, dtype=float).T, weights)


def risk_of_selection(selection, weights, risk_spec):
    return risk_point(selection.gains, weights, risk_spec)


def cone_risk_bounds(rate_sample, alpha):
    """Inner and outer cones for the risk of a zero position under a random
    frictionless exchange line.

    The inner cone is generated by the risk points of the two boundary
    trades (tail-expectation slopes); the outer cone replaces them with the
    corresponding quantile slopes.  Requires alpha <= 1/2.
    """
    if not 0.0 < alpha <= 0.5:
        raise ValidationError("cone bounds need a level in (0, 1/2]")
    inner = tail_slope_cone(rate_sample, alpha)
    var_low = var_empirical(rate_sample, alpha)
    var_high = var_empirical(rate_sample, 1.0 - alpha)
    outer = ConvexCone2D(_unit((1.0, var_low)), _unit((-1.0, -var_high)))
    return inner, outer


def cone_risk_bounds_lognormal(sigma, alpha, mean=1.0):
    """Closed-form version of ``cone_risk_bounds`` for lognormal rates."""
    stats = es_var_lognormal_mean_one(sigma, alpha)
    mean = float(mean)
    if not (math.isfinite(mean) and mean > 0):
        raise ValidationError("mean must be positive")
    inner = ConvexCone2D(
        _unit((1.0, mean * stats.es_rate)), _unit((stats.es_inv_rate / mean, 1.0))
    )
    outer = ConvexCone2D(
        _unit((1.0, mean * stats.var_low)), _unit((-1.0, -mean * stats.var_high))
    )
    return inner, outer


def inner_recession(portfolio, risk_spec):
    """Recession cone that the scenario structure lets us add for free."""
    return portfolio.definition.recession(portfolio, risk_spec)


def inner_region(portfolio, risk_spec, strategies=None, audit=False):
    """Convex hull of selection risk points plus the provable recession."""
    portfolio.definition.risk_rule(risk_spec)
    return selection_region(portfolio, risk_spec, strategies, audit)[0]


def _outer(cuts):
    """The outer region: the intersection of (directions, offsets) cuts."""
    return region_from_halfspaces(HalfSpaceSet(*cuts))


def outer_region_det_cone(portfolio, risk_spec):
    """Exact pair of dual cuts along the exchange-cone dual generators: the
    outer region of a portfolio with a deterministic exchange cone."""
    if portfolio.cone is None:
        raise ValidationError("exchange-cone cuts need a portfolio with an exchange cone")
    return outer_region(portfolio, risk_spec)


def outer_region(portfolio, risk_spec, n_dirs=181):
    portfolio.definition.risk_rule(risk_spec)
    return _outer(portfolio.definition.outer_cuts(portfolio, risk_spec, n_dirs))


def _marginal(portfolio, risk_spec, recession):
    point = risk_point(portfolio.ensemble.gains, portfolio.ensemble.weights, risk_spec)
    return region_from_points_plus_cone(point[None, :], recession)


def marginal_region(portfolio, risk_spec):
    """Risk point of the uncompensated position plus the free recession."""
    portfolio.definition.risk_rule(risk_spec)
    return _marginal(portfolio, risk_spec, inner_recession(portfolio, risk_spec))


@dataclass(frozen=True)
class RiskBundle:
    """Marginal / inner / outer sandwich for one portfolio and risk spec."""

    inner: RiskRegion2D
    outer: RiskRegion2D
    marginal: RiskRegion2D
    meta: dict

    def to_dict(self):
        return {
            "meta": self.meta,
            "marginal": self.marginal.to_dict(),
            "inner": self.inner.to_dict(),
            "outer": self.outer.to_dict(),
        }

    def to_json(self):
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, data):
        try:
            regions = {name: data[name] for name in ("inner", "outer", "marginal")}
            meta = dict(data.get("meta", {}))
        except KeyError as exc:
            raise ValidationError(f"malformed bundle payload: missing {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"malformed bundle payload: {exc}") from None
        return cls(
            meta=meta,
            **{name: RiskRegion2D.from_dict(r) for name, r in regions.items()},
        )


# The run-config blocks whose values each stage of compute_bundle reads,
# the likeliest cause of an overflow first.
_STAGE_INPUTS = {
    "selection stage": '"strategies", "portfolio" and "scenarios"',
    "outer-cut stage": '"portfolio" and "scenarios"',
    "marginal stage": '"scenarios"',
    "nesting check": '"scenarios", "portfolio" and "strategies"',
}


def compute_bundle(portfolio, risk_spec, strategies=None, n_dirs=181, audit=False):
    """Assemble the full sandwich for a portfolio, under the caller's numpy
    error state (the command line raises on overflow, and a raised
    floating-point error is raised again naming the stage and the config
    blocks it reads); where overflow is ignored, a non-finite selection or
    risk point ends in ValidationError."""
    definition = portfolio.definition
    definition.risk_rule(risk_spec)
    stage = "selection stage"
    try:
        inner, count = selection_region(portfolio, risk_spec, strategies, audit)
        stage = "outer-cut stage"
        outer = _outer(definition.outer_cuts(portfolio, risk_spec, n_dirs))
        stage = "marginal stage"
        marginal = _marginal(portfolio, risk_spec, inner.recession)
        meta = {
            "portfolio": portfolio.kind,
            "risk": {"kind": risk_spec.kind, "level": risk_spec.level},
            "scenarios": portfolio.ensemble.n,
            "selections": count,
            "directions": int(n_dirs),
        }
        bundle = RiskBundle(inner=inner, outer=outer, marginal=marginal, meta=meta)
        stage = "nesting check"
        violation = sandwich_violation(bundle)
    except FloatingPointError as exc:
        raise FloatingPointError(
            f"{exc} in the {stage}, which reads config {_STAGE_INPUTS[stage]}"
        ) from exc
    scale = max(_scale_of(r.vertices) for r in (inner, outer, marginal))
    if not violation <= _SANDWICH_TOL * scale:
        raise ValidationError(f"regions do not nest (sandwich violation {violation:.3e})")
    return bundle


def scalarize_bundle(bundle, direction):
    u = np.asarray(direction, dtype=float)
    return {
        "direction": [float(u[0]), float(u[1])],
        "marginal": bundle.marginal.scalarize(u),
        "inner": bundle.inner.scalarize(u),
        "outer": bundle.outer.scalarize(u),
    }


def sandwich_violation(bundle):
    """Worst slack of marginal-in-inner and inner-in-outer (<= 0 is nested).

    Compares each region against every supporting half-space of the next
    one out, so the check is exact for the polyhedral representations.
    """
    return max(
        float(np.max(hs.offsets - small.scalarize(hs.directions)))
        for small, hs in ((bundle.marginal, bundle.inner.halfspaces()),
                          (bundle.inner, bundle.outer.halfspaces()))
    )
