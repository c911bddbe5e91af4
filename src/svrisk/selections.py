"""Selection strategies: scenario-wise compensated positions inside a portfolio.

Each strategy expands into families of selections.  A family is a count,
``label(i)`` and ``fill(out, lo, hi)``, which writes the gains of selections
lo..hi-1 straight into a block buffer, so a grid of selections costs a few
array operations per block instead of one object per selection; a selection
that a strategy makes on its own is a one-row family.  ``build_family``
turns families into ``SelectionMatrix`` lists.  The risk of a selection is
evaluated coordinatewise and its point enters the inner approximation hull.
Every emitted row must stay inside the scenario's attainable set, which the
audit verifies through support-function inequalities: ``selection_auditor``
computes the support rows of its directions once per portfolio and checks
whole blocks of selections against them, and ``audit_selection`` is its
one-selection call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ValidationError
from .geom2d import _unit
from .markets import _IDENTITY, _count, direction_grid, dual_cone
from .riskstats import NEG_ESSINF, RiskSpec, WeightedSample, es_empirical, risk_rows, var_empirical


@dataclass(frozen=True)
class SelectionMatrix:
    """Per-scenario selected positions plus a provenance label."""

    gains: np.ndarray
    label: str

    def __post_init__(self):
        g = np.asarray(self.gains, dtype=float)
        if g.ndim != 2 or g.shape[1] != 2 or g.shape[0] == 0:
            raise ValidationError("selection gains must be a non-empty (n, 2) array")
        if not np.all(np.isfinite(g)):
            raise ValidationError("selection gains contain non-finite entries")
        object.__setattr__(self, "gains", g)
        g.setflags(write=False)


class Family(NamedTuple):
    """``count`` selections of one strategy, made on demand.

    ``label(i)`` names selection i, and ``fill(out, lo, hi)`` writes the gains
    of selections lo..hi-1 into ``out[:hi - lo]`` of a (b, n, 2) buffer.
    """

    count: int
    label: Callable[[int], str]
    fill: Callable[[np.ndarray, int, int], None]


def _row(selection):
    """One-row family of a selection made on its own."""

    def fill(out, lo, hi):
        out[0] = selection.gains

    return Family(1, lambda i: selection.label, fill)


def _rows(*selections):
    return [_row(sel) for sel in selections]


def _matrices(family, n):
    """The family's selections as selection matrices, filled at once."""
    out = np.empty((family.count, n, 2))
    family.fill(out, 0, family.count)
    return [SelectionMatrix(gains, family.label(i)) for i, gains in enumerate(out)]


def _grid(values, name):
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or not np.isfinite(grid).all():
        raise ValidationError(f"{name} must be a list of finite numbers")
    return grid


def default_t_grid(scale, count=33, span=4.0):
    """Geometric sweep of scale factors, always including 0 and 1."""
    scale = max(float(scale), 1e-12)
    count = _count(count, "scale grid count", 2)
    if span <= 0:
        raise ValidationError("grid needs a positive span")
    if not math.isfinite(span * scale):
        raise ValidationError("grid scale and span must be finite, and so must their product")
    geo = np.geomspace(0.05 * scale, span * scale, count)
    return np.unique(np.concatenate([[0.0, 1.0], geo]))


def frictionless_direction(ensemble):
    """Scenario-wise step from the position toward the nearest point of the
    frictionless exchange boundary through the origin."""
    pi = ensemble.require_rates()
    x = ensemble.gains
    denom = 1.0 + pi**2
    r1 = (x[:, 0] - pi * x[:, 1]) / denom
    r2 = (pi**2 * x[:, 1] - pi * x[:, 0]) / denom
    return -np.column_stack([r1, r2])


def frictionless_projection(ensemble):
    """Projection of the origin onto the scenario exchange boundary."""
    xi = ensemble.gains + frictionless_direction(ensemble)
    return SelectionMatrix(xi, "frictionless-projection")


def axis_transfer_selections(ensemble):
    """Exchange everything into a single asset at the scenario rate."""
    pi = ensemble.require_rates()
    x = ensemble.gains
    to_first = np.column_stack([x[:, 0] + x[:, 1] / pi, np.zeros(ensemble.n)])
    to_second = np.column_stack([np.zeros(ensemble.n), pi * x[:, 0] + x[:, 1]])
    return (
        SelectionMatrix(to_first, "transfer-to-1"),
        SelectionMatrix(to_second, "transfer-to-2"),
    )


def quantile_shift_projection(ensemble, cone, alpha, side="both"):
    """Compensation direction from quantile-centred ray projection.

    Recentre the gains by their coordinatewise lower alpha-quantiles, then
    map each recentred point Y to a direction eta in the exchange cone:
    zero when -Y lies in the dual cone, otherwise the negated Euclidean
    projection of Y onto one of the two boundary rays of the solvency cone
    (the nearer one for side="both"; ties pick ray 1).

    Returns (eta, ray) where ray is 0, 1 or 2 per scenario.
    """
    if side not in ("both", "ray1", "ray2"):
        raise ValidationError("side must be 'both', 'ray1' or 'ray2'")
    x = ensemble.gains
    w = ensemble.weights
    q = np.array(
        [-var_empirical(WeightedSample(x[:, j], w), alpha) for j in range(2)]
    )
    y = x - q

    r1 = _unit(-cone.b1)
    r2 = _unit(-cone.b2)
    t1 = np.maximum(y @ r1, 0.0)
    t2 = np.maximum(y @ r2, 0.0)
    p1 = t1[:, None] * r1
    p2 = t2[:, None] * r2
    d1 = np.sum((y - p1) ** 2, axis=1)
    d2 = np.sum((y - p2) ** 2, axis=1)

    if side == "ray1":
        pick1 = np.ones(ensemble.n, dtype=bool)
    elif side == "ray2":
        pick1 = np.zeros(ensemble.n, dtype=bool)
    else:
        pick1 = d1 <= d2
    eta = np.where(pick1[:, None], -p1, -p2)
    ray = np.where(pick1, 1, 2)

    origin_bound = dual_cone(cone).contains(-y)
    eta[origin_bound] = 0.0
    ray = np.where(origin_bound, 0, ray)
    return eta, ray


def _scaled(ensemble, eta, grid, ray=None, cone=None, label="shift"):
    """Family X + t * eta over the grid.  With a ray partition whose two
    groups both move, the groups are scaled independently over the full
    (t, s) product, (X + t * m1) + s * m2 with s running fastest."""
    eta = np.asarray(eta, dtype=float)
    if eta.shape != ensemble.gains.shape:
        raise ValidationError("eta must match the gains matrix")
    t_values = _grid(grid, "scale grid")
    if np.any(t_values < 0):
        raise ValidationError("scale grid must be non-negative")
    if cone is not None:
        bad = np.flatnonzero(~cone.contains(eta))
        if bad.size:
            raise ValidationError(f"eta leaves the exchange cone at row {bad[0]}")
    x = ensemble.gains
    k = len(t_values)
    if ray is not None:
        m1 = (np.asarray(ray) == 1)[:, None] * eta
        m2 = (np.asarray(ray) == 2)[:, None] * eta
        if np.any(m1 != 0.0) and np.any(m2 != 0.0):

            def fill_product(out, lo, hi):
                # One run of s values per t: the run's rows share X + t * m1.
                first = lo
                while first < hi:
                    t, s = divmod(first, k)
                    last = min(hi, first + k - s)
                    rows = out[first - lo : last - lo]
                    np.multiply(t_values[s : s + last - first, None, None], m2, out=rows)
                    rows += x + t_values[t] * m1
                    first = last

            return Family(
                k * k,
                lambda i: f"{label}(t={t_values[i // k]:.6g},s={t_values[i % k]:.6g})",
                fill_product,
            )

    def fill(out, lo, hi):
        rows = out[: hi - lo]
        np.multiply(t_values[lo:hi, None, None], eta, out=rows)
        rows += x

    return Family(k, lambda i: f"{label}(t={t_values[i]:.6g})", fill)


def liquidity_capped_projection(ensemble, cap=(1.0, 1.0)):
    """Best selection of the cap-restricted frictionless exchange set.

    Uses the full cap on the crowded side when the unrestricted projection
    would exceed it, otherwise the unrestricted projection itself.
    """
    corner1, corner2 = liquidity_corners(ensemble, cap)
    cap = np.asarray(cap, dtype=float)
    step = frictionless_direction(ensemble)
    xi = np.where(
        (step[:, 0] >= cap[0])[:, None],
        corner1.gains,
        np.where((step[:, 1] >= cap[1])[:, None], corner2.gains, ensemble.gains + step),
    )
    return SelectionMatrix(xi, "liquidity-projection")


def liquidity_corners(ensemble, cap=(1.0, 1.0)):
    """The two extreme exchanges allowed by the cap, applied uniformly."""
    cap = np.asarray(cap, dtype=float)
    if cap.shape != (2,) or np.any(cap <= 0):
        raise ValidationError("cap must be a positive 2-vector")
    pi = ensemble.require_rates()
    x = ensemble.gains
    c1 = x + np.column_stack([np.full_like(pi, cap[0]), -cap[0] * pi])
    c2 = x + np.column_stack([-cap[1] / pi, np.full_like(pi, cap[1])])
    return (
        SelectionMatrix(c1, "liquidity-corner-1"),
        SelectionMatrix(c2, "liquidity-corner-2"),
    )


def _require_finite_cone(cone):
    if not (math.isfinite(cone.pi12) and math.isfinite(cone.pi21)):
        raise ValidationError("corner constructions need finite exchange rates")


def comonotone_corner_points(ensemble, cone, alpha):
    """Corner points where the inner and outer boundaries touch.

    Each corner freezes one coordinate at its essential infimum by an
    exchange along one cone generator, which makes the scalar risk along
    the paired dual direction additive.
    """
    _require_finite_cone(cone)
    x = ensemble.gains
    w = ensemble.weights
    worst1, worst2 = risk_rows(RiskSpec(NEG_ESSINF), x.T, w).tolist()
    es_a2 = es_empirical(WeightedSample(x @ cone.a2, w), alpha)
    es_a1 = es_empirical(WeightedSample(x @ cone.a1, w), alpha)
    corner1 = np.array([worst1, (es_a2 - worst1) / cone.pi12])
    corner2 = np.array([(es_a1 - worst2) / cone.pi21, worst2])
    return corner1, corner2


def comonotone_corner_selections(ensemble, cone):
    """Selections realising the boundary corner points."""
    _require_finite_cone(cone)
    x = ensemble.gains
    w = ensemble.weights
    worst1, worst2 = risk_rows(RiskSpec(NEG_ESSINF), x.T, w).tolist()
    z2 = (x[:, 0] + worst1) / cone.pi12
    z1 = (x[:, 1] + worst2) / cone.pi21
    s1 = x + z2[:, None] * cone.b2
    s2 = x + z1[:, None] * cone.b1
    return (
        SelectionMatrix(s1, "corner-freeze-1"),
        SelectionMatrix(s2, "corner-freeze-2"),
    )


def boost_worst_coordinate(ensemble, radius):
    """Spend the whole ball radius on the currently smaller coordinate."""
    radius = float(radius)
    if radius <= 0:
        raise ValidationError("radius must be positive")
    x = ensemble.gains
    boost = np.zeros_like(x)
    boost[x[:, 0] < x[:, 1], 0] = radius
    boost[x[:, 0] > x[:, 1], 1] = radius
    return SelectionMatrix(x + boost, "boost-worst")


def _mix(first, second, lambda_values):
    """Family l * first + (1 - l) * second over the grid: convex combinations
    of two selections of the same convex portfolio."""
    lam = _grid(lambda_values, "lambda grid")
    if np.any(lam < 0) or np.any(lam > 1):
        raise ValidationError("lambda grid must lie inside [0, 1]")
    a, b = first.gains, second.gains

    def fill(out, lo, hi):
        rows = out[: hi - lo]
        np.multiply(lam[lo:hi, None, None], a, out=rows)
        rows += (1.0 - lam[lo:hi, None, None]) * b

    return Family(
        len(lam), lambda i: f"mix({first.label},{second.label},lam={lam[i]:.6g})", fill
    )


# Directions of the first-quadrant fan that the audit probes.
_AUDIT_DIRS = 64


def selection_auditor(portfolio):
    """Audit function for blocks of selections of ``portfolio``.

    Computes the support rows of the audit directions once: a fan over the
    first quadrant plus the kind's exact directions, skipping those where
    the support is infinite on every scenario.  The returned function maps a
    (b, n, 2) block of selection gains to each selection's largest
    support-function violation (<= 0 is valid); for kinds that trade at the
    scenario rate it also checks that no wealth is created at that rate.
    """
    E = portfolio.ensemble
    dirs = np.vstack([direction_grid(_AUDIT_DIRS)] + portfolio.definition.exact_dirs(portfolio))
    rows = []
    for U, H in portfolio.support_blocks(dirs):
        finite = np.isfinite(H).any(axis=1)
        if not finite.all():
            U, H = U[finite], H[finite]
        rows += zip(U, H)
    pi = E.rates if portfolio.definition.trades_at_rate else None

    def audit(gains):
        gains = np.asarray(gains, dtype=float)
        if gains.shape[1:] != E.gains.shape:
            raise ValidationError("selection does not match the ensemble")
        worst = np.full(len(gains), -math.inf)
        for u, h in rows:
            # Gains are finite, so a scenario with infinite support gives
            # -inf here and never binds.
            s = gains @ u
            s -= h
            np.maximum(worst, np.max(s, axis=1), out=worst)
        if pi is not None:
            gap = ((gains[..., 0] - E.gains[:, 0]) * pi
                   + (gains[..., 1] - E.gains[:, 1])) / np.hypot(pi, 1.0)
            np.maximum(worst, np.max(gap, axis=1), out=worst)
        return worst

    return audit


def audit_selection(portfolio, selection):
    """Largest support-function violation of the selection (<= 0 is valid);
    see ``selection_auditor``, which audits many selections at once."""
    return float(selection_auditor(portfolio)(np.stack([selection.gains]))[0])


def _grid_object(cfg, key):
    grid = cfg.get(key, {})
    if not isinstance(grid, dict):
        raise ValidationError(f"{key!r} must be an object, got {grid!r}")
    return grid


def _grid_from_config(cfg, eta):
    t_cfg = _grid_object(cfg, "t_grid")
    if "values" in t_cfg:
        t_values = _grid(t_cfg["values"], "scale grid")
    else:
        scale = float(np.max(np.hypot(eta[:, 0], eta[:, 1]), initial=0.0))
        t_values = default_t_grid(
            t_cfg.get("scale", scale),
            t_cfg.get("count", 33),
            t_cfg.get("span", 4.0),
        )
    return t_values


def _lambda_from_config(cfg):
    lam_cfg = _grid_object(cfg, "lambda_grid")
    if "values" in lam_cfg:
        return _grid(lam_cfg["values"], "lambda grid")
    return np.linspace(0.0, 1.0, _count(lam_cfg.get("count", 21), "lambda grid count", 0))


def _explicit(portfolio, cfg, risk_spec):
    if "gains" not in cfg:
        raise ValidationError('"gains" is required')
    gains = np.asarray(cfg["gains"], dtype=float)
    if gains.shape != portfolio.ensemble.gains.shape:
        raise ValidationError('"gains" must match the (n, 2) shape of the scenarios')
    return [_row(SelectionMatrix(gains, str(cfg.get("label", "explicit"))))]


def _quantile_shift(portfolio, cfg, risk_spec):
    E = portfolio.ensemble
    side = cfg.get("side", "both")
    level = cfg.get("level", risk_spec.level if risk_spec.level else 0.5)
    eta, ray = quantile_shift_projection(E, portfolio.cone, level, side=side)
    t_values = _grid_from_config(cfg, eta)
    return [_scaled(
        E, eta, t_values, ray=ray if side == "both" else None,
        cone=portfolio.cone, label=f"quantile-shift[{side}]",
    )]


def _frictionless(portfolio, cfg, risk_spec):
    E = portfolio.ensemble
    eta = frictionless_direction(E)
    t_values = _grid_from_config(cfg, eta)
    return [_scaled(E, eta, t_values, label="frictionless")]


def _liquidity_family(portfolio, cfg, risk_spec):
    E = portfolio.ensemble
    lam = _lambda_from_config(cfg)
    xi = liquidity_capped_projection(E, portfolio.cap)
    c1, c2 = liquidity_corners(E, portfolio.cap)
    return _rows(xi, c1, c2) + [_mix(xi, c1, lam), _mix(xi, c2, lam)]


def _segment_vertices(portfolio, cfg, risk_spec):
    lam = _lambda_from_config(cfg)
    base = SelectionMatrix(portfolio.ensemble.gains, "segment-vertex-0")
    families = [_row(base)]
    for k, g in enumerate(portfolio.extra_gains, start=1):
        other = SelectionMatrix(g, f"segment-vertex-{k}")
        families += [_row(other), _mix(base, other, lam)]
    return families


# Strategy name -> (builder(portfolio, config, risk spec) returning a list
# of families, config keys it reads).  Which kinds a strategy applies to is
# in the kinds' records.
_STRATEGIES = {
    "identity": (lambda p, cfg, spec: _rows(SelectionMatrix(p.ensemble.gains, "identity")), ()),
    "explicit": (_explicit, ("gains", "label")),
    "quantile-shift": (_quantile_shift, ("side", "level", "t_grid")),
    "corner-selections": (
        lambda p, cfg, spec: _rows(*comonotone_corner_selections(p.ensemble, p.cone)), ()
    ),
    "frictionless": (_frictionless, ("t_grid",)),
    "axis-transfer": (lambda p, cfg, spec: _rows(*axis_transfer_selections(p.ensemble)), ()),
    "liquidity-family": (_liquidity_family, ("lambda_grid",)),
    "ball-boost": (lambda p, cfg, spec: _rows(boost_worst_coordinate(p.ensemble, p.radius)), ()),
    "segment-vertices": (_segment_vertices, ("lambda_grid",)),
}


def _strategy_error(name, exc):
    return ValidationError(f"strategy {name!r}: {exc}")


def _checked(name, family):
    """The family, with what goes wrong while it fills reported in the name
    of its strategy: config values of the wrong type, and arithmetic that
    overflows when the caller's numpy error state raises on it."""

    def fill(out, lo, hi):
        try:
            family.fill(out, lo, hi)
        except (TypeError, ValueError, FloatingPointError) as exc:
            raise _strategy_error(name, exc) from exc

    return family._replace(fill=fill)


def _families(portfolio, config, risk_spec):
    """Check and parse one strategy configuration at once; return its
    families, whose selections are made when they fill a block."""
    if not isinstance(config, dict):
        raise ValidationError(f"a strategy must be an object, got {config!r}")
    cfg = dict(config)
    name = cfg.pop("strategy", None)
    if not isinstance(name, str) or name not in _STRATEGIES:
        raise ValidationError(f"unknown strategy {name!r}")
    build, keys = _STRATEGIES[name]
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise ValidationError(f"unknown keys for strategy {name!r}: {unknown}")
    applies = {c["strategy"] for c in portfolio.definition.strategies}
    if name != "explicit" and name not in applies:
        raise ValidationError(
            f"strategy {name!r} does not apply to {portfolio.kind} portfolios"
        )
    try:
        families = build(portfolio, cfg, risk_spec)
    except (TypeError, ValueError, FloatingPointError) as exc:
        raise _strategy_error(name, exc) from exc
    return [_checked(name, family) for family in families]


def _bundle_families(portfolio, risk_spec, strategies):
    """Identity, then the families of each strategy configuration other than
    a repeated identity.  Every configuration is checked and parsed before
    the first selection is made."""
    configs = (
        default_strategy_configs(portfolio) if strategies is None else list(strategies)
    )
    return _rows(SelectionMatrix(portfolio.ensemble.gains, "identity")) + [
        f for cfg in configs if cfg != _IDENTITY for f in _families(portfolio, cfg, risk_spec)
    ]


def build_family(portfolio, config, risk_spec):
    """Expand one strategy configuration into selection matrices."""
    return [
        sel
        for family in _families(portfolio, config, risk_spec)
        for sel in _matrices(family, portfolio.ensemble.n)
    ]


def default_strategy_configs(portfolio):
    """Strategy set used when a run configuration does not name one."""
    return [dict(cfg) for cfg in portfolio.definition.defaults(portfolio)]
