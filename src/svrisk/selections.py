"""Selection strategies: scenario-wise compensated positions inside a portfolio.

Each strategy expands into families of selections.  A family is a count,
``label(i)`` and ``fill(out, lo, hi)``, which writes the gains of selections
lo..hi-1 straight into a block buffer, so a grid of selections costs a few
array operations per block instead of one object per selection; a selection
that a strategy makes on its own is a one-row family.  ``selection_points``
evaluates a bundle's selections one family at a time: a family is filled
into one buffer, which holds each coordinate of a selection as one
contiguous row, block by block, and each block is evaluated with one kernel
call, so the inner approximation only has to hull the points.  A family of
runs (``Runs``: the quantile-shift and frictionless grids, and the convex
mixes) is described by its runs, with bounds on every entry.  Under
equal-weight expected shortfall the two-sided (t, s) quantile-shift product
is evaluated from its two halves, which never interact
(``_product_points``), and each other run only on the scenarios that can
reach its tail.  ``build_family`` and ``gather_selections`` turn families
into ``SelectionMatrix`` lists instead.
A selection must stay inside the scenario's attainable set, which the audit
tests exactly: ``selection_auditor`` measures each selection of a block by
its kind's ``excess``, the cash in both assets that brings it back into
every scenario's set less the non-negative quadrant, and ``audit_selection``
is its one-selection call.  ``selection_region`` hulls the points into the
inner region and, audited, audits the selections behind its vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import markets, riskstats
from .errors import ValidationError
from .geom2d import _scale_of, _unit, region_from_points_plus_cone
from .markets import _BLOCK_VALUES, _IDENTITY, _count, _real, _reals, dual_cone
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


class Runs(NamedTuple):
    """Selections made entry by entry from per-run operands: for each run
    r < ``count`` and each parameter p of ``params``, p running fastest,
    ``rows(params, *operands(r), out)`` writes the gains of the run's
    selections into ``out`` from its (2, n) coordinate-major operands, and
    ``bounds(params, *operands(r))`` gives (2, n) arrays (low, high) between
    which every entry of the run's selections lies, bit for bit.  An entry
    depends only on the operands' entries in its place, so rows written from
    operands gathered at some scenarios hold the bits of the whole rows'
    entries there.  From ``min_n`` scenarios on, ``_run_points`` may
    evaluate the runs on the scenarios that can reach their tail."""

    count: int
    operands: Callable[[int], tuple]
    params: np.ndarray
    rows: Callable[..., np.ndarray]
    bounds: Callable[..., tuple]
    min_n: int


class Family(NamedTuple):
    """``count`` selections of one strategy, made on demand.

    ``label(i)`` names selection i, and ``fill(out, lo, hi)`` writes the gains
    of selections lo..hi-1 into ``out[:hi - lo]`` of a (b, 2, n) buffer:
    ``out[i, j]`` is coordinate j of selection lo + i in every scenario.
    A family of scaled runs or convex mixes also describes them in ``runs``,
    from which its ``fill`` is made.  The two-sided (t, s) product also
    gives its ``halves`` (x, m1, m2, scales), from which
    ``_product_points`` evaluates it.
    """

    count: int
    label: Callable[[int], str]
    fill: Callable[[np.ndarray, int, int], None]
    runs: Runs | None = None
    halves: tuple | None = None


def _scale_rows(scales, step, base, out):
    """Write the rows fl(fl(s * step) + base) of each scale s into ``out``."""
    np.multiply(scales.reshape((-1,) + (1,) * step.ndim), step, out=out)
    out += base
    return out


def _scale_bounds(scales, step, base):
    """Rounding is monotone, so every entry fl(fl(s * step) + base) is
    monotone in s: it lies between its values at the smallest and at the
    largest scale, bit for bit."""
    ends = scales[[scales.argmin(), scales.argmax()]]
    edges = _scale_rows(ends, step, base, np.empty((2,) + step.shape))
    return np.minimum(edges[0], edges[1]), np.maximum(edges[0], edges[1])


def _scaled_runs(count, base, step, scales):
    """Selections fl(fl(s * step) + base(r)) for each run r < ``count`` and
    each non-negative scale s of ``scales``; ``step`` and ``base(r)`` are
    (2, n), coordinate-major."""
    return Runs(count, lambda r: (step, base(r)), scales, _scale_rows, _scale_bounds,
                riskstats.PARTITION_MIN_N)


def _run_family(runs, label):
    """The family of ``runs``, whose fill writes each run's rows in turn."""
    k = len(runs.params)

    def fill(out, lo, hi):
        first = lo
        while first < hi:
            r, s = divmod(first, k)
            last = min(hi, first + k - s)
            runs.rows(runs.params[s : s + last - first], *runs.operands(r),
                      out[first - lo : last - lo])
            first = last

    return Family(runs.count * k, label, fill, runs)


def _row(selection):
    """One-row family of a selection made on its own."""

    def fill(out, lo, hi):
        out[0] = selection.gains.T

    return Family(1, lambda i: selection.label, fill)


def _rows(*selections):
    return [_row(sel) for sel in selections]


def _matrices(family, n):
    """The family's selections as selection matrices, filled at once."""
    gains = np.empty((family.count, 2, n))
    family.fill(gains, 0, family.count)
    return [SelectionMatrix(g.T, family.label(i)) for i, g in enumerate(gains)]


def _grid(values, name):
    grid = _reals(values, name)
    if grid.ndim != 1 or grid.size == 0 or not np.isfinite(grid).all():
        raise ValidationError(f"{name} must be a non-empty list of finite numbers")
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


def _scaled(ensemble, eta, t_values, ray=None, cone=None, label="shift"):
    """Family X + t * eta over a checked grid of t values: one scaled run
    with base X and step eta.  With a ray partition whose two groups
    both move, the groups are scaled independently over the full (t, s)
    product, (X + t * m1) + s * m2 with s running fastest: one run per t, with
    base X + t * m1 and step m2, whose halves are X + t * m1 where m2 is zero
    and X + s * m2 elsewhere (see ``_product_points``).  Each entry of a
    selection is X + t * eta at one scale, which is monotone in t, so no
    selection overflows if the largest scale does not."""
    if np.any(t_values < 0):
        raise ValidationError("scale grid must be non-negative")
    if cone is not None:
        bad = np.flatnonzero(~cone.contains(eta))
        if bad.size:
            raise ValidationError(f"eta leaves the exchange cone at row {bad[0]}")
    x, eta = ensemble.gains.T.copy(), eta.T.copy()
    top = t_values.max()
    if not np.isfinite(x + top * eta).all():
        raise ValidationError(f"scale grid value {top:.6g} overflows the selections")
    k = len(t_values)
    if ray is not None:
        m1 = (np.asarray(ray) == 1) * eta
        m2 = (np.asarray(ray) == 2) * eta
        if np.any(m1 != 0.0) and np.any(m2 != 0.0):
            # Its halves evaluate it at any n (see ``_product_points``).
            runs = _scaled_runs(k, lambda t: x + t_values[t] * m1, m2, t_values)._replace(min_n=0)
            return _run_family(
                runs, lambda i: f"{label}(t={t_values[i // k]:.6g},s={t_values[i % k]:.6g})",
            )._replace(halves=(x, m1, m2, t_values))
    return _run_family(
        _scaled_runs(1, lambda r: x, eta, t_values), lambda i: f"{label}(t={t_values[i]:.6g})"
    )


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


def _mix_rows(lams, a, b, out):
    """Write the rows fl(fl(l * a) + fl(fl(1 - l) * b)) of each l into ``out``."""
    lams = lams.reshape((-1,) + (1,) * a.ndim)
    np.multiply(lams, a, out=out)
    out += (1.0 - lams) * b
    return out


def _mix_bounds(lams, a, b):
    """(min(a, b) - d, max(a, b) + d) with d = 4 eps M + tiny, where
    M = max(|a|, |b|): bounds on every entry of the mixes of a and b with
    weights l in [0, 1].

    Write u = eps / 2 for the unit roundoff and mu = fl(1 - l) =
    (1 - l)(1 + e0).  The products round as fl(l a) = l a (1 + e1) + d1 and
    fl(mu b) = mu b (1 + e2) + d2, and their sum as (p + q)(1 + e3), with
    |e_i| <= u and |d_i| <= 2**-1075 (underflow; a sum of subnormals is
    exact).  The exact mix l a + (1 - l) b lies in [min(a, b), max(a, b)],
    and the rounded one differs from it by at most
    (2u + u**2) M + u (1 + u)**2 M + 2 * 2**-1075 < 2 eps M + tiny / 2.
    d leaves room for the roundings of d itself (4 eps is a power of two)
    and of min(a, b) - d and max(a, b) + d, each at most u times its
    result.  Where M reaches half the largest float, the bounds would not
    be finite, and every scenario is taken: the run gets infinite bounds.
    """
    low, high = np.minimum(a, b), np.maximum(a, b)
    # M = max(|low|, high): where high < 0, |high| <= |low|.
    d = np.abs(low)
    np.maximum(d, high, out=d)
    if not d.max() < np.finfo(float).max / 2:
        return np.full_like(a, -np.inf), np.full_like(a, np.inf)
    d *= 4 * np.finfo(float).eps
    d += np.finfo(float).tiny
    low -= d
    high += d
    return low, high


def _mix(first, second, lam):
    """Family l * first + (1 - l) * second over a checked grid of l values:
    convex combinations of two selections of the same convex portfolio, as
    one run of ``Runs`` over l."""
    if np.any(lam < 0) or np.any(lam > 1):
        raise ValidationError("lambda grid must lie inside [0, 1]")
    ops = first.gains.T.copy(), second.gains.T.copy()
    return _run_family(
        Runs(1, lambda r: ops, lam, _mix_rows, _mix_bounds, riskstats.PRUNE_MIN_N),
        lambda i: f"mix({first.label},{second.label},lam={lam[i]:.6g})",
    )


# Largest excess of an audited selection, per unit of max(1, |gains|, |selection|).
_AUDIT_TOL = 1e-7
# The audit measures groups of _AUDIT_VALUES // n selections (at least one): one
# at a time took 2.2x as long, whole blocks 3x (cone-det defaults, n = 2000, 2 cores).
_AUDIT_VALUES = 2**14


def selection_auditor(portfolio):
    """Audit function for blocks of selections of ``portfolio``: it maps a
    (b, n, 2) block of selection gains to each selection's largest excess
    over the scenarios (see ``PortfolioKind.excess``; <= 0 is valid), or NaN
    for a selection with a non-finite entry.  The excess is computed entry by
    entry, so it does not depend on the block or on the other selections."""
    excess = portfolio.definition.excess
    shape = portfolio.ensemble.gains.shape
    group = max(1, _AUDIT_VALUES // shape[0])

    def audit(gains):
        gains = np.asarray(gains, dtype=float)
        if gains.shape[1:] != shape:
            raise ValidationError("selection does not match the ensemble")
        worst = np.empty(len(gains))
        for lo in range(0, len(gains), group):
            np.max(excess(portfolio, gains[lo : lo + group]), axis=1, out=worst[lo : lo + group])
        worst[~np.isfinite(gains).all(axis=(1, 2))] = math.nan
        return worst

    return audit


def audit_selection(portfolio, selection):
    """Largest excess of the selection over the portfolio's sets (<= 0 is
    valid); see ``selection_auditor``, which audits many selections at once."""
    return float(selection_auditor(portfolio)(np.stack([selection.gains]))[0])


def _grid_object(cfg, key, keys):
    grid = cfg.get(key, {})
    if not isinstance(grid, dict):
        raise ValidationError(f"{key!r} must be an object, got {grid!r}")
    unknown = sorted(set(grid) - set(keys))
    if unknown:
        raise ValidationError(f"unknown keys in {key!r}: {unknown}")
    return grid


def _grid_from_config(cfg, eta):
    t_cfg = _grid_object(cfg, "t_grid", ("values", "scale", "span", "count"))
    if "values" in t_cfg:
        return _grid(t_cfg["values"], "scale grid")
    if "scale" in t_cfg:
        scale = _real(t_cfg["scale"], "t_grid.scale")
        if not 0.0 <= scale < math.inf:
            raise ValidationError("t_grid.scale must be a non-negative finite number")
    else:
        scale = float(np.max(np.hypot(eta[:, 0], eta[:, 1]), initial=0.0))
    span = _real(t_cfg.get("span", 4.0), "t_grid.span")
    return default_t_grid(scale, t_cfg.get("count", 33), span)


def _lambda_from_config(cfg):
    lam_cfg = _grid_object(cfg, "lambda_grid", ("values", "count"))
    if "values" in lam_cfg:
        return _grid(lam_cfg["values"], "lambda grid")
    return np.linspace(0.0, 1.0, _count(lam_cfg.get("count", 21), "lambda grid count", 1))


def _explicit(portfolio, cfg, risk_spec):
    if "gains" not in cfg:
        raise ValidationError('"gains" is required')
    gains = _reals(cfg["gains"], '"gains"')
    if gains.shape != portfolio.ensemble.gains.shape:
        raise ValidationError('"gains" must match the (n, 2) shape of the scenarios')
    return [_row(SelectionMatrix(gains, str(cfg.get("label", "explicit"))))]


def _quantile_shift(portfolio, cfg, risk_spec):
    E = portfolio.ensemble
    side = cfg.get("side", "both")
    level = _real(cfg.get("level", risk_spec.level if risk_spec.level else 0.5), "level")
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


def _families(portfolio, config, risk_spec):
    """Check and parse one strategy configuration at once; return its
    families, whose selections are made when they fill a block.  What the
    parse refuses is reported in the name of the strategy; it refuses every
    grid that would make a selection overflow, so no fill can, and every
    family of more selections than _BLOCK_VALUES, the bound on every count
    from outside."""
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
        raise ValidationError(f"strategy {name!r}: {exc}") from exc
    for family in families:
        if family.count > _BLOCK_VALUES:
            raise ValidationError(
                f"strategy {name!r}: {family.count} selections in one family, "
                f"more than {_BLOCK_VALUES}"
            )
    return families


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


def gather_selections(portfolio, risk_spec, strategies=None):
    """Expand strategy configs into selections; identity is always present."""
    families = _bundle_families(portfolio, risk_spec, strategies)
    return [sel for family in families for sel in _matrices(family, portfolio.ensemble.n)]


def _run_points(runs, m, risk_spec, weights):
    """The (count, 2) risk points of the selections of ``runs`` under
    equal-weight expected shortfall with an m-scenario tail: each run and
    coordinate goes through ``riskstats.tail_risk_rows`` with the run's
    bounds, and its rows written from the operands gathered on the
    candidate scenarios hold the bits of the whole rows' entries there."""
    params = runs.params
    points = np.empty((runs.count, len(params), 2))
    for r in range(runs.count):
        ops = runs.operands(r)
        low, high = runs.bounds(params, *ops)
        for j in range(2):
            points[r, :, j] = riskstats.tail_risk_rows(
                risk_spec, weights, m, low[j], high[j], len(params),
                lambda lo, hi, at: runs.rows(params[lo:hi], *(op[j, at] for op in ops),
                                             np.empty((hi - lo, len(at)))),
                markets._BLOCK_VALUES,
            )
    return points.reshape(-1, 2)


def _half_tails(scales, step, base, m, level, weights):
    """The rows fl(fl(s * step) + base) of the scales s of ``scales``, on
    ``size`` scenarios, each cut to its min(m, size) smallest values, sorted;
    m is the tail count of equal-weight expected shortfall at ``level`` on
    all the scenarios, which the first ``size`` weights give as the whole
    ones do.  The rows are built in blocks of at most _BLOCK_VALUES // 4
    values (at least one row)."""
    size = len(step)
    tails = np.empty((len(scales), min(m, size)))
    if size:
        per = max(1, markets._BLOCK_VALUES // 4 // size)
        for lo in range(0, len(scales), per):
            chunk = scales[lo : lo + per]
            rows = _scale_rows(chunk, step, base, np.empty((len(chunk), size)))
            tails[lo : lo + per], _, _ = riskstats._sorted_rows(
                rows, weights[:size], level, overwrite=True)
    return tails


def _product_points(halves, m, risk_spec, weights):
    """The (k * k, 2) risk points of the two-sided (t, s) product of the k
    scales of ``halves`` under equal-weight expected shortfall with an
    m-scenario tail, from the product's two halves.

    In coordinate j, selection (t, s) is fl(fl(s * m2) + fl(fl(t * m1) + x)),
    and m1 and m2 are supported on disjoint scenarios.  Where m2 is a zero,
    fl(s * m2) is that zero, and adding a zero after fl(t * m1) + x rounds as
    adding it to x first: the entry is fl(fl(t * m1) + fl(x + m2)), the
    t-half, which does not depend on s.  Elsewhere m1 is a zero, and the
    entry is fl(fl(s * m2) + fl(x + m1)), the s-half, which does not depend
    on t.  So each half's k rows are built once, and the row of (t, s) is
    the union of t-half row t and s-half row s, bit for bit, signed zeros
    included.  The m smallest values of the union are among the m smallest
    of each half, so each half row keeps only those, and each pair is
    evaluated by risk_rows on the concatenation of its two tails with the
    first weights, which gives the bits of whole rows (see
    ``riskstats.tail_risk_rows``).  Pairs go in blocks of at most
    _BLOCK_VALUES // 4 values (at least one pair), as half rows do: built
    whole, half rows raised the traced peak of the default cone-det bundle
    at n = 1e4 from 3.54 to 3.89 MiB."""
    x, m1, m2, scales = halves
    k = len(scales)
    t_of, s_of = np.divmod(np.arange(k * k), k)
    points = np.empty((k * k, 2))
    for j in range(2):
        moves = m2[j] != 0.0
        t_tails, s_tails = (
            _half_tails(scales, step[j, at], x[j, at] + zero[j, at], m, risk_spec.level, weights)
            for step, zero, at in ((m1, m2, ~moves), (m2, m1, moves))
        )
        a, b = t_tails.shape[1], s_tails.shape[1]
        per = max(1, markets._BLOCK_VALUES // 4 // (a + b))
        for lo in range(0, k * k, per):
            hi = min(k * k, lo + per)
            block = np.empty((hi - lo, a + b))
            block[:, :a] = t_tails[t_of[lo:hi]]
            block[:, a:] = s_tails[s_of[lo:hi]]
            points[lo:hi, j] = risk_rows(risk_spec, block, weights[: a + b],
                                         overwrite_input=True)
    return points


def _audit_rows(portfolio, families, rows):
    """Refuse, by label, the first selection in family order among ``rows``
    whose excess is NaN or passes _AUDIT_TOL times the largest of 1 and the
    largest |entry| of the gains and of the selection.  The rows, indices in
    order into the families' selections, are rebuilt in buffers of at most
    _AUDIT_VALUES // n (at least one) selections, with one ``fill`` call per
    run of consecutive rows of a family, and each buffer is audited with one
    call."""
    n = portfolio.ensemble.n
    audit = selection_auditor(portfolio)
    scale = _scale_of(portfolio.ensemble.gains)
    size = max(1, _AUDIT_VALUES // n)
    buf = np.empty((min(len(rows), size), 2, n))
    firsts = np.cumsum([0] + [f.count for f in families])
    owners = np.searchsorted(firsts, rows, side="right") - 1
    # Audited row i is selection local[i] of family owners[i].
    local = rows - firsts[owners]
    for lo in range(0, len(rows), size):
        chunk, owner = local[lo : lo + size], owners[lo : lo + size]
        cuts = np.flatnonzero((np.diff(chunk) != 1) | (np.diff(owner) != 0)) + 1
        for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), len(chunk)]):
            families[owner[a]].fill(buf[a:b], chunk[a], chunk[a] + b - a)
        block = buf[: len(chunk)]
        gaps = audit(block.transpose(0, 2, 1))
        tol = _AUDIT_TOL * np.maximum(scale, np.abs(block).max(axis=(1, 2)))
        bad = np.flatnonzero(~(gaps <= tol))
        if bad.size:
            i = bad[0]
            raise ValidationError(
                f"selection {families[owner[i]].label(chunk[i])!r} leaves the "
                f"portfolio (excess {gaps[i]:.3e})"
            )


def _family_points(family, n, risk_spec, weights, buf):
    """The (count, 2) risk points of the family's selections: they fill the
    (b, 2, n) buffer ``buf`` b at a time, and each block is evaluated with
    one kernel call over its rows."""
    points = np.empty((family.count, 2))
    for lo in range(0, family.count, len(buf)):
        hi = min(family.count, lo + len(buf))
        block = buf[: hi - lo]
        family.fill(block, lo, hi)
        # Row 2i + j of the contiguous block is coordinate j of selection
        # lo + i; the block is scratch, so the kernel sorts it in place.
        rows = block.reshape(2 * len(block), n)
        points[lo:hi] = risk_rows(risk_spec, rows, weights, overwrite_input=True).reshape(-1, 2)
    return points


def _points(portfolio, risk_spec, families):
    """The families' risk points, in order (see ``selection_points``)."""
    n = portfolio.ensemble.n
    weights = portfolio.ensemble.weights
    tails = [f.runs and riskstats._prunable_tail(risk_spec, weights, f.runs.min_n)
             for f in families]
    # One buffer serves every whole-row family and is freed before the first
    # pruned run: sized by the largest family, or kept alive across the runs,
    # it made the allocator fault pages in again for the runs' temporaries.
    whole = sum(f.count for f, m in zip(families, tails) if m is None)
    buf = np.empty((min(whole, max(1, markets._BLOCK_VALUES // n)), 2, n))
    points = [_family_points(f, n, risk_spec, weights, buf) if m is None else None
              for f, m in zip(families, tails)]
    del buf
    return np.concatenate([
        p if m is None
        else _product_points(f.halves, m, risk_spec, weights) if f.halves is not None
        else _run_points(f.runs, m, risk_spec, weights)
        for f, m, p in zip(families, tails, points)
    ])


def selection_points(portfolio, risk_spec, strategies=None):
    """The (m, 2) risk points of the selections that ``gather_selections``
    makes, in order, one family at a time, once every configuration is
    parsed.  Under equal-weight expected shortfall whose tail holds at most
    riskstats.PRUNE_MAX_TAIL of the scenarios, the two-sided (t, s) product
    is evaluated from its halves at any n (``_product_points``) and each
    other family of runs (one-sided scaled grids from
    riskstats.PARTITION_MIN_N scenarios on, convex mixes from
    riskstats.PRUNE_MIN_N on) on the scenarios that can reach its tail
    (``_run_points``); every other family goes through one buffer of
    _BLOCK_VALUES // n selections (at least one) in ``_family_points``.
    Nothing is audited (see ``selection_region``)."""
    return _points(portfolio, risk_spec, _bundle_families(portfolio, risk_spec, strategies))


def selection_region(portfolio, risk_spec, strategies=None, audit=False):
    """The inner region, conv(``selection_points``) plus the kind's recession
    cone, and the number of points.  Audited, ``_audit_rows`` takes the rows
    whose point is not finite first, if any, so that one is named before the
    hull refuses it; then every row whose point equals a vertex bit for bit,
    the two signed zeros taken as equal, so tied rows are all audited.  No
    other point shapes the region."""
    families = _bundle_families(portfolio, risk_spec, strategies)
    points = _points(portfolio, risk_spec, families)
    if audit and not np.isfinite(points).all():
        _audit_rows(portfolio, families, np.flatnonzero(~np.isfinite(points).all(axis=1)))
    recession = portfolio.definition.recession(portfolio, risk_spec)
    region = region_from_points_plus_cone(points, recession)
    if audit:
        # Complex == compares each coordinate as a float, so 0.0 == -0.0.
        vertex = np.isin(points.view(complex), region.vertices.view(complex))
        _audit_rows(portfolio, families, np.flatnonzero(vertex))
    return region, len(points)


def default_strategy_configs(portfolio):
    """Strategy set used when a run configuration does not name one."""
    return [dict(cfg) for cfg in portfolio.definition.defaults(portfolio)]
