"""Market primitives: exchange cones, scenario ensembles, set-valued portfolios.

A two-asset exchange cone collects the positions reachable from zero by
exchanges at bid-ask rates; it contains the non-positive quadrant (free
disposal).  A set-valued portfolio couples a scenario ensemble with the
per-scenario set of attainable terminal positions, described here through
its support function on the non-negative quadrant.  Each kind's record also
makes the kind's outer cuts and measures how far positions lie outside them.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import riskstats
from .errors import ValidationError, WholePlaneError
from .geom2d import TOL, ConvexCone2D, _cross, _unit
from .riskstats import ES, VAR, WeightedSample, _settle_weight_sum, es_empirical, neg_expectation

CONE_DET = "cone-det"
CONE_HALFPLANE_RANDOM = "cone-halfplane-random"
LIQUIDITY_CAPPED = "liquidity-capped"
BALL = "ball"
SEGMENT_HULL = "segment-hull"

# Scenario values per column in one block: selections are filled and
# evaluated, and support rows built, in blocks of _BLOCK_VALUES // n rows (at
# least one), so memory stays bounded however many there are.
_BLOCK_VALUES = 2**18


def _count(value, name, low, high=_BLOCK_VALUES):
    """A count from outside: an integer, not a bool, in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not (
        low <= value <= high
    ):
        raise ValidationError(f"{name} must be an integer in [{low}, {high}]")
    return int(value)


def _real(value, name):
    """A number from outside: an integer or a float, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} must be a finite number") from None


def _object(value, name, keys):
    """A config object from outside: a dict whose keys all lie in ``keys``."""
    if not isinstance(value, dict):
        raise ValidationError(f"{name} must be an object, got {value!r}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ValidationError(f"unknown keys in {name}: {unknown}")
    return value


def _reals(value, name):
    """Numbers from outside as a float array: an array of numbers, or nested
    lists whose entries ``_real`` accepts one by one."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        return value.astype(float)
    items = np.asarray(value, dtype=object)
    return np.array([_real(v, name) for v in items.flat], dtype=float).reshape(items.shape)


def direction_grid(n_dirs):
    """Unit directions spanning the closed first quadrant."""
    if int(n_dirs) < 2:
        raise ValidationError("need at least two directions")
    angles = np.linspace(0.0, np.pi / 2.0, int(n_dirs))
    return np.column_stack([np.cos(angles), np.sin(angles)])


@dataclass(frozen=True)
class ExchangeCone2D:
    """Exchange cone for two assets, generated by the bid-ask rates.

    ``pi12`` is the price of asset 2 in units of asset 1 and ``pi21`` the
    price of asset 1 in units of asset 2; pi12 * pi21 >= 1.  Infinite
    entries disable exchange and leave only free disposal.
    """

    pi12: float
    pi21: float

    def __post_init__(self):
        p12 = _real(self.pi12, "pi12")
        p21 = _real(self.pi21, "pi21")
        if not (p12 > 0 and p21 > 0):
            raise ValidationError("exchange rates must be positive")
        if math.isfinite(p12) and math.isfinite(p21) and p12 * p21 < 1.0 - 1e-12:
            raise ValidationError("round-trip exchange may not create value")
        object.__setattr__(self, "pi12", p12)
        object.__setattr__(self, "pi21", p21)

    @classmethod
    def frictionless(cls, rate):
        rate = _real(rate, "frictionless_rate")
        if not (rate > 0 and math.isfinite(rate)):
            raise ValidationError("rate must be positive and finite")
        return cls(1.0 / rate, rate)

    @classmethod
    def no_exchange(cls):
        return cls(math.inf, math.inf)

    @property
    def b1(self):
        """Generator: sell one unit of asset 1 for asset 2."""
        if math.isinf(self.pi21):
            return np.array([0.0, -1.0])
        return np.array([1.0, -self.pi21])

    @property
    def b2(self):
        """Generator: buy one unit of asset 2 for pi12 units of asset 1."""
        if math.isinf(self.pi12):
            return np.array([-1.0, 0.0])
        return np.array([-self.pi12, 1.0])

    @property
    def a1(self):
        """Dual generator paired with b1: <a1, b1> = 0."""
        if math.isinf(self.pi21):
            return np.array([1.0, 0.0])
        return np.array([self.pi21, 1.0])

    @property
    def a2(self):
        """Dual generator paired with b2: <a2, b2> = 0."""
        if math.isinf(self.pi12):
            return np.array([0.0, 1.0])
        return np.array([1.0, self.pi12])

    def contains(self, x, tol=TOL):
        """Membership via sign tests against the dual generators; an (n, 2)
        array gets one answer per row."""
        x = np.asarray(x, dtype=float)
        eps = tol * np.maximum(1.0, np.max(np.abs(x), axis=-1))
        inside = (x @ _unit(self.a1) <= eps) & (x @ _unit(self.a2) <= eps)
        return inside if inside.ndim else bool(inside)


def dual_cone(cone):
    """Directions u with <u, x> <= 0 for every x in the exchange cone."""
    return ConvexCone2D.from_rays(_unit(cone.a1), _unit(cone.a2))


def solvency_cone(cone):
    """Central reflection of the exchange cone: positions exchangeable to >= 0."""
    lo = _unit(-cone.b2)
    hi = _unit(-cone.b1)
    if abs(_cross(lo, hi)) <= 1e-9 and float(lo @ hi) < 0:
        return ConvexCone2D.halfplane(lo)
    return ConvexCone2D.from_rays(lo, hi)


@dataclass(frozen=True)
class ScenarioEnsemble:
    """Finite scenario model: gains matrix, optional exchange rate, weights.

    The ensemble keeps read-only copies of the arrays it is given, so later
    writes to the caller's arrays do not reach it and the caller's arrays
    stay writable.
    """

    gains: np.ndarray
    rates: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        x = np.array(self.gains, dtype=float, order="C")
        if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] != 2:
            raise ValidationError("gains must be a non-empty (n, 2) array")
        if not np.all(np.isfinite(x)):
            raise ValidationError("gains contain non-finite entries")
        n = x.shape[0]
        pi = self.rates
        if pi is not None:
            pi = np.array(pi, dtype=float)
            if pi.shape != (n,):
                raise ValidationError("rates must have one entry per scenario")
            if not np.all(np.isfinite(pi)) or np.any(pi <= 0):
                raise ValidationError("rates must be positive and finite")
            pi.setflags(write=False)
        w = self.weights
        if w is None:
            w = np.full(n, 1.0 / n)
        else:
            w = np.array(w, dtype=float)
            if w.shape != (n,):
                raise ValidationError("weights must have one entry per scenario")
            if np.any(w < 0) or not np.all(np.isfinite(w)):
                raise ValidationError("weights must be non-negative and finite")
            w = _settle_weight_sum(w)
        object.__setattr__(self, "gains", x)
        object.__setattr__(self, "rates", pi)
        object.__setattr__(self, "weights", w)
        x.setflags(write=False)
        w.setflags(write=False)

    @property
    def n(self):
        return self.gains.shape[0]

    def require_rates(self):
        if self.rates is None:
            raise ValidationError("this portfolio kind needs per-scenario rates")
        return self.rates


@dataclass(frozen=True)
class SetPortfolio:
    """Scenario ensemble plus the per-scenario attainable-set description;
    ``KINDS[kind]`` holds everything that differs between kinds."""

    kind: str
    ensemble: ScenarioEnsemble
    cone: ExchangeCone2D | None = None
    radius: float | None = None
    cap: np.ndarray | None = None
    extra_gains: tuple = ()

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise ValidationError(f"unknown portfolio kind {self.kind!r}")
        reads = self.definition.fields
        for field in dataclasses.fields(self)[2:]:
            if field.name not in reads and getattr(self, field.name) is not field.default:
                raise ValidationError(f"{self.kind} portfolios take no {field.name}")
        self.definition.validate(self)

    @classmethod
    def cone_det(cls, ensemble, cone):
        return cls(CONE_DET, ensemble, cone=cone)

    @classmethod
    def random_halfplane(cls, ensemble):
        return cls(CONE_HALFPLANE_RANDOM, ensemble)

    @classmethod
    def liquidity_capped(cls, ensemble, cap=(1.0, 1.0)):
        return cls(LIQUIDITY_CAPPED, ensemble, cap=cap)

    @classmethod
    def ball(cls, ensemble, radius):
        return cls(BALL, ensemble, radius=radius)

    @classmethod
    def segment_hull(cls, ensemble, extra_gains):
        return cls(SEGMENT_HULL, ensemble, extra_gains=tuple(extra_gains))

    @property
    def definition(self):
        """The record of this portfolio's kind."""
        return KINDS[self.kind]

    def support_values(self, u):
        """Per-scenario support function (may contain +inf): the (n,) row at a
        direction u, or the (k, n) rows at each row of a (k, 2) block of
        directions, which are checked once for the whole block."""
        U = np.asarray(u, dtype=float)
        one = U.ndim == 1
        if one:
            if U.shape != (2,):
                raise ValidationError("direction must be a 2-vector")
            U = U[None, :]
        elif U.ndim != 2 or U.shape[1] != 2:
            raise ValidationError("directions must be a 2-vector or a (k, 2) array")
        U = np.ascontiguousarray(U)
        if np.any(U < -TOL) or np.any(np.all(U == 0, axis=1)):
            raise ValidationError("direction must be non-zero with u >= 0")
        rows = _support_rows(self, U)
        return rows[0] if one else rows


def _support_rows(p, U, at=slice(None)):
    """The support rows at the (k, 2) directions ``U`` on the scenarios
    ``at`` (a slice or an index array): row j, entry i is the support of
    scenario ``at[i]`` at ``U[j]``, with the bits of the whole row's entry."""
    gains = p.ensemble.gains[at]
    base = np.empty((len(U), len(gains)))
    for u, row in zip(U, base):
        # One matrix-vector product per row, as gains @ u rounds it;
        # gains @ U.T would round some entries differently.  A gathered
        # gains[at] @ u rounds each entry as gains @ u does.
        np.matmul(gains, u, out=row)
    return p.definition.support(p, U, base, at)


# Neighbouring directions per group of the pruned support grid in
# _support_cuts.
PRUNE_GROUP = 16


def _support_cuts(p, risk_spec, U):
    """The risks of the support values at the (k, 2) directions ``U``: the
    offsets of their cuts, through ``riskstats.tail_risk_rows``.  Where
    ``riskstats._prunable_tail`` allows it (from PRUNE_MIN_N scenarios on)
    and the kind has a finite ``reach``, the support rows are built, in
    groups of PRUNE_GROUP directions, only on the scenarios that can reach
    the expected-shortfall tail; otherwise they are built whole.

    A scenario's attainable set lies in the ball of radius R, so its support
    is R-Lipschitz in u: over a group of directions u_j within D of its
    middle direction u_a, whose row is built whole, h(u_j) lies within R*D
    of h(u_a) up to rounding, which the slack in D (relative to R) and in
    the upper bound (among subnormals) covers.
    """
    w = p.ensemble.weights
    m = riskstats._prunable_tail(risk_spec, w, riskstats.PRUNE_MIN_N)
    try:
        reach = None if m is None else p.definition.reach(p)
    except FloatingPointError:
        reach = None
    norms = np.hypot(U[:, 0], U[:, 1])
    # The bounds below stay finite while 8*R*|u| does.  A reach that
    # overflows leaves the rows, and their errors, to whole rows.
    if reach is None or not float(reach.max()) * 8.0 * float(norms.max()) < np.finfo(float).max:
        return riskstats.tail_risk_rows(
            risk_spec, w, None, None, None, len(U),
            lambda b, e, at: p.support_values(U[b:e]), _BLOCK_VALUES,
        ).tolist()
    offsets = []
    low, high = np.empty(len(w)), np.empty(len(w))
    for lo in range(0, len(U), PRUNE_GROUP):
        G = U[lo : lo + PRUNE_GROUP]
        a = len(G) // 2
        anchor = p.support_values(G[a])
        D = np.hypot(G[:, 0] - G[a, 0], G[:, 1] - G[a, 1]).max()
        D += 1e-12 * norms[lo : lo + PRUNE_GROUP].max()
        np.subtract(anchor, np.multiply(reach, D, out=high), out=low)
        high += anchor
        high += np.finfo(float).tiny
        offsets += riskstats.tail_risk_rows(
            risk_spec, w, m, low, high, len(G),
            lambda b, e, at: _support_rows(p, G[b:e], at), _BLOCK_VALUES,
        ).tolist()
    return offsets


def tail_slope_cone(rate_sample, alpha):
    """Cone spanned by the tail-expectation slopes (1, ES(pi)) and
    (ES(1/pi), 1) of a random exchange rate pi at level ``alpha``."""
    es_rate = es_empirical(rate_sample, alpha)
    inv = WeightedSample(1.0 / rate_sample.values, rate_sample.weights)
    es_inv = es_empirical(inv, alpha)
    return ConvexCone2D(_unit((1.0, es_rate)), _unit((es_inv, 1.0)))


class PortfolioKind:
    """Everything that sets one kind of set-valued portfolio apart.

    Each kind is a subclass that also defines ``support(p, U, base, at)``,
    the support values of the scenarios ``at`` (a slice or an index array)
    at each row u of a (k, 2) block of directions ``U`` given the array
    ``base`` of rows ``gains[at] @ u``, which it may overwrite and return,
    ``excess(p, eta)``, the (..., n) least cash t in both assets that puts
    eta - t * (1, 1) in each scenario's set less the non-negative quadrant
    for (..., n, 2) positions ``eta`` (t <= 0 inside), and ``parse(block,
    ensemble)``, which builds a portfolio from a config block and pops the
    keys it reads.  Its ``outer_cuts`` makes the dual cuts of the outer
    region.  ``strategies`` is the default strategy set; apart from
    "explicit", only the strategies it names apply to the kind.  A kind may
    leave some of them out of the defaults for a given portfolio.
    """

    strategies = ()
    # The portfolio fields besides the ensemble that the kind reads; a new
    # portfolio must leave the others unset.
    fields = ()

    def validate(self, p):
        """Check and normalise the kind's fields of a new portfolio."""

    def recession(self, p, risk_spec):
        """Recession cone that the inner region may add for free."""
        return ConvexCone2D.nonneg_orthant()

    def risk_rule(self, risk_spec):
        """Raise for risk functionals the kind's bounds do not hold for.

        The sandwich needs a coherent functional: value at risk is not
        subadditive, so its dual cuts need not bound the selection hull.
        """
        if risk_spec.kind == VAR:
            raise ValidationError(
                "value-at-risk is not subadditive, so its bundles need not nest; "
                "use expected-shortfall"
            )

    def defaults(self, p):
        """Strategy set used for ``p`` when a run names none."""
        return self.strategies

    def reach(self, p):
        """An (n,) bound R_w >= |x| for every x in scenario w's attainable
        set, which lets the support grid skip scenarios that cannot reach
        its expected-shortfall tail; None for unbounded sets."""
        return None

    def outer_cuts(self, p, risk_spec, n_dirs):
        """Dual cuts (directions, offsets) whose half-spaces meet in the outer
        region, for a risk spec that passed ``risk_rule``.  By default the
        support grid on a first-quadrant fan of ``n_dirs`` directions, which
        serves kinds whose sets are bounded, so that their support is finite
        there."""
        dirs = direction_grid(n_dirs)
        return dirs, _support_cuts(p, risk_spec, dirs)


_IDENTITY = {"strategy": "identity"}


class _ConeDet(PortfolioKind):
    fields = ("cone",)
    strategies = (
        _IDENTITY,
        {"strategy": "quantile-shift", "side": "both"},
        {"strategy": "quantile-shift", "side": "ray1"},
        {"strategy": "quantile-shift", "side": "ray2"},
        {"strategy": "corner-selections"},
    )

    def validate(self, p):
        if p.cone is None:
            raise ValidationError("cone-det portfolios need an exchange cone")

    def defaults(self, p):
        # The corner freezes exchange along both generators.
        if math.isfinite(p.cone.pi12) and math.isfinite(p.cone.pi21):
            return self.strategies
        return tuple(c for c in self.strategies if c["strategy"] != "corner-selections")

    def support(self, p, U, base, at):
        units = U / np.hypot(U[:, 0], U[:, 1])[:, None]
        base[~dual_cone(p.cone).contains(units)] = np.inf
        return base

    def parse(self, block, ensemble):
        if "frictionless_rate" in block:
            cone = ExchangeCone2D.frictionless(block.pop("frictionless_rate"))
        elif not isinstance(block.get("no_exchange", False), bool):
            raise ValidationError('"no_exchange" must be true or false')
        elif block.pop("no_exchange", False):
            cone = ExchangeCone2D.no_exchange()
        else:
            cone = ExchangeCone2D(block.pop("pi12"), block.pop("pi21"))
        return SetPortfolio.cone_det(ensemble, cone)

    def recession(self, p, risk_spec):
        return solvency_cone(p.cone)

    def excess(self, p, eta):
        # The cone less the quadrant is the cone: a.(d - t(1, 1)) <= 0 at both dual
        # generators a, d = eta - gains, so t is the larger d1 + (d0 - d1) a0 / a.(1, 1).
        # d0 and d1 are views of a fresh array, so the gap and its scalings
        # reuse them: three rows per selection at most, not six.
        d0, d1 = _moves(p, eta)
        gap = np.subtract(d0, d1, out=d0)
        w1, w2 = (a[0] / a.sum() for a in (p.cone.a1, p.cone.a2))
        t = gap * w1
        np.maximum(t, np.multiply(gap, w2, out=gap), out=t)
        t += d1
        return t

    def outer_cuts(self, p, risk_spec, n_dirs):
        """Exact pair of dual cuts along the exchange-cone dual generators."""
        dirs = np.array([p.cone.a1, p.cone.a2], dtype=float)
        return dirs, _support_cuts(p, risk_spec, dirs)


class _RandomHalfplane(PortfolioKind):
    strategies = (_IDENTITY, {"strategy": "frictionless"}, {"strategy": "axis-transfer"})

    def validate(self, p):
        p.ensemble.require_rates()

    def support(self, p, U, base, at):
        pi = p.ensemble.rates[at]
        # u must be parallel to the scenario's dual ray (pi, 1).
        misalign = np.abs(U[:, :1] - pi * U[:, 1:])
        scale = np.maximum(1.0, np.max(np.abs(U), axis=1))
        ok = misalign <= TOL * np.maximum(1.0, np.abs(pi)) * scale[:, None]
        base[~ok] = np.inf
        return base

    def parse(self, block, ensemble):
        return SetPortfolio.random_halfplane(ensemble)

    def excess(self, p, eta):
        # Below the exchange line through the gains.
        d0, d1 = _moves(p, eta)
        return (p.ensemble.rates * d0 + d1) / (p.ensemble.rates + 1.0)

    def recession(self, p, risk_spec):
        rates = WeightedSample(p.ensemble.require_rates(), p.ensemble.weights)
        return tail_slope_cone(rates, risk_spec.level)

    def risk_rule(self, risk_spec):
        if risk_spec.kind != ES or risk_spec.level is None or risk_spec.level > 0.5:
            raise ValidationError(
                "random exchange-line portfolios need expected-shortfall "
                "risk at a level in (0, 1/2]"
            )

    def outer_cuts(self, p, risk_spec, n_dirs):
        """Dual cuts from the scenario reweightings zeta = 1, 1/pi, pi, 1/pi**2.

        Each yields the cut <x, (E[zeta*pi], E[zeta])> >= -E[zeta*(pi*X1 + X2)]
        if both zeta*pi and zeta, normalised to unit mean, stay below 1/level:
        then each is a valid tail density and the bound follows from the scalar
        dual representation.  With no admissible weight the region is the
        whole plane."""
        E = p.ensemble
        pi, w = E.rates, E.weights
        live = w > 0
        alpha = risk_spec.level
        slack = 1.0 + 1e-9
        exposure = pi * E.gains[:, 0] + E.gains[:, 1]
        dirs, offsets = [], []
        for zeta in (np.ones_like(pi), 1.0 / pi, pi, pi**-2):
            mean_zpi = -neg_expectation(WeightedSample(zeta * pi, w))
            mean_z = -neg_expectation(WeightedSample(zeta, w))
            sup_zpi = float(np.max((zeta * pi)[live]))
            sup_z = float(np.max(zeta[live]))
            if sup_zpi <= mean_zpi / alpha * slack and sup_z <= mean_z / alpha * slack:
                dirs.append((mean_zpi, mean_z))
                offsets.append(neg_expectation(WeightedSample(zeta * exposure, w)))
        if not dirs:
            raise WholePlaneError(
                "no admissible dual certificate at this level; outer bound is the whole plane"
            )
        return np.asarray(dirs, dtype=float), offsets


class _LiquidityCapped(PortfolioKind):
    fields = ("cap",)
    strategies = (_IDENTITY, {"strategy": "liquidity-family"})

    def validate(self, p):
        p.ensemble.require_rates()
        cap = (1.0, 1.0) if p.cap is None else p.cap
        if np.ndim(cap) != 1 or len(cap) != 2:
            raise ValidationError("liquidity cap must be a positive 2-vector")
        cap = np.array([_real(c, "liquidity cap") for c in cap])
        if not (np.all(cap > 0) and np.all(np.isfinite(cap))):
            raise ValidationError("liquidity cap must be a positive finite 2-vector")
        object.__setattr__(p, "cap", cap)
        cap.setflags(write=False)

    def support(self, p, U, base, at):
        pi = p.ensemble.rates[at]
        u0, u1 = U[:, :1], U[:, 1:]
        # max(cap0 * (u0 - pi * u1), cap1 * (u1 - u0 / pi)), each term
        # written into one scratch array.
        first = np.multiply(pi, u1, out=np.empty_like(base))
        np.subtract(u0, first, out=first)
        first *= p.cap[0]
        second = np.divide(u0, pi, out=np.empty_like(base))
        np.subtract(u1, second, out=second)
        second *= p.cap[1]
        base += np.maximum(first, second, out=first)
        return base

    def reach(self, p):
        # The attainable set is the segment from x + cap0*(1, -pi) to
        # x + cap1*(-1/pi, 1), which holds x.
        (x0, x1), pi, (c0, c1) = p.ensemble.gains.T, p.ensemble.rates, p.cap
        return np.maximum(np.hypot(x0 + c0, x1 - c0 * pi), np.hypot(x0 - c1 / pi, x1 + c1))

    def parse(self, block, ensemble):
        return SetPortfolio.liquidity_capped(ensemble, cap=block.pop("cap", (1.0, 1.0)))

    def excess(self, p, eta):
        # The segment less the quadrant: below the exchange line and gains + cap.
        d0, d1 = _moves(p, eta)
        t = (p.ensemble.rates * d0 + d1) / (p.ensemble.rates + 1.0)
        return np.maximum(np.maximum(t, d0 - p.cap[0], out=t), d1 - p.cap[1], out=t)


class _Ball(PortfolioKind):
    fields = ("radius",)
    strategies = (_IDENTITY, {"strategy": "ball-boost"})

    def validate(self, p):
        radius = _real(p.radius, "radius")
        if not (radius > 0 and math.isfinite(radius)):
            raise ValidationError("ball portfolios need a positive finite radius")
        object.__setattr__(p, "radius", radius)

    def support(self, p, U, base, at):
        base += (p.radius * np.hypot(U[:, 0], U[:, 1]))[:, None]
        return base

    def reach(self, p):
        x = p.ensemble.gains
        return np.hypot(x[:, 0], x[:, 1]) + p.radius

    def parse(self, block, ensemble):
        return SetPortfolio.ball(ensemble, radius=block.pop("radius"))

    def excess(self, p, eta):
        # With hi >= lo the entries of d = eta - gains and g = hi - lo, the least
        # t puts hi - t at r while g >= r, and (hi - t, lo - t) on the circle else.
        d0, d1 = _moves(p, eta)
        r = p.radius
        hi, lo = np.maximum(d0, d1), np.minimum(d0, d1)
        g = hi - lo
        arc = r * np.sqrt(2.0 - (np.minimum(g, r) / r) ** 2)
        return np.where(g >= r, hi - r, lo + (g - arc) / 2.0)


class _SegmentHull(PortfolioKind):
    fields = ("extra_gains",)
    strategies = (_IDENTITY, {"strategy": "segment-vertices"})

    def validate(self, p):
        # Row-major, as the gains: gathered rows then round as whole ones.
        extras = tuple(np.ascontiguousarray(_reals(g, "extra gains")) for g in p.extra_gains)
        if not extras:
            raise ValidationError("segment-hull portfolios need extra vertices")
        for g in extras:
            if g.shape != p.ensemble.gains.shape:
                raise ValidationError("extra gain matrices must match gains")
            if not np.all(np.isfinite(g)):
                raise ValidationError("extra gain matrices contain non-finite entries")
            g.setflags(write=False)
        object.__setattr__(p, "extra_gains", extras)

    def support(self, p, U, base, at):
        extras = [g[at] for g in p.extra_gains]
        other = np.empty(base.shape[1])
        for u, row in zip(U, base):
            for g in extras:
                np.maximum(row, np.matmul(g, u, out=other), out=row)
        return base

    def reach(self, p):
        # The attainable set is the hull of the gains and the extra gains.
        vertices = (p.ensemble.gains,) + p.extra_gains
        return np.max([np.hypot(g[:, 0], g[:, 1]) for g in vertices], axis=0)

    def parse(self, block, ensemble):
        if "extra" not in block:
            extra_gains = block.pop("extra_gains")
        elif block.pop("extra") == "mirror":
            extra_gains = [ensemble.gains[:, ::-1]]
        else:
            raise ValidationError('"extra" must be "mirror"; give other vertices as "extra_gains"')
        return SetPortfolio.segment_hull(ensemble, extra_gains)

    def excess(self, p, eta):
        # Less the quadrant, the hull is the union of the segments between its vertices.
        pairs = itertools.combinations((p.ensemble.gains,) + p.extra_gains, 2)
        return np.min([_segment_excess(*np.moveaxis(eta - v, -1, 0), *(w - v).T)
                       for v, w in pairs], axis=0)


def _moves(p, eta):
    """The moves eta - gains of (..., n, 2) positions, as (..., n) per asset."""
    d = np.swapaxes(eta, -1, -2) - p.ensemble.gains.T
    return d[..., 0, :], d[..., 1, :]


def _segment_excess(d0, d1, s0, s1):
    """Excess over the segment from 0 to (s0, s1), less the quadrant, of the
    moves (d0, d1): min over l in [0, 1] of max(d0 - l s0, d1 - l s1), which
    is attained at an end or where the two terms cross."""
    num, den = d0 - d1, s0 - s1
    cross = np.divide(num, den, out=np.zeros_like(num), where=np.abs(num) < np.abs(den))
    ends = [np.maximum(d0 - lam * s0, d1 - lam * s1) for lam in (0.0, 1.0, np.maximum(cross, 0))]
    return np.min(ends, axis=0)


KINDS = {
    CONE_DET: _ConeDet(),
    CONE_HALFPLANE_RANDOM: _RandomHalfplane(),
    LIQUIDITY_CAPPED: _LiquidityCapped(),
    BALL: _Ball(),
    SEGMENT_HULL: _SegmentHull(),
}
