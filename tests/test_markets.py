import math

import numpy as np
import pytest

from svrisk import markets
from svrisk.errors import ValidationError
from svrisk.geom2d import TOL, ConvexCone2D, _unit
from svrisk.markets import (
    BALL,
    CONE_DET,
    CONE_HALFPLANE_RANDOM,
    KINDS,
    LIQUIDITY_CAPPED,
    SEGMENT_HULL,
    ExchangeCone2D,
    ScenarioEnsemble,
    SetPortfolio,
    direction_grid,
    dual_cone,
    solvency_cone,
)
from svrisk.riskstats import ES, RiskSpec


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def one_scenario(x1, x2, rate=None):
    rates = None if rate is None else np.array([rate], dtype=float)
    return ScenarioEnsemble(np.array([[x1, x2]], dtype=float), rates=rates)


class TestExchangeCone2D:
    def test_generator_pins(self):
        cone = ExchangeCone2D(5.0, 5.0)
        assert np.allclose(cone.b1, [1.0, -5.0])
        assert np.allclose(cone.b2, [-5.0, 1.0])
        assert np.allclose(cone.a1, [5.0, 1.0])
        assert np.allclose(cone.a2, [1.0, 5.0])

    def test_duality_pairing(self):
        cone = ExchangeCone2D(3.0, 2.0)
        assert np.dot(cone.a1, cone.b1) == pytest.approx(0.0)
        assert np.dot(cone.a2, cone.b2) == pytest.approx(0.0)
        assert np.dot(cone.a1, cone.b2) <= 0
        assert np.dot(cone.a2, cone.b1) <= 0

    def test_frictionless_is_halfplane(self):
        cone = ExchangeCone2D.frictionless(1.5)
        assert solvency_cone(cone).is_halfplane
        assert cone.pi12 * cone.pi21 == pytest.approx(1.0)

    def test_round_trip_below_one_rejected(self):
        with pytest.raises(ValidationError):
            ExchangeCone2D(0.5, 1.0)

    def test_no_exchange_generators(self):
        cone = ExchangeCone2D.no_exchange()
        assert np.allclose(cone.b1, [0.0, -1.0])
        assert np.allclose(cone.b2, [-1.0, 0.0])
        assert np.allclose(cone.a1, [1.0, 0.0])
        assert np.allclose(cone.a2, [0.0, 1.0])
        assert not solvency_cone(cone).is_halfplane

    def test_membership(self):
        cone = ExchangeCone2D(5.0, 5.0)
        assert cone.contains((0.0, 0.0))
        assert cone.contains(cone.b1)
        assert cone.contains(cone.b2)
        assert cone.contains(0.3 * cone.b1 + 0.7 * cone.b2)
        assert not cone.contains((1.0, 1.0))
        assert cone.contains((-1.0, -1.0))


class TestDerivedCones:
    def test_dual_of_no_exchange_is_orthant(self):
        dual = dual_cone(ExchangeCone2D.no_exchange())
        assert dual.approx_equal(ConvexCone2D.nonneg_orthant())

    def test_dual_symmetric(self):
        dual = dual_cone(ExchangeCone2D(5.0, 5.0))
        assert dual.approx_equal(ConvexCone2D.from_rays((5.0, 1.0), (1.0, 5.0)))

    def test_dual_frictionless_is_ray(self):
        dual = dual_cone(ExchangeCone2D.frictionless(2.0))
        assert dual.is_ray
        assert dual.contains(np.array([2.0, 1.0]) / math.sqrt(5.0))

    def test_solvency_no_exchange_is_orthant(self):
        sol = solvency_cone(ExchangeCone2D.no_exchange())
        assert sol.approx_equal(ConvexCone2D.nonneg_orthant())

    def test_solvency_symmetric(self):
        sol = solvency_cone(ExchangeCone2D(5.0, 5.0))
        assert sol.approx_equal(ConvexCone2D.from_rays((5.0, -1.0), (-1.0, 5.0)))

    def test_solvency_frictionless_halfplane(self):
        sol = solvency_cone(ExchangeCone2D.frictionless(2.0))
        assert sol.is_halfplane
        assert sol.contains((1.0, -2.0))
        assert sol.contains((-1.0, 2.0))
        assert not sol.contains((-1.0, 1.9))

    def test_solvency_reflects_exchange_cone(self):
        cone = ExchangeCone2D(3.0, 4.0)
        sol = solvency_cone(cone)
        rng = np.random.default_rng(3)
        for _ in range(20):
            s, t = rng.random(2)
            trade = s * cone.b1 + t * cone.b2
            assert sol.contains(-trade)

    def test_dual_bipolarity(self):
        cone = ExchangeCone2D(2.0, 7.0)
        sol = solvency_cone(cone)
        again = sol.positive_dual().positive_dual()
        assert again.approx_equal(sol)
        # the positive dual of the solvency cone is the dual cone itself
        assert sol.positive_dual().approx_equal(dual_cone(cone))


class TestScenarioEnsemble:
    def test_uniform_weights_default(self):
        e = ScenarioEnsemble(np.zeros((4, 2)))
        assert np.allclose(e.weights, 0.25)
        assert e.n == 4

    def test_gains_must_be_planar(self):
        with pytest.raises(ValidationError):
            ScenarioEnsemble(np.zeros((4, 3)))

    def test_rates_shape_checked(self):
        with pytest.raises(ValidationError):
            ScenarioEnsemble(np.zeros((3, 2)), rates=np.ones(2))

    def test_rates_positive(self):
        with pytest.raises(ValidationError):
            ScenarioEnsemble(np.zeros((2, 2)), rates=np.array([1.0, 0.0]))

    def test_weight_sum_policy(self):
        ScenarioEnsemble(np.zeros((2, 2)), weights=np.array([0.5, 0.5 + 4e-10]))
        with pytest.raises(ValidationError):
            ScenarioEnsemble(np.zeros((2, 2)), weights=np.array([0.5, 0.6]))

    def test_require_rates(self):
        e = ScenarioEnsemble(np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            e.require_rates()

    def test_callers_arrays_stay_writable_and_apart(self):
        gains, rates, weights = np.ones((3, 2)), np.ones(3), np.full(3, 1.0 / 3.0)
        base = np.zeros((3, 4))
        e = ScenarioEnsemble(base[:, 1:3], rates=rates, weights=weights)
        f = ScenarioEnsemble(gains, rates=rates, weights=weights)
        for a in (gains, rates, weights, base):
            assert a.flags.writeable
            a[0] = 123.0
        assert e.gains[0, 0] == 0.0 and f.gains[0, 0] == 1.0
        assert e.rates[0] == f.rates[0] == 1.0
        assert e.weights[0] == f.weights[0] == 1.0 / 3.0
        for a in (f.gains, f.rates, f.weights):
            assert not a.flags.writeable

    def test_gains_are_row_major(self):
        # Support rows of a gathered subset round as whole rows only when the
        # gains and extra gains are laid out alike.
        gains = np.asfortranarray(np.random.default_rng(3).standard_normal((5, 2)))
        e = ScenarioEnsemble(gains)
        assert e.gains.flags.c_contiguous and np.array_equal(e.gains, gains)
        p = SetPortfolio.segment_hull(e, [gains[:, ::-1]])
        assert p.extra_gains[0].flags.c_contiguous


class TestSetPortfolioValidation:
    def test_cone_required(self):
        with pytest.raises(ValidationError):
            SetPortfolio(CONE_DET, one_scenario(0.0, 0.0))

    def test_rates_required_for_random(self):
        with pytest.raises(ValidationError):
            SetPortfolio(CONE_HALFPLANE_RANDOM, one_scenario(0.0, 0.0))

    def test_radius_positive(self):
        with pytest.raises(ValidationError):
            SetPortfolio(BALL, one_scenario(0.0, 0.0), radius=0.0)

    def test_cap_positive(self):
        with pytest.raises(ValidationError):
            SetPortfolio(
                LIQUIDITY_CAPPED, one_scenario(0.0, 0.0, rate=2.0), cap=(1.0, 0.0)
            )

    def test_segment_needs_extras(self):
        with pytest.raises(ValidationError):
            SetPortfolio(SEGMENT_HULL, one_scenario(0.0, 0.0))

    def test_segment_extras_shape(self):
        with pytest.raises(ValidationError):
            SetPortfolio(
                SEGMENT_HULL,
                one_scenario(0.0, 0.0),
                extra_gains=(np.zeros((2, 2)),),
            )

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            SetPortfolio("swap", one_scenario(0.0, 0.0))

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_foreign_field_refused(self, kind):
        e = one_scenario(1.0, -1.0, rate=2.0)
        fields = {"cone": ExchangeCone2D(2.0, 2.0), "radius": 1.0, "cap": (1.0, 1.0),
                  "extra_gains": (np.zeros((1, 2)),)}
        own = {name: fields[name] for name in KINDS[kind].fields}
        SetPortfolio(kind, e, **own)
        for name in sorted(set(fields) - set(own)):
            with pytest.raises(ValidationError, match=f"{kind} portfolios take no {name}"):
                SetPortfolio(kind, e, **own, **{name: fields[name]})


def reference_support(p, u):
    """Support values at one direction by the per-direction formulas."""
    u = np.asarray(u, dtype=float)
    base = p.ensemble.gains @ u
    pi = p.ensemble.rates
    if p.kind == CONE_DET:
        if dual_cone(p.cone).contains(_unit(u)):
            return base
        return np.full(p.ensemble.n, np.inf)
    if p.kind == CONE_HALFPLANE_RANDOM:
        misalign = np.abs(u[0] - pi * u[1])
        scale = max(1.0, float(np.max(np.abs(u))))
        return np.where(misalign <= TOL * np.maximum(1.0, np.abs(pi)) * scale, base, np.inf)
    if p.kind == LIQUIDITY_CAPPED:
        return base + np.maximum(p.cap[0] * (u[0] - pi * u[1]), p.cap[1] * (u[1] - u[0] / pi))
    if p.kind == BALL:
        return base + p.radius * float(np.hypot(u[0], u[1]))
    return np.max(np.stack([base] + [g @ u for g in p.extra_gains]), axis=0)


def support_cases():
    rng = np.random.default_rng(12)
    n = 40
    gains = rng.standard_normal((n, 2))
    gains[:4] = [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [1.0, -0.0]]
    rates = rng.uniform(0.5, 2.0, n)
    # Rates whose dual ray lies on the 181-direction fan, so the random
    # kind's support is finite on some scenarios there.
    rates[4:7] = 1.0 / np.tan(np.linspace(0.0, np.pi / 2.0, 181)[[30, 90, 150]])
    weights = rng.random(n)
    weights[7] = 0.0
    e = ScenarioEnsemble(gains, rates=rates, weights=weights / weights.sum())
    return {
        "cone-det": SetPortfolio.cone_det(e, ExchangeCone2D(2.0, 3.0)),
        "cone-det-frictionless": SetPortfolio.cone_det(e, ExchangeCone2D.frictionless(1.5)),
        "cone-det-no-exchange": SetPortfolio.cone_det(e, ExchangeCone2D.no_exchange()),
        "cone-halfplane-random": SetPortfolio.random_halfplane(e),
        "liquidity-capped": SetPortfolio.liquidity_capped(e, cap=(0.8, 1.2)),
        "ball": SetPortfolio.ball(e, radius=0.7),
        "segment-hull": SetPortfolio.segment_hull(e, [gains[:, ::-1], -0.5 * gains]),
        # Extra vertices inside the gains' circle: the gains set the reach.
        "segment-hull-inner": SetPortfolio.segment_hull(e, [0.25 * gains[:, ::-1]]),
    }


class TestSupportRows:
    @pytest.mark.parametrize("case", sorted(support_cases()))
    def test_rows_match_per_direction_formulas_bit_for_bit(self, case):
        p = support_cases()[case]
        fan = direction_grid(181)
        U = np.vstack([fan, 2.5 * fan[::7]] + p.definition.exact_dirs(p))
        if p.cone is not None:
            U = np.vstack([U, [p.cone.a1, p.cone.a2]])
        rows = p.support_values(U)
        expected = np.stack([reference_support(p, u) for u in U])
        assert rows.shape == expected.shape
        assert np.array_equal(rows.view(np.int64), expected.view(np.int64))
        # Without exchange the dual cone is the whole first quadrant.
        bounded = ("cone-det", "cone-det-frictionless", "cone-halfplane-random")
        assert np.isinf(rows).any() == (case in bounded)
        for k in (0, 90, len(U) - 1):
            assert np.array_equal(p.support_values(U[k]).view(np.int64), rows[k].view(np.int64))

    def test_liquidity_rows_keep_their_bits_on_extreme_rates(self):
        # Tiny, huge and unit rates, against the one-expression formula.
        rng = np.random.default_rng(21)
        n = 200
        rates = 10.0 ** rng.uniform(-150.0, 150.0, n)
        rates[:20] = 1.0
        rates[20:30] = 10.0 ** rng.uniform(-300.0, -290.0, 10)
        rates[30:40] = 10.0 ** rng.uniform(290.0, 300.0, 10)
        gains = rng.standard_normal((n, 2)) * 10.0 ** rng.uniform(-5.0, 5.0, (n, 1))
        e = ScenarioEnsemble(gains, rates=rates)
        fan = direction_grid(37)
        U = np.vstack([fan, 2.5 * fan[::5], [[0.0, 1e-3], [1e3, 0.0]]])
        for cap in [(1.0, 1.0), (0.3, 7.0), (1e-3, 1e3)]:
            p = SetPortfolio.liquidity_capped(e, cap=cap)
            rows = p.support_values(U)
            expected = np.stack([reference_support(p, u) for u in U])
            assert np.array_equal(rows.view(np.int64), expected.view(np.int64))

    def test_fan_matches_scalar_cos_sin_bit_for_bit(self):
        # The support grid and the audit share this fan, so it must not
        # depend on whether cos and sin run per angle or on the whole array.
        for n in (2, 64, 181):
            angles = np.linspace(0.0, np.pi / 2.0, n)
            scalar = np.array([[np.cos(a), np.sin(a)] for a in angles])
            assert direction_grid(n).tobytes() == scalar.tobytes()

    def test_block_of_directions_validated(self):
        p = SetPortfolio.ball(one_scenario(0.0, 0.0), radius=1.0)
        with pytest.raises(ValidationError, match="non-zero"):
            p.support_values([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="u >= 0"):
            p.support_values([[1.0, 0.0], [0.5, -0.5]])
        with pytest.raises(ValidationError, match=r"\(k, 2\)"):
            p.support_values([[1.0, 0.0, 0.0]])
        with pytest.raises(ValidationError, match="2-vector"):
            p.support_values([1.0, 0.0, 0.0])
        assert p.support_values(np.zeros((0, 2))).shape == (0, 1)


class TestSupportValues:
    def test_ball_unit(self):
        p = SetPortfolio.ball(one_scenario(0.0, 0.0), radius=1.0)
        assert p.support_values((1.0, 0.0))[0] == pytest.approx(1.0)
        assert p.support_values((3.0, 4.0))[0] == pytest.approx(5.0)

    def test_cone_det_on_dual_ray(self):
        cone = ExchangeCone2D(5.0, 5.0)
        p = SetPortfolio.cone_det(one_scenario(-2.0, 4.0), cone)
        assert p.support_values((1.0, 5.0))[0] == pytest.approx(18.0)

    def test_cone_det_outside_dual_is_inf(self):
        cone = ExchangeCone2D(5.0, 5.0)
        p = SetPortfolio.cone_det(one_scenario(-2.0, 4.0), cone)
        assert p.support_values((1.0, 0.0))[0] == math.inf

    def test_negative_direction_rejected(self):
        p = SetPortfolio.ball(one_scenario(0.0, 0.0), radius=1.0)
        with pytest.raises(ValidationError):
            p.support_values((1.0, -1.0))
        with pytest.raises(ValidationError):
            p.support_values((0.0, 0.0))

    def test_liquidity_midpoint(self):
        p = SetPortfolio.liquidity_capped(one_scenario(0.0, 0.0, rate=2.0))
        assert p.support_values((1.0, 1.0))[0] == pytest.approx(0.5)

    def test_liquidity_bounded_by_conical_support(self):
        rng = np.random.default_rng(8)
        gains = rng.standard_normal((5, 2))
        rates = rng.uniform(0.5, 2.0, 5)
        liq = SetPortfolio.liquidity_capped(
            ScenarioEnsemble(gains, rates=rates), cap=(0.7, 1.3)
        )
        for _ in range(20):
            u = rng.random(2) + 1e-3
            h_liq = liq.support_values(u)
            base = gains @ u
            assert np.all(h_liq >= base - 1e-12)
            assert np.all(np.isfinite(h_liq))

    def test_random_halfplane_only_on_scenario_ray(self):
        e = ScenarioEnsemble(
            np.array([[1.0, 1.0], [2.0, 0.0]]), rates=np.array([2.0, 0.5])
        )
        p = SetPortfolio.random_halfplane(e)
        vals = p.support_values(np.array([2.0, 1.0]))
        assert vals[0] == pytest.approx(3.0)
        assert vals[1] == math.inf

    def test_segment_hull_max(self):
        e = one_scenario(0.0, 0.0)
        p = SetPortfolio.segment_hull(e, [np.array([[1.0, -1.0]])])
        assert p.support_values((1.0, 0.0))[0] == pytest.approx(1.0)
        assert p.support_values((0.0, 1.0))[0] == pytest.approx(0.0)

    def test_support_subadditive_homogeneous_in_u(self):
        rng = np.random.default_rng(9)
        e = ScenarioEnsemble(rng.standard_normal((4, 2)), rates=rng.uniform(0.5, 2, 4))
        for p in (
            SetPortfolio.ball(e, radius=0.8),
            SetPortfolio.liquidity_capped(e, cap=(0.5, 2.0)),
        ):
            for _ in range(20):
                u = rng.random(2) + 1e-3
                v = rng.random(2) + 1e-3
                lam = rng.uniform(0.1, 3.0)
                assert np.allclose(
                    p.support_values(lam * u), lam * p.support_values(u)
                )
                assert np.all(
                    p.support_values(u + v)
                    <= p.support_values(u) + p.support_values(v) + 1e-9
                )


class TestReach:
    def test_bounded_kinds_of_the_support_grid_define_reach(self):
        # A kind whose outer cuts are the support grid builds only the rows
        # that can reach the tail when it defines a reach; a new bounded kind
        # without one would silently build every row.
        grid = markets.PortfolioKind.outer_cuts
        for name, kind in KINDS.items():
            if type(kind).outer_cuts is grid:
                assert type(kind).reach is not markets.PortfolioKind.reach, name

    @pytest.mark.parametrize("case", sorted(support_cases()))
    def test_reach_bounds_every_support_value(self, case):
        p = support_cases()[case]
        reach = p.definition.reach(p)
        if reach is None:
            assert case.startswith("cone-")
            return
        U = np.vstack([direction_grid(181), 3.0 * np.random.default_rng(4).random((50, 2))])
        rows = p.support_values(U)
        norms = np.hypot(U[:, 0], U[:, 1])[:, None]
        assert reach.shape == (p.ensemble.n,)
        assert np.all(np.abs(rows) <= reach * norms * (1 + 1e-12))


def with_rays(U, X, east, north, step):
    """U and X with every third scenario from the second moved to ``east``
    (the set's point furthest along asset 1) less ``step`` of asset 2, at
    (1, 0), and every third from the third to ``north`` less ``step`` of
    asset 1, at (0, 1): points on the two rays of the set less the quadrant."""
    U, X, which = U.copy(), X.copy(), np.arange(len(X)) % 3
    U[which == 1], X[which == 1] = (1.0, 0.0), (east - step * (0.0, 1.0))[which == 1]
    U[which == 2], X[which == 2] = (0.0, 1.0), (north - step * (1.0, 0.0))[which == 2]
    return U, X


def excess_cases():
    """(portfolio, U, X) per case: for each scenario, a direction U and a
    point X of its set less the quadrant whose value at U is the support
    there."""
    rng = np.random.default_rng(23)
    n = 60
    gains = rng.standard_normal((n, 2)) * 2.0
    rates = rng.uniform(0.4, 2.5, n)
    e = ScenarioEnsemble(gains, rates=rates)
    lam = rng.uniform(0.0, 1.0, (n, 1))
    theta = rng.uniform(0.05, np.pi / 2.0 - 0.05, n)
    up = np.column_stack([np.cos(theta), np.sin(theta)])
    cases = {}
    for name, cone in [("cone-det", ExchangeCone2D(2.0, 3.0)),
                       ("cone-det-no-exchange", ExchangeCone2D.no_exchange())]:
        # Along a generator of the cone, at its paired dual generator.
        first = lam < 0.5
        cases[name] = (SetPortfolio.cone_det(e, cone), np.where(first, cone.a1, cone.a2),
                       gains + 3.0 * lam * np.where(first, cone.b1, cone.b2))
    line = np.column_stack([np.ones(n), -rates])
    dual = np.column_stack([rates, np.ones(n)])
    cases["cone-halfplane-random"] = (
        SetPortfolio.random_halfplane(e), dual, gains + (4.0 * lam - 2.0) * line)
    cap = (0.8, 1.2)
    ends = gains + cap[0] * line, gains - cap[1] / rates[:, None] * line
    cases["liquidity-capped"] = (
        SetPortfolio.liquidity_capped(e, cap=cap),
        *with_rays(dual, gains + (lam * cap[0] - (1.0 - lam) * cap[1] / rates[:, None]) * line,
                   *ends, 3.0 * lam))
    cases["ball"] = (SetPortfolio.ball(e, radius=0.7),
                     *with_rays(up, gains + 0.7 * up, gains + (0.7, 0.0), gains + (0.0, 0.7),
                                3.0 * lam))
    # Inside the mirror segment, whose normal is (1, 1).
    mirror = gains[:, ::-1]
    cases["segment-hull"] = (SetPortfolio.segment_hull(e, [mirror]), np.ones((n, 2)),
                             lam * gains + (1.0 - lam) * mirror)
    extras = [mirror, 0.5 * gains + 1.0]
    vertices = np.stack([gains] + extras)
    top = [vertices[np.argmax((vertices * u).sum(axis=2), axis=0), np.arange(n)]
           for u in (up, (1.0, 0.0), (0.0, 1.0))]
    cases["segment-hull-vertices"] = (SetPortfolio.segment_hull(e, extras),
                                      *with_rays(up, *top, 3.0 * lam))
    return cases


class TestExcess:
    @pytest.mark.parametrize("case", sorted(excess_cases()))
    def test_boundary_points_have_excess_zero_and_shifts_their_size(self, case):
        p, U, X = excess_cases()[case]
        scale = 1.0 + np.abs(X).max()
        h = np.diagonal(p.support_values(U))
        assert np.abs((U * X).sum(axis=1) - h).max() <= 1e-12 * scale * np.abs(U).max()
        # X lies on the boundary of the set less the quadrant, so moving it
        # by t * (1, 1) takes t in cash to undo.
        shifts = np.array([0.0, 0.3, -0.4, 2.5])
        got = p.definition.excess(p, X + shifts[:, None, None])
        assert np.abs(got - shifts[:, None]).max() <= 1e-12 * scale, case
        for t, row in zip(shifts, got):
            assert same_bits(p.definition.excess(p, X + t), row), case

    def test_every_kind_defines_excess(self):
        for name, kind in KINDS.items():
            assert "excess" in type(kind).__dict__, name


PRUNED_KINDS = {
    "ball": lambda e: SetPortfolio.ball(e, radius=0.7),
    "liquidity-capped": lambda e: SetPortfolio.liquidity_capped(e, cap=(0.8, 1.2)),
    "segment-hull": lambda e: SetPortfolio.segment_hull(e, [e.gains[:, ::-1], -0.5 * e.gains]),
}


def grid_ensemble(n, seed=5, scale=1.0, ties=False, weights=None):
    rng = np.random.default_rng(seed)
    gains = scale * rng.standard_normal((n, 2)) * (1.0, 1.3)
    rates = rng.lognormal(np.log(1.5), 0.3, n)
    if ties:
        gains, rates = np.repeat(gains[::4], 4, axis=0)[:n], np.repeat(rates[::4], 4)[:n]
    return ScenarioEnsemble(gains, rates=rates, weights=weights)


class TestPrunedSupportGrid:
    """The support grid builds rows only where they can reach the ES tail,
    and gives every offset the bits of whole rows."""

    @staticmethod
    def cuts(monkeypatch, p, spec, whole=False):
        # The cuts of the 181-direction grid and the number of support values
        # the kind computed for them.
        counted = []
        kind = type(p.definition)
        support = kind.support

        def counting(self, p, U, base, at):
            counted.append(base.size)
            return support(self, p, U, base, at)

        with monkeypatch.context() as m:
            m.setattr(kind, "support", counting)
            if whole:
                m.setattr(markets, "PRUNE_MIN_N", np.inf)
            dirs, offsets = markets._support_cuts(p, spec, direction_grid(181))
        return dirs, np.asarray(offsets), sum(counted)

    def assert_whole_bits(self, monkeypatch, p, spec):
        dirs, offsets, values = self.cuts(monkeypatch, p, spec)
        whole_dirs, whole, whole_values = self.cuts(monkeypatch, p, spec, whole=True)
        assert whole_values == 181 * p.ensemble.n
        assert np.array_equal(dirs, whole_dirs)
        assert np.array_equal(offsets.view(np.int64), whole.view(np.int64))
        return values / whole_values

    @pytest.mark.parametrize("level", [0.01, 0.05, 0.25, 0.45])
    @pytest.mark.parametrize("kind", sorted(PRUNED_KINDS))
    def test_bits_at_the_threshold(self, monkeypatch, kind, level):
        spec = RiskSpec(ES, level)
        for n in (markets.PRUNE_MIN_N - 1, markets.PRUNE_MIN_N):
            p = PRUNED_KINDS[kind](grid_ensemble(n))
            share = self.assert_whole_bits(monkeypatch, p, spec)
            assert (share < 1) == (n >= markets.PRUNE_MIN_N and level <= markets.PRUNE_MAX_TAIL)

    @pytest.mark.parametrize("level", [0.01, 0.25])
    @pytest.mark.parametrize("kind", sorted(PRUNED_KINDS))
    def test_bits_on_large_rows(self, monkeypatch, kind, level):
        p = PRUNED_KINDS[kind](grid_ensemble(30_000, seed=6))
        assert self.assert_whole_bits(monkeypatch, p, RiskSpec(ES, level)) < 1

    @pytest.mark.parametrize("kind", sorted(PRUNED_KINDS))
    def test_bits_with_ties_and_large_gains(self, monkeypatch, kind):
        spec = RiskSpec(ES, 0.05)
        for e in (grid_ensemble(6000, ties=True), grid_ensemble(6000, scale=1e6)):
            assert self.assert_whole_bits(monkeypatch, PRUNED_KINDS[kind](e), spec) < 0.5

    @pytest.mark.parametrize(
        "groups",
        [
            # A slow tail near the origin, and movers just above it whose
            # gains lie far along the normal of u_a: they fall into the tail
            # within the group's width, so their rows are built only if a
            # support may drop by its whole reach times the distance to u_a.
            [(300, 0.0, 0.25, 0.0), (10, 0.45, 0.6, 5.0), (10, 0.45, 0.6, -5.0)],
            # A tail that rises by its reach times the distance, so that
            # stationary scenarios above it enter the tail: they are kept
            # only if tau adds the tail's reach times the distance too.
            [(260, 0.0, 0.25, 5.0), (100, 0.25, 1.0, 0.0)],
        ],
    )
    def test_bits_where_the_bound_is_tight(self, monkeypatch, groups):
        # Groups of scenarios at s*u_a + t*normal(u_a), s uniform in
        # [low, high], u_a the first group's middle direction; the rest sit
        # far along u_a.
        n = markets.PRUNE_MIN_N
        u = direction_grid(181)[markets.PRUNE_GROUP // 2]
        normal = np.array([-u[1], u[0]])
        rng = np.random.default_rng(8)
        gains = [s * u + t * normal for k, low, high, t in groups
                 for s in rng.uniform(low, high, (k, 1))]
        gains = np.vstack(gains + [np.tile(100.0 * u, (n - len(gains), 1))])
        p = SetPortfolio.ball(ScenarioEnsemble(gains + 1e-3 * rng.standard_normal((n, 2))), 1e-3)
        assert self.assert_whole_bits(monkeypatch, p, RiskSpec(ES, 0.05)) < 0.5

    def test_computes_a_quarter_of_the_values(self, monkeypatch):
        # At the size of the benchmark's support grid.
        n = 50_000
        p = PRUNED_KINDS["ball"](grid_ensemble(n))
        _, _, values = self.cuts(monkeypatch, p, RiskSpec(ES, 0.05))
        assert values <= 0.25 * 183 * n

    def test_other_functionals_and_uneven_weights_build_whole_rows(self, monkeypatch):
        n = markets.PRUNE_MIN_N
        weights = np.random.default_rng(1).random(n)
        uneven = PRUNED_KINDS["ball"](grid_ensemble(n, weights=weights / weights.sum()))
        even = PRUNED_KINDS["ball"](grid_ensemble(n))
        for p, spec in ((uneven, RiskSpec(ES, 0.05)), (even, RiskSpec("neg-expectation"))):
            assert self.cuts(monkeypatch, p, spec)[2] == 181 * n

    def test_an_overflowing_reach_keeps_the_whole_rows_and_their_errors(self, monkeypatch):
        n = markets.PRUNE_MIN_N
        spec = RiskSpec(ES, 0.05)
        e = grid_ensemble(n)
        rates = e.rates.copy()
        rates[7] = 1e-308  # cap / rate overflows
        p = SetPortfolio.liquidity_capped(ScenarioEnsemble(e.gains, rates=rates), cap=(0.8, 2.0))
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(p.definition.reach(p)).all()
            assert self.assert_whole_bits(monkeypatch, p, spec) == 1
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError) as whole:
                self.cuts(monkeypatch, p, spec, whole=True)
            with pytest.raises(FloatingPointError) as pruned:
                self.cuts(monkeypatch, p, spec)
        assert str(pruned.value) == str(whole.value)
        # A finite reach whose multiples overflow builds whole rows too.
        huge = SetPortfolio.ball(e, radius=1e308)
        with np.errstate(over="raise"):
            assert self.assert_whole_bits(monkeypatch, huge, spec) == 1
