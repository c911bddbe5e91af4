import ast
import json
import math
import pathlib

import numpy as np
import pytest

from svrisk import markets, selections
from svrisk.bounds import (
    RiskBundle,
    compute_bundle,
    cone_risk_bounds,
    cone_risk_bounds_lognormal,
    gather_selections,
    inner_recession,
    inner_region,
    marginal_region,
    outer_region,
    outer_region_det_cone,
    risk_point,
    sandwich_violation,
    scalarize_bundle,
)
from svrisk.errors import ValidationError, WholePlaneError
from svrisk.geom2d import (
    ConvexCone2D,
    HalfSpaceSet,
    RiskRegion2D,
    canonical_json,
    hausdorff_on_window,
    region_from_halfspaces,
    region_from_points_plus_cone,
)
from svrisk.markets import (
    ExchangeCone2D,
    ScenarioEnsemble,
    SetPortfolio,
    direction_grid,
    dual_cone,
    solvency_cone,
)
from svrisk.riskstats import (
    ES,
    NEG_ESSINF,
    NEG_EXPECTATION,
    VAR,
    RiskSpec,
    WeightedSample,
    risk_rows,
)
from svrisk.scenarios import GenSpec, generate
from svrisk.selections import SelectionMatrix, audit_selection

NONMARGIN_GAINS = np.array([[-2.0, 4.0], [4.0, -2.0]])
NONMARGIN_CONE = ExchangeCone2D(5.0, 5.0)
NONMARGIN_SPEC = RiskSpec(ES, 0.75)
ES05 = RiskSpec(ES, 0.05)


def nonmargin_portfolio():
    return SetPortfolio.cone_det(ScenarioEnsemble(NONMARGIN_GAINS), NONMARGIN_CONE)


def nonmargin_strategies():
    eta1 = [[1.2, -6.0], [0.0, 0.0]]
    eta2 = [[0.0, 0.0], [-6.0, 1.2]]
    return [
        {"strategy": "explicit", "gains": (NONMARGIN_GAINS + eta1).tolist(), "label": "shift-1"},
        {"strategy": "explicit", "gains": (NONMARGIN_GAINS + eta2).tolist(), "label": "shift-2"},
        {"strategy": "corner-selections"},
    ]


def random_kind_portfolio(seed=1, n=60):
    rng = np.random.default_rng(seed)
    gains = rng.standard_normal((n, 2))
    rates = 1.5 * np.exp(0.4 * rng.standard_normal(n) - 0.08)
    return SetPortfolio.random_halfplane(ScenarioEnsemble(gains, rates=rates))


ALL_KIND_BUILDERS = {
    "cone-det": lambda e: SetPortfolio.cone_det(e, ExchangeCone2D(2.0, 3.0)),
    "cone-halfplane-random": SetPortfolio.random_halfplane,
    "liquidity-capped": lambda e: SetPortfolio.liquidity_capped(e, cap=(0.8, 1.2)),
    "ball": lambda e: SetPortfolio.ball(e, radius=0.7),
    "segment-hull": lambda e: SetPortfolio.segment_hull(
        e, [e.gains + np.array([0.5, -0.25])]
    ),
}


def ensemble_for_kinds(seed=2, n=50):
    rng = np.random.default_rng(seed)
    gains = rng.standard_normal((n, 2))
    rates = np.exp(0.3 * rng.standard_normal(n) - 0.045)
    return ScenarioEnsemble(gains, rates=rates)


class TestBasics:
    def test_risk_point_columns(self):
        w = np.array([0.5, 0.5])
        p = risk_point(NONMARGIN_GAINS, w, NONMARGIN_SPEC)
        assert np.allclose(p, [0.0, 0.0], atol=1e-12)

    def test_regulator_region(self):
        # without exchange the regulator's region is the risk point plus the
        # non-negative quadrant
        p = SetPortfolio.ball(ScenarioEnsemble(NONMARGIN_GAINS), radius=1.0)
        r = marginal_region(p, NONMARGIN_SPEC)
        assert np.allclose(r.vertices, [[0.0, 0.0]], atol=1e-12)
        assert r.recession.approx_equal(ConvexCone2D.nonneg_orthant())

    def test_direction_grid(self):
        dirs = direction_grid(5)
        assert dirs.shape == (5, 2)
        assert np.allclose(dirs[0], [1.0, 0.0])
        assert np.allclose(dirs[-1], [0.0, 1.0])
        assert np.allclose(np.hypot(dirs[:, 0], dirs[:, 1]), 1.0)
        with pytest.raises(ValidationError):
            direction_grid(1)

    def test_gather_selections_dedupes_identity(self):
        p = nonmargin_portfolio()
        sels = gather_selections(p, NONMARGIN_SPEC, strategies=[{"strategy": "identity"}])
        assert len(sels) == 1 and sels[0].label == "identity"


class TestInnerRegion:
    def test_nonmargin_hull(self):
        p = nonmargin_portfolio()
        r = inner_region(p, NONMARGIN_SPEC, strategies=nonmargin_strategies())
        for pt in [(-0.8, 2.0), (2.0, -0.8), (0.0, 0.0)]:
            assert r.contains(pt)
        # hull vertices sit exactly on the compensated risk points
        assert np.allclose(r.vertices[0], [2.0, -0.8], atol=1e-12)
        assert np.allclose(r.vertices[-1], [-0.8, 2.0], atol=1e-12)
        assert not r.contains((-0.8 - 1e-6, 2.0 - 1e-6))
        assert r.recession.approx_equal(solvency_cone(NONMARGIN_CONE))

    def test_constant_portfolio_needs_no_trade(self):
        e = ScenarioEnsemble(np.tile([1.0, -2.0], (4, 1)))
        p = SetPortfolio.cone_det(e, NONMARGIN_CONE)
        r = inner_region(p, RiskSpec(ES, 0.5))
        assert np.allclose(r.vertices, [[-1.0, 2.0]], atol=1e-12)
        assert r.recession.approx_equal(solvency_cone(NONMARGIN_CONE))

    def test_audit_rejects_invalid_explicit_selection(self):
        p = nonmargin_portfolio()
        cheat = [{"strategy": "explicit", "gains": (NONMARGIN_GAINS + 1.0).tolist()}]
        with pytest.raises(ValidationError, match="leaves the portfolio \\(excess"):
            inner_region(p, NONMARGIN_SPEC, strategies=cheat, audit=True)
        inner_region(p, NONMARGIN_SPEC, strategies=nonmargin_strategies(), audit=True)

    @pytest.mark.parametrize("kind", ["ball", "segment-hull"])
    def test_audit_refuses_selections_just_outside(self, kind):
        # Outside along (1, 1), the normal of the ball there and of the
        # mirror segment: by 7e-5 beyond the unit ball, or by 0.3% of
        # |x1 - x2| above the segment's midpoint.  The audit, not the
        # nesting check, refuses them, by name.
        e = generate(GenSpec(n=200, seed=1, correlation=-0.5))
        x = e.gains
        if kind == "ball":
            p = SetPortfolio.ball(e, radius=1.0)
            gains = x + (1.0 + 7e-5) * math.sqrt(0.5)
            excess = 7e-5 * math.sqrt(0.5)
        else:
            p = SetPortfolio.segment_hull(e, [x[:, ::-1]])
            step = 0.003 * np.abs(x[:, :1] - x[:, 1:])
            gains = np.repeat(x.mean(axis=1, keepdims=True) + step, 2, axis=1)
            excess = step.max()
        assert audit_selection(p, SelectionMatrix(gains, "outside")) == pytest.approx(
            excess, rel=1e-6)
        outside = [{"strategy": "explicit", "gains": gains.tolist(), "label": "outside"}]
        with pytest.raises(ValidationError) as info:
            compute_bundle(p, ES05, strategies=outside, audit=True)
        assert str(info.value).startswith("selection 'outside' leaves the portfolio (excess")

    def test_recession_by_kind(self):
        e = ensemble_for_kinds()
        assert inner_recession(
            ALL_KIND_BUILDERS["cone-det"](e), ES05
        ).approx_equal(solvency_cone(ExchangeCone2D(2.0, 3.0)))
        assert inner_recession(
            ALL_KIND_BUILDERS["ball"](e), ES05
        ).approx_equal(ConvexCone2D.nonneg_orthant())
        rand_cone = inner_recession(ALL_KIND_BUILDERS["cone-halfplane-random"](e), ES05)
        empirical, _ = cone_risk_bounds(
            WeightedSample(e.rates, e.weights), 0.05
        )
        assert rand_cone.approx_equal(empirical)


class TestOuterRegion:
    def test_nonmargin_vertex(self):
        r = outer_region_det_cone(nonmargin_portfolio(), NONMARGIN_SPEC)
        assert np.allclose(r.vertices, [[-1.0 / 3.0, -1.0 / 3.0]], atol=1e-12)
        assert r.recession.approx_equal(solvency_cone(NONMARGIN_CONE))

    def test_constant_portfolio(self):
        e = ScenarioEnsemble(np.tile([1.0, -2.0], (3, 1)))
        p = SetPortfolio.cone_det(e, NONMARGIN_CONE)
        r = outer_region_det_cone(p, RiskSpec(ES, 0.5))
        assert np.allclose(r.vertices, [[-1.0, 2.0]], atol=1e-12)

    def test_comonotone_outer_equals_marginal(self):
        e = ScenarioEnsemble(np.array([[0.0, 0.0], [1.0, 1.0]]))
        p = SetPortfolio.cone_det(e, ExchangeCone2D(2.0, 2.0))
        spec = RiskSpec(ES, 0.5)
        outer = outer_region_det_cone(p, spec)
        marginal = marginal_region(p, spec)
        window = (-4.0, -4.0, 4.0, 4.0)
        assert hausdorff_on_window(outer, marginal, window) <= 1e-9

    def test_support_grid_matches_det_cone(self):
        rng = np.random.default_rng(41)
        e = ScenarioEnsemble(rng.standard_normal((30, 2)))
        p = SetPortfolio.cone_det(e, ExchangeCone2D(1.5, 2.5))
        spec = RiskSpec(ES, 0.2)
        exact = outer_region_det_cone(p, spec)
        # The cuts of the fan directions inside the dual cone and of its generators.
        fan = direction_grid(91)
        dirs = np.vstack([fan[dual_cone(p.cone).contains(fan)], [p.cone.a1, p.cone.a2]])
        grid = region_from_halfspaces(HalfSpaceSet(dirs, markets._support_cuts(p, spec, dirs)))
        v = exact.vertices[0]
        window = (v[0] - 3, v[1] - 3, v[0] + 3, v[1] + 3)
        assert hausdorff_on_window(exact, grid, window) <= 1e-9

    def test_overflowing_support_is_refused(self):
        # Support values past the largest float are no unbounded support:
        # the grid keeps every direction, and the non-finite offsets are
        # refused instead of leaving the outer region to the axis cuts.
        gains = 1.5e308 * (1.0 - 0.01 * np.random.default_rng(3).random((50, 2)))
        p = SetPortfolio.ball(ScenarioEnsemble(gains), radius=1.0)
        with np.errstate(all="ignore"):
            with pytest.raises(ValidationError, match="^offsets must be finite$"):
                compute_bundle(p, RiskSpec(ES, 0.1), n_dirs=181)

    def test_ball_at_origin_carves_arc(self):
        e = ScenarioEnsemble(np.zeros((3, 2)))
        p = SetPortfolio.ball(e, radius=1.0)
        r = outer_region(p, RiskSpec(ES, 0.5), n_dirs=181)
        assert r.scalarize((1.0, 0.0)) == pytest.approx(-1.0, abs=1e-12)
        assert r.scalarize((0.0, 1.0)) == pytest.approx(-1.0, abs=1e-12)
        norms = np.hypot(r.vertices[:, 0], r.vertices[:, 1])
        assert np.all(norms >= 1.0 - 1e-9)
        assert np.all(norms <= 1.0 + 1e-3)

    def test_neg_expectation_cuts_are_tight(self):
        rng = np.random.default_rng(42)
        e = ScenarioEnsemble(rng.standard_normal((20, 2)))
        p = SetPortfolio.ball(e, radius=0.5)
        spec = RiskSpec(NEG_EXPECTATION)
        r = outer_region(p, spec, n_dirs=61)
        mean = e.gains.mean(axis=0)
        for u in direction_grid(61):
            want = -(float(mean @ u) + 0.5)
            assert r.scalarize(u) == pytest.approx(want, abs=1e-9)

    def test_dispatcher_by_kind(self):
        e = ensemble_for_kinds()
        for kind, build in ALL_KIND_BUILDERS.items():
            r = outer_region(build(e), ES05)
            assert r.vertices.shape[0] >= 1, kind


class TestConeRiskBounds:
    def test_closed_form_pins(self):
        inner, outer = cone_risk_bounds_lognormal(0.4, 0.05)
        assert inner.lo[1] / inner.lo[0] == pytest.approx(-0.4086929, abs=1e-5)
        assert inner.hi[1] / inner.hi[0] == pytest.approx(-2.085047, abs=1e-4)
        assert outer.lo[1] / outer.lo[0] == pytest.approx(-0.4780971, abs=1e-5)
        assert outer.hi[1] / outer.hi[0] == pytest.approx(-1.782366, abs=1e-4)

    def test_inner_cone_inside_outer_cone(self):
        inner, outer = cone_risk_bounds_lognormal(0.4, 0.05)
        assert outer.contains(inner.lo) and outer.contains(inner.hi)

    def test_empirical_matches_closed_form(self):
        rng = np.random.default_rng(43)
        n = 300_000
        rates = np.exp(0.4 * rng.standard_normal(n) - 0.08)
        inner_e, outer_e = cone_risk_bounds(WeightedSample.uniform(rates), 0.05)
        inner_c, outer_c = cone_risk_bounds_lognormal(0.4, 0.05)
        for emp, closed in ((inner_e, inner_c), (outer_e, outer_c)):
            assert emp.lo[1] / emp.lo[0] == pytest.approx(
                closed.lo[1] / closed.lo[0], abs=5e-3
            )
            assert emp.hi[1] / emp.hi[0] == pytest.approx(
                closed.hi[1] / closed.hi[0], abs=2e-2
            )

    def test_degenerate_rate_gives_halfplane(self):
        inner, outer = cone_risk_bounds_lognormal(0.0, 0.05)
        for cone in (inner, outer):
            assert cone.is_halfplane
            assert cone.lo[1] / cone.lo[0] == pytest.approx(-1.0, abs=1e-9)

    def test_level_validation(self):
        sample = WeightedSample.uniform(np.array([1.0, 2.0]))
        with pytest.raises(ValidationError):
            cone_risk_bounds(sample, 0.75)
        with pytest.raises(ValidationError):
            cone_risk_bounds_lognormal(0.4, 0.0)

    def test_mean_scaling(self):
        inner_1, _ = cone_risk_bounds_lognormal(0.4, 0.05, mean=1.0)
        inner_m, _ = cone_risk_bounds_lognormal(0.4, 0.05, mean=1.5)
        assert inner_m.lo[1] / inner_m.lo[0] == pytest.approx(
            1.5 * inner_1.lo[1] / inner_1.lo[0]
        )


class TestRandomHalfplaneOuter:
    def test_valid_selection_risks_stay_inside(self):
        p = random_kind_portfolio(seed=3)
        outer = outer_region(p, ES05)
        from svrisk.bounds import risk_of_selection

        for sel in gather_selections(p, ES05):
            pt = risk_of_selection(sel, p.ensemble.weights, ES05)
            assert outer.contains(pt, tol=1e-9), sel.label

    def test_whole_plane_when_no_certificate_is_admissible(self):
        gains = np.zeros((3, 2))
        rates = np.array([1e-4, 1.0, 1e4])
        weights = np.array([1e-3, 1.0 - 2e-3, 1e-3])
        e = ScenarioEnsemble(gains, rates=rates, weights=weights)
        p = SetPortfolio.random_halfplane(e)
        with pytest.raises(WholePlaneError, match="certificate"):
            outer_region(p, RiskSpec(ES, 0.5))

    def test_spec_enforcement(self):
        p = random_kind_portfolio()
        with pytest.raises(ValidationError):
            outer_region(p, RiskSpec(VAR, 0.05))
        with pytest.raises(ValidationError):
            outer_region(p, RiskSpec(ES, 0.6))
        with pytest.raises(ValidationError):
            compute_bundle(p, RiskSpec(NEG_EXPECTATION))

    def test_constant_wealth_outer_touches_inner(self):
        # deterministic total wealth: the frictionless selection is constant,
        # so inner and outer coincide along the unit-certificate direction
        rng = np.random.default_rng(44)
        n = 40
        rates = np.exp(0.3 * rng.standard_normal(n) - 0.045)
        x1 = rng.standard_normal(n)
        gains = np.column_stack([x1, 5.0 - rates * x1])  # pi*X1 + X2 = 5
        p = SetPortfolio.random_halfplane(ScenarioEnsemble(gains, rates=rates))
        bundle = compute_bundle(p, ES05)
        assert sandwich_violation(bundle) <= 1e-9


class TestOverflowingGrid:
    @pytest.mark.parametrize("audit", [False, True])
    @pytest.mark.parametrize(
        "portfolio, strategy",
        [(lambda: ALL_KIND_BUILDERS["cone-det"](ensemble_for_kinds()), "quantile-shift"),
         (random_kind_portfolio, "frictionless")],
        ids=["quantile-shift", "frictionless"],
    )
    def test_refused_under_any_error_state(self, portfolio, strategy, audit):
        # Library calls run under the caller's numpy error state; with every
        # floating-point error ignored, the selections that overflow to inf
        # are still refused and no bundle is returned.
        config = {"strategy": strategy, "t_grid": {"values": [0.0, 1e308]}}
        with np.errstate(all="ignore"), pytest.raises(ValidationError):
            compute_bundle(portfolio(), ES05, strategies=[config], audit=audit)

    @pytest.mark.parametrize("state", ["ignore", "raise"])
    @pytest.mark.parametrize("audit", [False, True])
    def test_overflow_past_the_tail_refused_by_name(self, state, audit):
        # The largest scale overflows at one scenario only (236, coordinate
        # 1), which carries no tail weight, so only the grid check sees it.
        e = generate(GenSpec(n=300, seed=2, correlation=-0.5, rate_mean=1.5, rate_vol=0.4))
        config = {"strategy": "frictionless", "t_grid": {"values": [0.0, 6.329158951360567e307]}}
        with np.errstate(all=state), pytest.raises(ValidationError, match="'frictionless'"):
            compute_bundle(
                SetPortfolio.random_halfplane(e), ES05, strategies=[config], audit=audit
            )


class TestSandwich:
    @pytest.mark.parametrize("kind", sorted(ALL_KIND_BUILDERS))
    def test_nested_for_every_kind(self, kind):
        e = ensemble_for_kinds(seed=5)
        bundle = compute_bundle(ALL_KIND_BUILDERS[kind](e), ES05)
        assert sandwich_violation(bundle) <= 1e-9

    @pytest.mark.parametrize("scale", [1e6, 1e9])
    @pytest.mark.parametrize("kind", sorted(ALL_KIND_BUILDERS))
    def test_nested_for_every_kind_in_large_units(self, kind, scale):
        # Gains in currency units: the rounding slack between the regions
        # grows with the data, and a valid bundle must still be returned.
        e = ensemble_for_kinds(seed=5)
        large = ScenarioEnsemble(e.gains * scale, rates=e.rates)
        bundle = compute_bundle(ALL_KIND_BUILDERS[kind](large), ES05)
        assert sandwich_violation(bundle) <= 1e-9 * scale

    def test_bundle_that_does_not_nest_is_refused(self, monkeypatch):
        # An outer cut that slices into the inner region breaks the sandwich.
        p = ALL_KIND_BUILDERS["ball"](ensemble_for_kinds(seed=5))
        cuts = (np.eye(2), [10.0, 10.0])
        monkeypatch.setattr(markets.KINDS["ball"], "outer_cuts", lambda p, spec, n_dirs: cuts)
        with pytest.raises(ValidationError, match="do not nest"):
            compute_bundle(p, ES05)

    def test_kind_registered_only_in_markets_makes_a_bundle(self, monkeypatch):
        # A kind is one record in markets.KINDS: the bundle pipeline takes its
        # outer cuts from the record and knows nothing else about it.
        class FixedCuts(markets._Ball):
            def outer_cuts(self, p, risk_spec, n_dirs):
                return np.eye(2), [-100.0, -100.0]

        monkeypatch.setitem(markets.KINDS, "fixed-cuts", FixedCuts())
        p = SetPortfolio("fixed-cuts", ensemble_for_kinds(seed=5), radius=0.5)
        bundle = compute_bundle(p, ES05)
        assert bundle.meta["portfolio"] == "fixed-cuts"
        assert bundle.outer.vertices.tolist() == [[-100.0, -100.0]]
        assert sandwich_violation(bundle) <= 1e-9

    @pytest.mark.parametrize("kind", sorted(ALL_KIND_BUILDERS))
    def test_value_at_risk_refused(self, kind):
        p = ALL_KIND_BUILDERS[kind](ensemble_for_kinds(seed=5))
        for compute in (compute_bundle, inner_region, outer_region, marginal_region,
                        outer_region_det_cone):
            with pytest.raises(ValidationError):
                compute(p, RiskSpec(VAR, 0.2))

    @pytest.mark.parametrize("kind", sorted(set(ALL_KIND_BUILDERS) - {"cone-det"}))
    def test_det_cone_cuts_refuse_other_kinds(self, kind):
        p = ALL_KIND_BUILDERS[kind](ensemble_for_kinds(seed=5))
        with pytest.raises(ValidationError, match="exchange cone"):
            outer_region_det_cone(p, ES05)

    def test_violation_positive_when_swapped(self):
        e = ensemble_for_kinds(seed=6)
        b = compute_bundle(ALL_KIND_BUILDERS["ball"](e), ES05)
        swapped = RiskBundle(inner=b.outer, outer=b.inner, marginal=b.outer, meta={})
        assert sandwich_violation(swapped) > 1e-6

    def test_scalarize_bundle_ordering(self):
        e = ensemble_for_kinds(seed=7)
        bundle = compute_bundle(ALL_KIND_BUILDERS["cone-det"](e), ES05)
        for u in direction_grid(9):
            out = scalarize_bundle(bundle, u)
            if not math.isfinite(out["outer"]):
                continue
            assert out["marginal"] >= out["inner"] - 1e-9
            assert out["inner"] >= out["outer"] - 1e-9

    def test_marginal_vertex_inside_inner(self):
        e = ensemble_for_kinds(seed=8)
        for kind, build in ALL_KIND_BUILDERS.items():
            bundle = compute_bundle(build(e), ES05)
            assert bundle.inner.contains(bundle.marginal.vertices[0], tol=1e-9), kind

    def test_inner_vertices_respect_mean_dominance(self):
        # ES dominates the negated mean and compensations average inside the
        # exchange cone, so inner vertices stay above the mean-risk cuts
        rng = np.random.default_rng(45)
        for _ in range(5):
            e = ScenarioEnsemble(rng.standard_normal((40, 2)) * 2)
            cone = ExchangeCone2D(rng.uniform(1.2, 4.0), rng.uniform(1.2, 4.0))
            p = SetPortfolio.cone_det(e, cone)
            r = inner_region(p, RiskSpec(ES, 0.3))
            mean = e.gains.mean(axis=0)
            for a in (cone.a1, cone.a2):
                floor = -float(mean @ a)
                assert np.all(r.vertices @ a >= floor - 1e-9)


class TestBundleSerialization:
    def test_meta_fields(self):
        bundle = compute_bundle(
            nonmargin_portfolio(), NONMARGIN_SPEC, strategies=nonmargin_strategies()
        )
        assert bundle.meta["portfolio"] == "cone-det"
        assert bundle.meta["risk"] == {"kind": "expected-shortfall", "level": 0.75}
        assert bundle.meta["scenarios"] == 2
        assert bundle.meta["selections"] == 5
        assert bundle.meta["directions"] == 181

    def test_json_roundtrip(self):
        bundle = compute_bundle(
            nonmargin_portfolio(), NONMARGIN_SPEC, strategies=nonmargin_strategies()
        )
        text = bundle.to_json()
        back = RiskBundle.from_dict(json.loads(text))
        assert back.meta["portfolio"] == "cone-det"
        assert np.allclose(back.inner.vertices, bundle.inner.vertices, atol=1e-11)
        assert back.to_json() == text
        # reloading must not normalise the written recession rays again
        region = region_from_points_plus_cone(
            [[0.0, 0.0]], solvency_cone(ExchangeCone2D(1.8, 1.7))
        )
        text = canonical_json(region.to_dict())
        again = RiskRegion2D.from_dict(json.loads(text))
        assert canonical_json(again.to_dict()) == text

    @pytest.mark.parametrize("kind", sorted(ALL_KIND_BUILDERS))
    def test_law_invariance_bit_identical(self, kind):
        rng = np.random.default_rng(46)
        n = 40
        gains = rng.standard_normal((n, 2))
        rates = np.exp(0.3 * rng.standard_normal(n))
        w = rng.random(n)
        w /= w.sum()
        perm = rng.permutation(n)
        a = ScenarioEnsemble(gains, rates=rates, weights=w)
        b = ScenarioEnsemble(gains[perm], rates=rates[perm], weights=w[perm])
        ja = compute_bundle(ALL_KIND_BUILDERS[kind](a), ES05).to_json()
        jb = compute_bundle(ALL_KIND_BUILDERS[kind](b), ES05).to_json()
        assert ja == jb

    def test_law_invariance_of_signed_zeros(self):
        # Scenarios 0 and 1 hold the minimum of the first coordinate as zeros
        # of opposite sign; neg-essinf must not depend on which comes first.
        gains = np.array([[0.0, 1.0], [-0.0, 2.0], [1.0, 0.0], [2.0, 3.0]])
        spec = RiskSpec(NEG_ESSINF)
        ja, jb = (
            compute_bundle(SetPortfolio.ball(ScenarioEnsemble(g), radius=1.0), spec).to_json()
            for g in (gains, gains[[1, 0, 2, 3]])
        )
        assert ja == jb

    def test_block_size_does_not_change_results(self, monkeypatch):
        # One row per risk-kernel call against every row in one call, with
        # uniform and with uneven weights (the two sorting paths).
        e = ensemble_for_kinds(seed=9)
        w = np.random.default_rng(9).random(e.n)
        uneven = ScenarioEnsemble(e.gains, rates=e.rates, weights=w / w.sum())
        for ensemble in (e, uneven):
            for kind, build in ALL_KIND_BUILDERS.items():
                p = build(ensemble)
                for audit in (False, True):
                    monkeypatch.setattr(markets, "_BLOCK_VALUES", 1)
                    one_row = compute_bundle(p, ES05, audit=audit).to_json()
                    monkeypatch.setattr(markets, "_BLOCK_VALUES", 2**30)
                    one_block = compute_bundle(p, ES05, audit=audit).to_json()
                    assert one_row == one_block, (kind, audit)
                    # Two blocks, the second shorter, so the reused block
                    # buffer holds stale rows past its end (a ball bundle has
                    # two selections, which split only into equal blocks).
                    count = json.loads(one_block)["meta"]["selections"]
                    if count >= 3:
                        rows = count // 2 + 1
                        monkeypatch.setattr(markets, "_BLOCK_VALUES", rows * ensemble.n)
                        two_blocks = compute_bundle(p, ES05, audit=audit).to_json()
                        assert two_blocks == one_block, (kind, audit)

    @pytest.mark.parametrize("block_values", [1, 2**30])
    def test_audit_names_first_cheating_selection(self, monkeypatch, block_values):
        monkeypatch.setattr(markets, "_BLOCK_VALUES", block_values)
        p = nonmargin_portfolio()
        cheats = [
            {"strategy": "explicit", "gains": (NONMARGIN_GAINS + 1.0).tolist(),
             "label": "cheat-a"},
            {"strategy": "explicit", "gains": (NONMARGIN_GAINS + 2.0).tolist(),
             "label": "cheat-b"},
        ]
        gap = audit_selection(p, SelectionMatrix(NONMARGIN_GAINS + 1.0, "cheat-a"))
        message = f"selection 'cheat-a' leaves the portfolio (excess {gap:.3e})"
        with pytest.raises(ValidationError) as info:
            inner_region(p, NONMARGIN_SPEC, strategies=cheats, audit=True)
        assert str(info.value) == message

    @pytest.mark.parametrize("rows", [1, 4, 2**20])
    @pytest.mark.parametrize("cheat", [0, 1, 5, 8])
    def test_audit_names_cheat_inside_a_family(self, monkeypatch, rows, cheat):
        # Identity, then the nine-row (t, s) product family of a three-value
        # grid, whose row ``cheat`` leaves the portfolio.  Four-row blocks
        # put rows 0-2 of the family after identity in the first block and
        # rows 3-6 at the start of the next, so rows 1 and 5 sit inside a
        # block and inside a family part.
        p = nonmargin_portfolio()
        config = {"strategy": "quantile-shift", "t_grid": {"values": [0.0, 1.0, 2.0]}}
        family = selections.build_family(p, config, NONMARGIN_SPEC)
        assert len(family) == 9
        build, keys = selections._STRATEGIES["quantile-shift"]

        def cheating(portfolio, cfg, spec):
            (grid,) = build(portfolio, cfg, spec)

            def fill(out, lo, hi):
                grid.fill(out, lo, hi)
                if lo <= cheat < hi:
                    out[cheat - lo] += 1.0

            return [grid._replace(fill=fill)]

        monkeypatch.setitem(selections._STRATEGIES, "quantile-shift", (cheating, keys))
        monkeypatch.setattr(markets, "_BLOCK_VALUES", rows * p.ensemble.n)
        bad = family[cheat]
        gap = audit_selection(p, SelectionMatrix(bad.gains + 1.0, bad.label))
        message = f"selection {bad.label!r} leaves the portfolio (excess {gap:.3e})"
        with pytest.raises(ValidationError) as info:
            inner_region(p, NONMARGIN_SPEC, strategies=[config], audit=True)
        assert str(info.value) == message

    @pytest.mark.parametrize("kind", sorted(ALL_KIND_BUILDERS))
    def test_audit_computes_support_rows_once(self, monkeypatch, kind):
        # Counts the directions whose support rows are built.  The outer
        # cuts build them; the audit measures selections by the kind's
        # excess and adds none.
        p = ALL_KIND_BUILDERS[kind](ensemble_for_kinds(seed=10))
        calls = []
        support_values = SetPortfolio.support_values

        def counted(self, U):
            calls.extend(np.atleast_2d(U))
            return support_values(self, U)

        monkeypatch.setattr(SetPortfolio, "support_values", counted)
        compute_bundle(p, ES05)
        unaudited = len(calls)
        calls.clear()
        compute_bundle(p, ES05, audit=True)
        assert len(calls) <= unaudited

    @pytest.mark.parametrize("block_values", [1, 2**30])
    @pytest.mark.parametrize("kind", sorted(set(ALL_KIND_BUILDERS) - {"cone-halfplane-random"}))
    def test_support_cuts_match_per_direction_loop(self, monkeypatch, kind, block_values):
        # The cuts of blocks of directions against one support row and one
        # risk evaluation per direction, with a zero-weight scenario, on the
        # directions that the kind's outer cuts probe: the fan, or cone-det's
        # dual generators.
        monkeypatch.setattr(markets, "_BLOCK_VALUES", block_values)
        e = ensemble_for_kinds(seed=11)
        w = np.random.default_rng(11).random(e.n)
        w[3] = 0.0
        p = ALL_KIND_BUILDERS[kind](ScenarioEnsemble(e.gains, rates=e.rates, weights=w / w.sum()))
        dirs = direction_grid(181) if p.cone is None else np.array([p.cone.a1, p.cone.a2])
        expected = [float(risk_rows(ES05, p.support_values(u)[None, :], p.ensemble.weights)[0])
                    for u in dirs]
        assert markets._support_cuts(p, ES05, dirs) == expected
        assert np.isfinite(expected).all()


def test_bounds_names_no_kind_and_no_private_name():
    # bounds hulls the points that selections makes and intersects the cuts
    # that the kind records make: it imports no private name of either
    # module, no kind constant and no kind table.
    package = pathlib.Path(selections.__file__).parent
    kind_names = {name for name, value in vars(markets).items()
                  if isinstance(value, str) and value in markets.KINDS}
    imported = []
    for node in ast.walk(ast.parse((package / "bounds.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            imported += [(module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [("", alias.name.rpartition(".")[2]) for alias in node.names]
    assert ("markets", "tail_slope_cone") in imported
    offending = [
        (module, name) for module, name in imported
        if (module in ("markets", "selections")
            and (name.startswith("_") or name in kind_names or name == "KINDS"))
        # A module import would reach every private name through it.
        or (module in ("", "svrisk") and name in ("markets", "selections"))
    ]
    assert offending == []
