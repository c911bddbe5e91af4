import dataclasses
import tracemalloc

import numpy as np
import pytest

from svrisk import bounds, markets, riskstats, scenarios, selections
from svrisk.errors import ValidationError
from svrisk.markets import (
    ExchangeCone2D,
    ScenarioEnsemble,
    SetPortfolio,
    direction_grid,
)
from svrisk.riskstats import ES, NEG_ESSINF, NEG_EXPECTATION, RiskSpec, risk_rows
from svrisk.selections import (
    SelectionMatrix,
    audit_selection,
    axis_transfer_selections,
    boost_worst_coordinate,
    build_family,
    comonotone_corner_points,
    comonotone_corner_selections,
    default_strategy_configs,
    default_t_grid,
    frictionless_direction,
    frictionless_projection,
    liquidity_capped_projection,
    liquidity_corners,
    quantile_shift_projection,
    selection_auditor,
)

NONMARGIN_GAINS = np.array([[-2.0, 4.0], [4.0, -2.0]])
NONMARGIN_CONE = ExchangeCone2D(5.0, 5.0)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def reference_selections(p, cfg, spec):
    """(gains, label) of each selection of one strategy, made one at a time
    by the expressions of the one-object-per-selection pipeline."""
    E, x = p.ensemble, p.ensemble.gains
    name = cfg["strategy"]
    if name in ("quantile-shift", "frictionless"):
        if name == "frictionless":
            eta, ray, label = frictionless_direction(E), None, "frictionless"
        else:
            side = cfg.get("side", "both")
            level = cfg.get("level", spec.level)
            eta, ray = quantile_shift_projection(E, p.cone, level, side=side)
            ray, label = (ray if side == "both" else None), f"quantile-shift[{side}]"
        if "t_grid" in cfg:
            grid = np.asarray(cfg["t_grid"]["values"], dtype=float)
        else:
            grid = default_t_grid(float(np.max(np.hypot(eta[:, 0], eta[:, 1]), initial=0.0)))
        if ray is not None:
            m1 = (ray == 1)[:, None] * eta
            m2 = (ray == 2)[:, None] * eta
            if np.any(m1 != 0.0) and np.any(m2 != 0.0):
                return [(x + t * m1 + s * m2, f"{label}(t={t:.6g},s={s:.6g})")
                        for t in grid for s in grid]
        return [(x + t * eta, f"{label}(t={t:.6g})") for t in grid]
    lam = (np.asarray(cfg["lambda_grid"]["values"], dtype=float)
           if "lambda_grid" in cfg else np.linspace(0.0, 1.0, 21))

    def mixes(a, b):
        return [(l * a.gains + (1.0 - l) * b.gains, f"mix({a.label},{b.label},lam={l:.6g})")
                for l in lam]

    if name == "liquidity-family":
        xi = liquidity_capped_projection(E, p.cap)
        c1, c2 = liquidity_corners(E, p.cap)
        return [(s.gains, s.label) for s in (xi, c1, c2)] + mixes(xi, c1) + mixes(xi, c2)
    if name == "segment-vertices":
        base = SelectionMatrix(x, "segment-vertex-0")
        made = [(x, base.label)]
        for k, g in enumerate(p.extra_gains, start=1):
            other = SelectionMatrix(g, f"segment-vertex-{k}")
            made += [(g, other.label)] + mixes(base, other)
        return made
    one_row = {
        "identity": lambda: [SelectionMatrix(x, "identity")],
        "corner-selections": lambda: comonotone_corner_selections(E, p.cone),
        "axis-transfer": lambda: axis_transfer_selections(E),
        "ball-boost": lambda: [boost_worst_coordinate(E, p.radius)],
    }
    return [(s.gains, s.label) for s in one_row[name]()]


def rate_ensemble(gains, rates):
    return ScenarioEnsemble(
        np.asarray(gains, dtype=float), rates=np.asarray(rates, dtype=float)
    )


class TestSelectionMatrix:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SelectionMatrix(np.zeros((0, 2)), "empty")
        with pytest.raises(ValidationError):
            SelectionMatrix(np.array([[np.nan, 0.0]]), "nan")

    def test_read_only(self):
        sel = SelectionMatrix(np.zeros((1, 2)), "z")
        with pytest.raises(ValueError):
            sel.gains[0, 0] = 1.0


class TestGrids:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_grid_refuses_non_finite_values(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            selections._grid([0.0, bad], "scale grid")

    def test_default_t_grid_contains_anchors(self):
        grid = default_t_grid(2.0)
        assert 0.0 in grid and 1.0 in grid
        assert np.all(np.diff(grid) > 0)
        assert grid.max() == pytest.approx(8.0)

    def test_for_direction_scales_with_eta(self):
        # the default frictionless sweep reaches 4 * max |eta| = 4 * |(3, 4)|
        e = rate_ensemble([[6.25, 0.0], [0.0, 0.0]], [0.75, 1.0])  # eta = (-4, 3)
        p = SetPortfolio.random_halfplane(e)
        fam = build_family(p, {"strategy": "frictionless"}, RiskSpec(ES, 0.25))
        assert fam[-1].label == "frictionless(t=20)"


class TestFrictionless:
    def test_already_on_boundary(self):
        e = rate_ensemble([[1.0, 1.0]], [1.0])
        sel = frictionless_projection(e)
        assert np.allclose(sel.gains, [[1.0, 1.0]])
        assert sel.label == "frictionless-projection"

    def test_projection_unit_rate(self):
        e = rate_ensemble([[2.0, 0.0]], [1.0])
        sel = frictionless_projection(e)
        assert np.allclose(sel.gains, [[1.0, 1.0]])

    def test_projection_rate_two(self):
        e = rate_ensemble([[0.0, 3.0]], [2.0])
        sel = frictionless_projection(e)
        assert np.allclose(sel.gains, [[1.2, 0.6]])

    def test_stays_on_exchange_line(self):
        rng = np.random.default_rng(31)
        gains = rng.standard_normal((40, 2)) * 3
        rates = rng.uniform(0.25, 4.0, 40)
        e = rate_ensemble(gains, rates)
        xi = frictionless_projection(e).gains
        wealth_before = gains[:, 0] * rates + gains[:, 1]
        wealth_after = xi[:, 0] * rates + xi[:, 1]
        assert np.allclose(wealth_after, wealth_before, atol=1e-12)

    def test_axis_transfers(self):
        e = rate_ensemble([[2.0, 4.0]], [2.0])
        to_first, to_second = axis_transfer_selections(e)
        assert np.allclose(to_first.gains, [[4.0, 0.0]])
        assert np.allclose(to_second.gains, [[0.0, 8.0]])


class TestQuantileShift:
    def test_reference_projection(self):
        # recentred point (2, 1) with symmetric rate 5 projects onto ray 2
        e = ScenarioEnsemble(np.array([[0.0, 0.0], [2.0, 1.0]]))
        eta, ray = quantile_shift_projection(e, NONMARGIN_CONE, 0.5)
        assert ray.tolist() == [0, 2]
        assert np.allclose(eta[0], 0.0)
        assert np.allclose(eta[1], [-1.7308, 0.3462], atol=1e-4)

    def test_solvent_scenarios_keep_zero(self):
        # the recentred point (-3, -3) already dominates the quantile corner
        e = ScenarioEnsemble(np.array([[0.0, 0.0], [-3.0, -3.0]]))
        eta, ray = quantile_shift_projection(e, NONMARGIN_CONE, 0.75)
        assert ray.tolist() == [0, 0]
        assert np.allclose(eta, 0.0)

    def test_no_exchange_reduces_to_axis_projection(self):
        e = ScenarioEnsemble(np.array([[0.0, 0.0], [2.0, 1.0]]))
        eta, ray = quantile_shift_projection(e, ExchangeCone2D.no_exchange(), 0.5)
        assert ray.tolist() == [0, 2]
        assert np.allclose(eta[1], [-2.0, 0.0])

    def test_tie_prefers_ray_one(self):
        e = ScenarioEnsemble(np.array([[0.0, 0.0], [3.0, 3.0]]))
        eta, ray = quantile_shift_projection(e, NONMARGIN_CONE, 0.5)
        assert ray[1] == 1

    def test_forced_sides(self):
        e = ScenarioEnsemble(np.array([[0.0, 0.0], [2.0, 1.0]]))
        eta1, ray1 = quantile_shift_projection(e, NONMARGIN_CONE, 0.5, side="ray1")
        eta2, ray2 = quantile_shift_projection(e, NONMARGIN_CONE, 0.5, side="ray2")
        assert ray1[1] == 1 and ray2[1] == 2
        assert not np.allclose(eta1[1], eta2[1])

    def test_eta_stays_in_exchange_cone(self):
        rng = np.random.default_rng(32)
        e = ScenarioEnsemble(rng.standard_normal((60, 2)) * 2)
        cone = ExchangeCone2D(2.0, 3.0)
        eta, _ = quantile_shift_projection(e, cone, 0.1)
        for row in eta:
            assert cone.contains(row, tol=1e-9)

    def test_bad_side(self):
        e = ScenarioEnsemble(np.zeros((1, 2)))
        with pytest.raises(ValidationError):
            quantile_shift_projection(e, NONMARGIN_CONE, 0.5, side="up")


class TestScaledFamily:
    def test_zero_scale_is_identity(self):
        p = SetPortfolio.cone_det(ScenarioEnsemble(NONMARGIN_GAINS), NONMARGIN_CONE)
        cfg = {"strategy": "quantile-shift", "side": "ray1", "t_grid": {"values": [0.0, 1.0]}}
        fam = build_family(p, cfg, RiskSpec(ES, 0.75))
        eta, _ = quantile_shift_projection(p.ensemble, NONMARGIN_CONE, 0.75, side="ray1")
        assert np.array_equal(fam[0].gains, NONMARGIN_GAINS)
        assert np.array_equal(fam[1].gains, NONMARGIN_GAINS + eta)
        assert [s.label for s in fam] == [
            "quantile-shift[ray1](t=0)", "quantile-shift[ray1](t=1)"
        ]

    def test_two_sided_product_sweep(self):
        e = ScenarioEnsemble(np.array([[0.0, 0.0], [2.0, 1.0], [1.0, 2.0]]))
        eta, ray = quantile_shift_projection(e, NONMARGIN_CONE, 1.0 / 3.0)
        assert sorted(ray.tolist()) == [0, 1, 2]
        p = SetPortfolio.cone_det(e, NONMARGIN_CONE)
        cfg = {"strategy": "quantile-shift", "level": 1.0 / 3.0,
               "t_grid": {"values": [0.0, 1.0, 2.0]}}
        fam = build_family(p, cfg, RiskSpec(ES, 0.5))
        assert len(fam) == 9
        assert any(np.array_equal(s.gains, e.gains) for s in fam)
        labels = {s.label for s in fam}
        assert "quantile-shift[both](t=1,s=2)" in labels

    def test_one_sided_when_single_ray(self):
        e = ScenarioEnsemble(np.array([[0.0, 0.0], [2.0, 1.0]]))
        _, ray = quantile_shift_projection(e, NONMARGIN_CONE, 0.5)
        assert sorted(ray.tolist()) == [0, 2]
        p = SetPortfolio.cone_det(e, NONMARGIN_CONE)
        cfg = {"strategy": "quantile-shift", "level": 0.5,
               "t_grid": {"values": [0.0, 0.5, 1.0]}}
        fam = build_family(p, cfg, RiskSpec(ES, 0.5))
        assert [s.label for s in fam] == [
            "quantile-shift[both](t=0)", "quantile-shift[both](t=0.5)",
            "quantile-shift[both](t=1)",
        ]

    def test_eta_outside_cone_rejected(self, monkeypatch):
        p = SetPortfolio.cone_det(ScenarioEnsemble(NONMARGIN_GAINS), NONMARGIN_CONE)
        monkeypatch.setattr(
            selections, "quantile_shift_projection",
            lambda *args, **kwargs: (np.ones((2, 2)), np.ones(2, dtype=int)),
        )
        with pytest.raises(ValidationError, match="leaves the exchange cone at row 0"):
            build_family(p, {"strategy": "quantile-shift"}, RiskSpec(ES, 0.5))

    def test_negative_scale_rejected(self):
        e = rate_ensemble(NONMARGIN_GAINS, [1.0, 2.0])
        p = SetPortfolio.random_halfplane(e)
        cfg = {"strategy": "frictionless", "t_grid": {"values": [-0.1]}}
        with pytest.raises(ValidationError, match="non-negative"):
            build_family(p, cfg, RiskSpec(ES, 0.5))


class TestLiquidity:
    def test_projection_three_cases(self):
        e = rate_ensemble([[-3.0, 3.0], [0.0, 0.0], [3.0, -3.0]], [1.0, 1.0, 1.0])
        sel = liquidity_capped_projection(e)
        assert np.allclose(sel.gains, [[-2.0, 2.0], [0.0, 0.0], [2.0, -2.0]])
        assert sel.label == "liquidity-projection"

    def test_interior_case_hits_exchange_line(self):
        e = rate_ensemble([[0.5, -0.5]], [2.0])
        sel = liquidity_capped_projection(e)
        xi = sel.gains[0]
        assert xi[0] * 2.0 + xi[1] == pytest.approx(0.5)  # wealth preserved
        assert xi[0] == pytest.approx(2.0 * xi[1])  # on the diagonal of rate 2

    def test_corners(self):
        e = rate_ensemble([[0.0, 0.0]], [2.0])
        c1, c2 = liquidity_corners(e)
        assert np.allclose(c1.gains, [[1.0, -2.0]])
        assert np.allclose(c2.gains, [[-0.5, 1.0]])

    def test_corners_unit_rate(self):
        e = rate_ensemble([[1.0, 1.0]], [1.0])
        c1, c2 = liquidity_corners(e)
        assert np.allclose(c1.gains, [[2.0, 0.0]])
        assert np.allclose(c2.gains, [[0.0, 2.0]])

    def test_cap_validation(self):
        e = rate_ensemble([[0.0, 0.0]], [1.0])
        with pytest.raises(ValidationError):
            liquidity_capped_projection(e, cap=(0.0, 1.0))


class TestCornerConstructions:
    def test_nonmargin_corner_points(self):
        e = ScenarioEnsemble(NONMARGIN_GAINS)
        c1, c2 = comonotone_corner_points(e, NONMARGIN_CONE, 0.75)
        assert np.allclose(c1, [2.0, -0.8])
        assert np.allclose(c2, [-0.8, 2.0])

    def test_constant_portfolio_corners_coincide(self):
        e = ScenarioEnsemble(np.array([[1.5, -0.5], [1.5, -0.5]]))
        c1, c2 = comonotone_corner_points(e, ExchangeCone2D(2.0, 3.0), 0.5)
        assert np.allclose(c1, [-1.5, 0.5])
        assert np.allclose(c2, [-1.5, 0.5])

    def test_corner_selections_freeze_one_coordinate(self):
        rng = np.random.default_rng(33)
        e = ScenarioEnsemble(rng.standard_normal((30, 2)))
        s1, s2 = comonotone_corner_selections(e, NONMARGIN_CONE)
        assert np.ptp(s1.gains[:, 0]) == pytest.approx(0.0, abs=1e-12)
        assert np.ptp(s2.gains[:, 1]) == pytest.approx(0.0, abs=1e-12)
        assert s1.gains[0, 0] == pytest.approx(e.gains[:, 0].min())

    def test_corner_selection_realises_corner_point(self):
        rng = np.random.default_rng(34)
        e = ScenarioEnsemble(rng.standard_normal((25, 2)))
        cone = ExchangeCone2D(2.0, 4.0)
        alpha = 0.2
        from svrisk.bounds import risk_of_selection

        spec = RiskSpec(ES, alpha)
        c1, c2 = comonotone_corner_points(e, cone, alpha)
        s1, s2 = comonotone_corner_selections(e, cone)
        assert np.allclose(risk_of_selection(s1, e.weights, spec), c1, atol=1e-12)
        assert np.allclose(risk_of_selection(s2, e.weights, spec), c2, atol=1e-12)

    def test_infinite_rate_rejected(self):
        e = ScenarioEnsemble(np.zeros((1, 2)))
        with pytest.raises(ValidationError):
            comonotone_corner_points(e, ExchangeCone2D.no_exchange(), 0.5)


class TestBallAndMix:
    def test_boost_worst(self):
        e = ScenarioEnsemble(np.array([[0.0, 5.0], [5.0, 0.0], [2.0, 2.0]]))
        sel = boost_worst_coordinate(e, radius=1.0)
        assert np.allclose(sel.gains, [[1.0, 5.0], [5.0, 1.0], [2.0, 2.0]])

    def test_boost_radius_positive(self):
        e = ScenarioEnsemble(np.zeros((1, 2)))
        with pytest.raises(ValidationError):
            boost_worst_coordinate(e, radius=-1.0)

    def test_convex_mix_endpoints(self):
        e = ScenarioEnsemble(np.array([[1.0, 0.0]]))
        p = SetPortfolio.segment_hull(e, [np.array([[0.0, 2.0]])])
        cfg = {"strategy": "segment-vertices", "lambda_grid": {"values": [1.0, 0.5, 0.0]}}
        fam = build_family(p, cfg, RiskSpec(ES, 0.5))
        a, b, mixes = fam[0], fam[1], fam[2:]
        assert np.array_equal(mixes[0].gains, a.gains)
        assert np.array_equal(mixes[1].gains, [[0.5, 1.0]])
        assert np.array_equal(mixes[2].gains, b.gains)
        assert mixes[1].label == "mix(segment-vertex-0,segment-vertex-1,lam=0.5)"

    def test_mix_of_liquidity_corners(self):
        # At rate 1 the projection of (0, 0) is itself, so the half mixes
        # with the corners are the half corners.
        e = rate_ensemble([[0.0, 0.0]], [1.0])
        p = SetPortfolio.liquidity_capped(e)
        cfg = {"strategy": "liquidity-family", "lambda_grid": {"values": [0.5]}}
        fam = build_family(p, cfg, RiskSpec(ES, 0.5))
        c1, c2 = liquidity_corners(e)
        assert [s.label for s in fam[3:]] == [
            "mix(liquidity-projection,liquidity-corner-1,lam=0.5)",
            "mix(liquidity-projection,liquidity-corner-2,lam=0.5)",
        ]
        assert np.array_equal(fam[3].gains, 0.5 * c1.gains)
        assert np.array_equal(fam[4].gains, 0.5 * c2.gains)

    def test_mix_shape_mismatch(self):
        # Mixes combine selections of one portfolio, so a vertex of another
        # scenario space is refused before any mix is made.
        e = ScenarioEnsemble(np.zeros((1, 2)))
        with pytest.raises(ValidationError):
            SetPortfolio.segment_hull(e, [np.zeros((2, 2))])
        with pytest.raises(ValidationError, match="lambda grid"):
            build_family(
                SetPortfolio.segment_hull(e, [np.ones((1, 2))]),
                {"strategy": "segment-vertices", "lambda_grid": {"values": [[0.5]]}},
                RiskSpec(ES, 0.5),
            )


class TestAudit:
    def test_valid_strategies_pass_everywhere(self):
        rng = np.random.default_rng(35)
        gains = rng.standard_normal((20, 2))
        rates = rng.uniform(0.5, 2.0, 20)
        e = ScenarioEnsemble(gains, rates=rates)
        spec = RiskSpec(ES, 0.25)
        portfolios = [
            SetPortfolio.cone_det(e, ExchangeCone2D(2.0, 3.0)),
            SetPortfolio.random_halfplane(e),
            SetPortfolio.liquidity_capped(e, cap=(0.8, 1.2)),
            SetPortfolio.ball(e, radius=0.6),
            SetPortfolio.segment_hull(e, [gains + np.array([1.0, -0.5])]),
        ]
        for p in portfolios:
            audit = selection_auditor(p)
            for cfg in default_strategy_configs(p):
                family = build_family(p, cfg, spec)
                gaps = audit(np.stack([sel.gains for sel in family]))
                for sel, gap in zip(family, gaps):
                    assert gap <= 1e-9, (p.kind, sel.label)

    def test_invalid_selection_flagged(self):
        e = ScenarioEnsemble(np.zeros((3, 2)))
        p = SetPortfolio.ball(e, radius=1.0)
        cheat = SelectionMatrix(e.gains + np.array([2.0, 0.0]), "cheat")
        assert audit_selection(p, cheat) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 40, 301])
    def test_non_finite_selection_is_a_violation(self, n):
        # A selection with an infinite or nan entry has a nan excess, even
        # where the kind's formula would give a finite one (a liquidity
        # selection at -inf in one asset lies below the segment there).
        for p in audit_portfolios(n, seed=44):
            audit = selection_auditor(p)
            for row in {0, n // 2, n - 1}:
                for j in (0, 1):
                    for bad in (np.inf, -np.inf, np.nan):
                        gains = p.ensemble.gains.copy()
                        gains[row, j] = bad
                        with np.errstate(all="ignore"):
                            gaps = audit(np.stack([p.ensemble.gains, gains]))
                        assert gaps[0] <= selections._AUDIT_TOL, p.kind
                        assert np.isnan(gaps[1]), (p.kind, row, j, bad)

    def test_pipeline_refuses_non_finite_gap(self, monkeypatch):
        # A ball selection that equals the gains but for one +inf entry has
        # a nan gap, and the bundle pipeline names it.
        p = SetPortfolio.ball(ScenarioEnsemble(NONMARGIN_GAINS), radius=1.0)
        x = p.ensemble.gains.T.copy()

        def fill(out, lo, hi):
            out[0] = x
            out[0, 1, 0] = np.inf

        overflowed = selections.Family(1, lambda i: "overflowed", fill)
        monkeypatch.setattr(selections, "_bundle_families", lambda *args: [overflowed])
        with np.errstate(all="ignore"), pytest.raises(ValidationError, match="'overflowed'"):
            selections.selection_region(p, RiskSpec(ES, 0.5), audit=True)

    def test_pipeline_refuses_non_finite_point(self, monkeypatch):
        # A selection with a -inf entry in the tail has an infinite risk
        # point: the audit names it before the hull sees the point.
        p = SetPortfolio.ball(ScenarioEnsemble(NONMARGIN_GAINS), radius=1.0)
        x = p.ensemble.gains.T.copy()

        def fill(out, lo, hi):
            out[0] = x
            out[0, 0, 0] = -np.inf

        overflowed = selections.Family(1, lambda i: "overflowed", fill)
        families = selections._bundle_families(p, RiskSpec(ES, 0.5), None) + [overflowed]
        monkeypatch.setattr(selections, "_bundle_families", lambda *args: families)
        with np.errstate(all="ignore"):
            assert not np.isfinite(selections.selection_points(p, RiskSpec(ES, 0.5))).all()
            with pytest.raises(ValidationError, match="'overflowed'"):
                selections.selection_region(p, RiskSpec(ES, 0.5), audit=True)

    def test_cone_det_violation_caught_on_dual_ray(self):
        e = ScenarioEnsemble(np.zeros((1, 2)))
        p = SetPortfolio.cone_det(e, NONMARGIN_CONE)
        cheat = SelectionMatrix(np.array([[1.0, 1.0]]), "cheat")
        assert audit_selection(p, cheat) > 0.5

    def test_random_halfplane_wealth_gap_caught(self):
        # At rate 2 the position (0.1, 0.1) is worth 0.3 in asset 2, and
        # 0.1 in each asset comes to the same.
        e = rate_ensemble([[0.0, 0.0]], [2.0])
        p = SetPortfolio.random_halfplane(e)
        cheat = SelectionMatrix(np.array([[0.1, 0.1]]), "cheat")
        assert audit_selection(p, cheat) == pytest.approx(0.1, abs=1e-15)
        fair = SelectionMatrix(np.array([[0.5, -1.0]]), "fair")
        assert audit_selection(p, fair) <= 1e-12

    def test_shape_mismatch(self):
        e = ScenarioEnsemble(np.zeros((2, 2)))
        p = SetPortfolio.ball(e, radius=1.0)
        with pytest.raises(ValidationError):
            audit_selection(p, SelectionMatrix(np.zeros((3, 2)), "bad"))
        with pytest.raises(ValidationError):
            selection_auditor(p)(np.zeros((4, 3, 2)))
        with pytest.raises(ValidationError):
            selection_auditor(p)(np.zeros((2, 2)))

    @pytest.mark.parametrize("weights", ["uniform", "uneven"])
    def test_auditor_matches_one_selection_calls(self, weights):
        rng = np.random.default_rng(38)
        n = 24
        gains = rng.standard_normal((n, 2))
        rates = rng.uniform(0.5, 2.0, n)
        w = rng.random(n) if weights == "uneven" else np.ones(n)
        e = ScenarioEnsemble(gains, rates=rates, weights=w / w.sum())
        spec = RiskSpec(ES, 0.25)
        portfolios = [
            SetPortfolio.cone_det(e, ExchangeCone2D(2.0, 3.0)),
            SetPortfolio.random_halfplane(e),
            SetPortfolio.liquidity_capped(e, cap=(0.8, 1.2)),
            SetPortfolio.ball(e, radius=0.6),
            SetPortfolio.segment_hull(e, [gains[:, ::-1]]),
        ]
        for p in portfolios:
            sels = [
                sel
                for cfg in default_strategy_configs(p)
                for sel in build_family(p, cfg, spec)
            ]
            sels.append(SelectionMatrix(gains + np.array([0.7, 0.2]), "cheat"))
            gaps = selection_auditor(p)(np.stack([sel.gains for sel in sels]))
            assert gaps.tolist() == [audit_selection(p, sel) for sel in sels], p.kind
            assert gaps[-1] > 0.05, p.kind


def audit_portfolios(n, seed):
    """A portfolio of each kind, cone-det also without exchange and
    segment-hull with two extra vertices."""
    rng = np.random.default_rng(seed)
    gains = rng.standard_normal((n, 2)) * 3.0
    e = ScenarioEnsemble(gains, rates=rng.uniform(0.5, 2.0, n))
    return [
        SetPortfolio.cone_det(e, ExchangeCone2D(2.0, 3.0)),
        SetPortfolio.cone_det(e, ExchangeCone2D.no_exchange()),
        SetPortfolio.random_halfplane(e),
        SetPortfolio.liquidity_capped(e, cap=(0.8, 1.2)),
        SetPortfolio.ball(e, radius=0.6),
        SetPortfolio.segment_hull(e, [gains[:, ::-1], 0.5 * gains + 1.0]),
    ]


def audit_cases(n, seed):
    """(portfolio, (b, n, 2) stacked gains) of each ``audit_portfolios``
    portfolio: its default selections plus one that leaves the portfolio,
    above every vertex of the segment hull."""
    spec = RiskSpec(ES, 0.25)
    cases = []
    for p in audit_portfolios(n, seed):
        sels = [sel for cfg in default_strategy_configs(p) for sel in build_family(p, cfg, spec)]
        cheat = np.max((p.ensemble.gains,) + p.extra_gains, axis=0) + np.array([0.7, 0.2])
        cases.append((p, np.stack([sel.gains for sel in sels] + [cheat])))
    return cases


def face_normals(p, gains):
    """Directions, each an (n, 2) array with one row per scenario, or for the
    ball a (b, n, 2) array with one per selection too, at which the largest
    support gap of each selection of a (b, n, 2) block is attained: the
    normals of the faces of the attainable sets less the quadrant, and for
    the ball the normal where eta - excess * (1, 1) meets the disk."""
    E = p.ensemble
    n = E.n

    def each(u):
        return np.tile(np.asarray(u, dtype=float), (n, 1))

    normals = [each([1.0, 0.0]), each([0.0, 1.0])]
    if p.kind == "cone-det":
        normals += [each(p.cone.a1), each(p.cone.a2)]
    elif p.kind in ("cone-halfplane-random", "liquidity-capped"):
        normals.append(np.column_stack([E.rates, np.ones(n)]))
    elif p.kind == "segment-hull":
        vertices = (E.gains,) + p.extra_gains
        for i, v in enumerate(vertices):
            for w in vertices[i + 1 :]:
                s = w - v
                # The segment's normal that points into the quadrant, where
                # it has one; an axis elsewhere.
                up = np.column_stack([-s[:, 1], s[:, 0]])
                up = np.where((up >= 0).all(axis=1)[:, None], up, -up)
                up = np.maximum(up, 0.0)
                up[(up == 0).all(axis=1)] = 1.0
                normals.append(up)
    elif p.kind == "ball":
        touch = gains - p.definition.excess(p, gains)[..., None]
        normals.append(np.maximum(touch - E.gains, 0.0))
    return normals


def per_direction_gaps(p, gains):
    """Largest excess of each selection of a (b, n, 2) block by duality: the
    largest support gap (u . eta - h(u)) / (u1 + u2) over a 17-direction fan
    and ``face_normals``, one support row per scenario and direction."""
    fan = [np.tile(u, (p.ensemble.n, 1)) for u in direction_grid(17)]
    worst = np.full(gains.shape[:2], -np.inf)
    for U in fan + face_normals(p, gains):
        if U.ndim == 2:
            h = np.diagonal(p.support_values(U))
        else:
            h = np.array([np.diagonal(p.support_values(V)) for V in U])
        gap = ((gains * U).sum(axis=-1) - h) / U.sum(axis=-1)
        np.maximum(worst, gap, out=worst)
    return worst.max(axis=1)


def family_blocks(families, n, size):
    """Each family's selections filled through its ``fill`` into one buffer
    of ``size`` selections, as ``selection_points`` fills a buffer: yields
    each block as a (rows, n, 2) view, the family and the block's first
    index."""
    buf = np.empty((size, 2, n))
    for family in families:
        for lo in range(0, family.count, size):
            hi = min(family.count, lo + size)
            family.fill(buf, lo, hi)
            yield buf[: hi - lo].transpose(0, 2, 1), family, lo


def pipeline_gaps(p, families, rows):
    """Gaps of the families' selections audited as views of a block buffer
    of ``rows`` selections, the way ``selection_region`` hands its audited
    rows to the auditor."""
    audit = selection_auditor(p)
    return np.concatenate([
        audit(block) for block, _, _ in family_blocks(families, p.ensemble.n, rows)
    ])


class TestAuditProduct:
    @pytest.mark.parametrize("n", [1, 2, 40, 301])
    def test_gaps_match_per_direction_loop(self, n):
        # The excess is the largest support gap over the directions, and
        # the face normals attain it.
        for p, gains in audit_cases(n, seed=41):
            got = selection_auditor(p)(gains)
            with np.errstate(invalid="ignore"):
                want = per_direction_gaps(p, gains)
            scale = 1.0 + np.abs(gains).max()
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, p.kind
            assert got[-1] > 0.05, p.kind

    @pytest.mark.parametrize(
        "n, multiples, defaults",
        [(301, (1, 3, 5), True), (12_476, (1, 3, 5), False), (301, (1 / 43, 1 / 3), False)],
        ids=["selection-blocks", "long", "scenario-chunks"],
    )
    def test_gaps_do_not_depend_on_block_values(self, monkeypatch, n, multiples, defaults):
        # Selections that leave the portfolio at one scenario each, in eight
        # directions, at the first, middle and last scenarios, audited in
        # blocks and groups of as many selections as the block values
        # allow: below n, one selection at a time.
        spec = RiskSpec(ES, 0.25)
        cols = [0, 1, n // 2, n - 4, n - 3, n - 2, n - 1]
        steps = 0.7 * direction_grid(8)
        for p in audit_portfolios(n, seed=42):
            x = p.ensemble.gains.T.copy()

            def fill(out, lo, hi):
                for i in range(lo, hi):
                    j, d = divmod(i, len(steps))
                    out[i - lo] = x
                    out[i - lo, :, cols[j]] += steps[d]

            bumps = selections.Family(len(cols) * len(steps), str, fill)
            # Default selections in long rows or many blocks only slow it.
            configs = default_strategy_configs(p) if defaults else []
            families = selections._bundle_families(p, spec, configs) + [bumps]
            count = sum(f.count for f in families)
            runs = []
            for values in [int(m * n) for m in multiples] + [2**30]:
                monkeypatch.setattr(markets, "_BLOCK_VALUES", values)
                monkeypatch.setattr(selections, "_AUDIT_VALUES", values)
                rows = min(count, max(1, values // n))
                runs.append(pipeline_gaps(p, families, rows))
            for gaps in runs[1:]:
                assert same_bits(gaps, runs[0]), p.kind

    @pytest.mark.parametrize("n", [1, 7, 301])
    def test_one_selection_and_block_calls_agree(self, n):
        spec = RiskSpec(ES, 0.25)
        for p in audit_portfolios(n, seed=43):
            audit = selection_auditor(p)
            families = selections._bundle_families(p, spec, None)
            blocks = [block.copy() for block, _, _ in family_blocks(families, n, 7)]
            view = pipeline_gaps(p, families, 7)
            stacked = np.concatenate([audit(np.ascontiguousarray(b)) for b in blocks])
            one = [audit(b[i : i + 1])[0] for b in blocks for i in range(len(b))]
            assert same_bits(stacked, view), p.kind
            assert same_bits(one, view), p.kind
            sel = SelectionMatrix(blocks[-1][-1], "last")
            assert same_bits(audit_selection(p, sel), view[-1]), p.kind


def product_cases():
    """Cone-det portfolios whose quantile shift has a (t, s) product: the
    default rates, and one-way exchange either way, where one ray moves
    one coordinate only; with pi12 infinite the s-half holds no scenario
    in coordinate 2, and under gains with zeros of either sign some of its
    entries there are x +- 0 with x a zero."""
    return {
        "default": cone_det_runs(run_ensemble(300)),
        "pi21-inf": SetPortfolio.cone_det(run_ensemble(300), ExchangeCone2D(1.2, np.inf)),
        "pi12-inf": SetPortfolio.cone_det(run_ensemble(300), ExchangeCone2D(np.inf, 1.1)),
        "signed-zeros": SetPortfolio.cone_det(signed_zero_ensemble(300),
                                              ExchangeCone2D(np.inf, 1.1)),
    }


def product_family(p):
    configs = [{"strategy": "quantile-shift"}]
    (product,) = [f for f in selections._bundle_families(p, RiskSpec(ES, 0.05), configs)
                  if f.halves is not None]
    return product


def product_gains(family, n):
    """The (k * k, n, 2) selections of a (t, s) product made from its halves
    as ``_product_points`` makes their rows: in coordinate j, the t-half
    fl(fl(t * m1) + fl(x + m2)) where m2 is zero and the s-half
    fl(fl(s * m2) + fl(x + m1)) elsewhere."""
    x, m1, m2, scales = family.halves
    k = len(scales)
    gains = np.empty((k, k, 2, n))
    for j in range(2):
        at = m2[j] != 0.0
        t_rows = selections._scale_rows(scales, m1[j, ~at], x[j, ~at] + m2[j, ~at],
                                        np.empty((k, np.count_nonzero(~at))))
        s_rows = selections._scale_rows(scales, m2[j, at], x[j, at] + m1[j, at],
                                        np.empty((k, np.count_nonzero(at))))
        gains[:, :, j, ~at] = t_rows[:, None]
        gains[:, :, j, at] = s_rows[None, :]
    return gains.reshape(k * k, 2, n).transpose(0, 2, 1)


class TestAuditHalves:
    """An audited bundle rebuilds the (t, s) product's rows with its fill,
    while ``_product_points`` evaluates the selections its halves make:
    they are the same selections, bit for bit."""

    @pytest.mark.parametrize("values", [lambda n: n, lambda n: 3 * n, lambda n: 2**30],
                             ids=["n", "3n", "2^30"])
    @pytest.mark.parametrize("case", ["default", "pi21-inf", "pi12-inf", "signed-zeros"])
    def test_excess_matches_the_selections(self, monkeypatch, case, values):
        """The halves make the filled selections, signed zeros included, so
        the audit measures the selections whose points were evaluated, at
        any audit group size."""
        p = product_cases()[case]
        n = p.ensemble.n
        monkeypatch.setattr(selections, "_AUDIT_VALUES", values(n))
        product = product_family(p)
        x, _, m2, _ = product.halves
        moves = (m2 != 0.0).any(axis=0)
        if case == "signed-zeros":
            assert ((m2[:, moves] == 0.0) & (x[:, moves] == 0.0)).any()
        gains = np.empty((product.count, 2, n))
        product.fill(gains, 0, product.count)
        filled = gains.transpose(0, 2, 1)
        halves = product_gains(product, n)
        assert same_bits(halves, filled)
        assert same_bits(selection_auditor(p)(halves), selection_auditor(p)(filled))


AUDIT_KINDS = {
    "cone-det": lambda e: SetPortfolio.cone_det(e, ExchangeCone2D(1.2, 1.1)),
    "cone-det-one-way": lambda e: SetPortfolio.cone_det(e, ExchangeCone2D(np.inf, 1.1)),
    "random": SetPortfolio.random_halfplane,
    "liquidity": lambda e: SetPortfolio.liquidity_capped(e, cap=(1.0, 1.0)),
    "ball": lambda e: SetPortfolio.ball(e, radius=1.0),
    "segment": lambda e: SetPortfolio.segment_hull(e, [e.gains[:, ::-1]]),
}


def audited_bundle(monkeypatch, p, spec, configs):
    """The audited bundle and the (r, n, 2) gains of the selections its audit
    measured, recorded by wrapping ``selection_auditor``."""
    seen = []
    auditor = selections.selection_auditor

    def recording(portfolio):
        audit = auditor(portfolio)

        def record(gains):
            seen.append(np.array(gains))
            return audit(gains)

        return record

    with monkeypatch.context() as m:
        m.setattr(selections, "selection_auditor", recording)
        bundle = bounds.compute_bundle(p, spec, configs, audit=True)
    return bundle, np.concatenate(seen) if seen else np.empty((0,) + p.ensemble.gains.shape)


class TestAuditedRows:
    """An audited bundle audits the selections whose points are inner
    vertices, and the bundle is the unaudited one."""

    def test_rows_on_hull_vertices_are_taken(self, monkeypatch):
        # Hand-made points in place of the pipeline's, so that rows can
        # differ in the sign of a zero.  The ball's recession is the quadrant.
        p = SetPortfolio.ball(ScenarioEnsemble(np.zeros((1, 2))), radius=1.0)
        points = np.array([
            [0.0, 1.0],               # vertex
            [1.0, -0.0],              # vertex
            [-0.0, 1.0],              # row 0's twin up to the sign of zero
            [1.0, 0.0],               # row 1's twin up to the sign of zero
            [0.5, 0.5 - 1e-11],       # within TOL of the edge, outside it
            [2.0, 2.0],               # dominated
            [0.0, 1.0],               # row 0's exact twin
        ])

        def audited_rows():
            # The rows that each _audit_rows call is handed, then whether
            # the region was refused.
            families = [selections.Family(len(points), str, None)]
            seen = []
            with monkeypatch.context() as m:
                m.setattr(selections, "_bundle_families", lambda *args: families)
                m.setattr(selections, "_points", lambda *args: points)
                m.setattr(selections, "_audit_rows",
                          lambda portfolio, fams, rows: seen.append(rows.tolist()))
                try:
                    _, count = selections.selection_region(p, RiskSpec(ES, 0.5), audit=True)
                    assert count == len(points)
                except ValidationError:
                    seen.append("refused")
            return seen

        assert audited_rows() == [[0, 1, 2, 3, 6]]
        # Points that are not finite are audited first, before the hull
        # refuses them.
        points[4] = [np.nan, 0.5]
        points[5] = [2.0, -np.inf]
        assert audited_rows() == [[4, 5], "refused"]

    @pytest.mark.parametrize("kind", sorted(AUDIT_KINDS))
    def test_bundle_builds_one_inner_hull(self, monkeypatch, kind):
        # Audited or not, a bundle makes the kind's recession cone and the
        # inner hull once; the other hull is the marginal region's point.
        e = scenarios.generate(scenarios.GenSpec(n=200, seed=1, correlation=-0.5,
                                                 rate_mean=1.5, rate_vol=0.4))
        p = AUDIT_KINDS[kind](e)
        calls = []
        hull, recession = selections.region_from_points_plus_cone, p.definition.recession

        def counted_hull(points, cone):
            calls.append(("hull", len(points)))
            return hull(points, cone)

        def counted_recession(*args):
            calls.append("recession")
            return recession(*args)

        for module in (bounds, selections):
            monkeypatch.setattr(module, "region_from_points_plus_cone", counted_hull)
        monkeypatch.setattr(p.definition, "recession", counted_recession)
        for audit in (False, True):
            calls.clear()
            bundle = bounds.compute_bundle(p, RiskSpec(ES, 0.05), audit=audit)
            count = bundle.meta["selections"]
            assert calls == ["recession", ("hull", count), ("hull", 1)], (kind, audit)

    @pytest.mark.parametrize("values", [1, 3, 2**30], ids=["one", "three", "all"])
    @pytest.mark.parametrize("kind", ["cone-det", "liquidity", "segment"])
    def test_rebuilt_rows_are_the_selections(self, monkeypatch, kind, values):
        # Whatever rows the audit takes (runs that cross families and
        # buffers of one, three or every selection), it measures the
        # selections that gather_selections makes at those rows.
        e = scenarios.generate(scenarios.GenSpec(n=50, seed=2, correlation=-0.5,
                                                 rate_mean=1.5, rate_vol=0.4))
        p = AUDIT_KINDS[kind](e)
        spec = RiskSpec(ES, 0.05)
        sels = selections.gather_selections(p, spec)
        audit_rows = selections._audit_rows
        for rows in (np.arange(len(sels)), np.arange(0, len(sels), 3),
                     np.r_[0, 2:len(sels):2], np.r_[len(sels) - 1]):
            monkeypatch.setattr(selections, "_AUDIT_VALUES", values * p.ensemble.n)
            monkeypatch.setattr(selections, "_audit_rows",
                                lambda portfolio, families, _, rows=rows:
                                audit_rows(portfolio, families, rows))
            _, gains = audited_bundle(monkeypatch, p, spec, None)
            assert same_bits(gains, np.stack([sels[i].gains for i in rows])), (kind, rows)

    @pytest.mark.parametrize(
        "kind, case",
        # The random kind takes expected shortfall only.
        [(kind, case) for kind in sorted(AUDIT_KINDS)
         for case in ("n50", "n2000", "uneven", "neg-expectation", "twins")
         if (kind, case) != ("random", "neg-expectation")],
    )
    def test_vertices_come_from_audited_rows(self, monkeypatch, kind, case):
        n = 50 if case == "n50" else 2000 if case == "n2000" else 300
        spec = RiskSpec(NEG_EXPECTATION) if case == "neg-expectation" else RiskSpec(ES, 0.05)
        weights = None
        if case == "uneven":
            w = np.random.default_rng(3).random(n)
            weights = w / w.sum()
        e = scenarios.generate(scenarios.GenSpec(n=n, seed=1, correlation=-0.5,
                                                 rate_mean=1.5, rate_vol=0.4))
        p = AUDIT_KINDS[kind](ScenarioEnsemble(e.gains, rates=e.rates, weights=weights))
        configs = default_strategy_configs(p)
        if case == "twins":
            # The identity's twin, ahead of the default strategies, whose
            # t = 0 and lambda = 0, 1 selections repeat other rows.
            configs.insert(0, {"strategy": "explicit", "gains": p.ensemble.gains, "label": "twin"})
        bundle, gains = audited_bundle(monkeypatch, p, spec, configs)
        assert bundle.to_json() == bounds.compute_bundle(p, spec, configs).to_json()
        audited = sorted(tuple(bounds.risk_point(g, p.ensemble.weights, spec)) for g in gains)
        for vertex in bundle.inner.vertices:
            assert tuple(vertex) in audited, (kind, case, vertex)
        if case == "twins":
            twins = np.count_nonzero((gains == p.ensemble.gains).all(axis=(1, 2)))
            assert twins != 1, kind
        # The audited rows are exactly those whose point is an inner vertex.
        points = selections.selection_points(p, spec, configs)
        on_vertex = (points[:, None] == bundle.inner.vertices).all(axis=2).any(axis=1)
        assert audited == sorted(map(tuple, points[on_vertex])), (kind, case)


def family_cases():
    rng = np.random.default_rng(39)
    n = 30
    gains = rng.standard_normal((n, 2))
    gains[:3] = [[0.0, -0.0], [-0.0, 1.5], [2.5, 0.0]]
    e = ScenarioEnsemble(gains, rates=rng.uniform(0.5, 2.0, n))
    t_values = {"values": [0.0, 1.0] + rng.uniform(0.0, 3.0, 6).tolist()}
    lam = {"values": [0.0, 1.0] + rng.uniform(0.0, 1.0, 5).tolist()}
    cone_det = SetPortfolio.cone_det(e, ExchangeCone2D(2.0, 3.0))
    random = SetPortfolio.random_halfplane(e)
    liquidity = SetPortfolio.liquidity_capped(e, cap=(0.8, 1.2))
    segment = SetPortfolio.segment_hull(e, [gains[:, ::-1], gains * 0.5 + 0.3])
    return [
        (cone_det, [{"strategy": "quantile-shift", "side": "both"},
                    {"strategy": "quantile-shift", "side": "ray1", "level": 0.3},
                    {"strategy": "quantile-shift", "side": "ray2"},
                    {"strategy": "quantile-shift", "level": 0.4, "t_grid": t_values},
                    {"strategy": "corner-selections"}]),
        (random, [{"strategy": "frictionless"},
                  {"strategy": "frictionless", "t_grid": t_values},
                  {"strategy": "axis-transfer"}]),
        (liquidity, [{"strategy": "liquidity-family"},
                     {"strategy": "liquidity-family", "lambda_grid": lam}]),
        (SetPortfolio.ball(e, radius=0.6), [{"strategy": "ball-boost"}]),
        (segment, [{"strategy": "segment-vertices"},
                   {"strategy": "segment-vertices", "lambda_grid": lam}]),
    ]


class TestFamilies:
    """Families fill the bits and labels that one object per selection had."""

    @pytest.mark.parametrize("case", range(5))
    def test_build_family_matches_per_selection_expressions(self, case):
        p, configs = family_cases()[case]
        spec = RiskSpec(ES, 0.25)
        for cfg in configs:
            made = build_family(p, cfg, spec)
            expected = reference_selections(p, cfg, spec)
            assert [s.label for s in made] == [label for _, label in expected], cfg
            for sel, (gains, label) in zip(made, expected):
                assert same_bits(sel.gains, gains), (cfg, label)

    @pytest.mark.parametrize("case", range(5))
    def test_blocks_match_per_selection_expressions(self, case):
        # Blocks of every size split families and (t, s) runs at any row.
        p, configs = family_cases()[case]
        spec = RiskSpec(ES, 0.25)
        expected = [(p.ensemble.gains, "identity")] + [
            made for cfg in configs for made in reference_selections(p, cfg, spec)
            if made[1] != "identity"
        ]
        families = selections._bundle_families(p, spec, configs)
        assert sum(f.count for f in families) == len(expected)
        for size in (1, 2, 5, 34, 35, 36, len(expected)):
            gains, labels = [], []
            for block, family, lo in family_blocks(families, p.ensemble.n, size):
                rows = len(block)
                assert block.shape == (rows, p.ensemble.n, 2)
                gains.append(block.copy())
                labels += [family.label(lo + r) for r in range(rows)]
            assert labels == [label for _, label in expected], size
            assert same_bits(np.concatenate(gains), np.stack([g for g, _ in expected])), size

    def test_identity_dropped_from_later_families(self):
        # A repeated identity config adds nothing; an explicit selection
        # that carries the label is a selection like any other.
        e = ScenarioEnsemble(NONMARGIN_GAINS)
        p = SetPortfolio.cone_det(e, NONMARGIN_CONE)
        shifted = NONMARGIN_GAINS - 1.0
        configs = [
            {"strategy": "identity"},
            {"strategy": "explicit", "gains": shifted.tolist(), "label": "identity"},
            {"strategy": "identity"},
            {"strategy": "explicit", "gains": NONMARGIN_GAINS.tolist(), "label": "kept"},
        ]
        families = selections._bundle_families(p, RiskSpec(ES, 0.75), configs)
        assert [f.label(0) for f in families] == ["identity", "identity", "kept"]
        made = [m for f in families for m in selections._matrices(f, e.n)]
        assert same_bits(made[0].gains, NONMARGIN_GAINS)
        assert same_bits(made[1].gains, shifted)
        bundle = bounds.compute_bundle(p, RiskSpec(ES, 0.75), strategies=configs[1:2])
        assert bundle.meta["selections"] == 2


def points_cases():
    """family_cases, then a cone-det case whose rows of 1500 scenarios select
    their expected-shortfall tail by a partition in place."""
    rng = np.random.default_rng(40)
    long_rows = SetPortfolio.cone_det(ScenarioEnsemble(rng.standard_normal((1500, 2))),
                                      ExchangeCone2D(1.5, 2.5))
    return family_cases() + [
        (long_rows, [{"strategy": "quantile-shift", "t_grid": {"count": 5}},
                     {"strategy": "corner-selections"}]),
    ]


class TestSelectionPoints:
    """The bundle's pipeline: blocks of one buffer, one kernel call each."""

    @pytest.mark.parametrize("case", range(6))
    @pytest.mark.parametrize("spec", [RiskSpec(ES, 0.25), RiskSpec(NEG_EXPECTATION),
                                      RiskSpec(NEG_ESSINF)], ids=lambda s: s.kind)
    def test_points_match_per_selection_risks(self, monkeypatch, case, spec):
        # Against one risk point per selection matrix, with equal and with
        # uneven weights, for blocks of one row, of seven rows and one block.
        p, configs = points_cases()[case]
        e = p.ensemble
        w = np.random.default_rng(case).random(e.n)
        uneven = dataclasses.replace(
            p, ensemble=ScenarioEnsemble(e.gains, rates=e.rates, weights=w / w.sum())
        )
        for q in (p, uneven):
            expected = np.array([
                bounds.risk_of_selection(sel, q.ensemble.weights, spec)
                for sel in selections.gather_selections(q, spec, configs)
            ])
            for rows in (1, 7, 2**20):
                monkeypatch.setattr(markets, "_BLOCK_VALUES", rows * e.n)
                points = selections.selection_points(q, spec, configs)
                assert same_bits(points, expected), (rows, q is p)

    def test_each_block_reaches_the_kernel_once(self, monkeypatch):
        # No segment-hull strategy evaluates a risk while it is built, so
        # every kernel call is one block of one family: both coordinates of
        # each of its selections, sorted in place.
        p, configs = family_cases()[4]
        n = p.ensemble.n
        spec = RiskSpec(ES, 0.25)
        calls = []

        def counted(spec, values, weights, overwrite_input=False):
            calls.append((values.shape, overwrite_input))
            return risk_rows(spec, values, weights, overwrite_input=overwrite_input)

        monkeypatch.setattr(selections, "risk_rows", counted)
        monkeypatch.setattr(markets, "_BLOCK_VALUES", 7 * n)
        selections.selection_points(p, spec, configs)
        counts = [f.count for f in selections._bundle_families(p, spec, configs)]
        assert max(counts) > 7
        assert calls == [
            ((2 * min(7, count - lo), n), True) for count in counts for lo in range(0, count, 7)
        ]

    def test_selection_matrices_own_their_gains(self, monkeypatch):
        # build_family and gather_selections hand out no view of a reused
        # block buffer, however small the pipeline's blocks are.
        p, configs = family_cases()[0]
        spec = RiskSpec(ES, 0.25)
        made = [selections.gather_selections(p, spec, configs),
                [sel for cfg in configs for sel in build_family(p, cfg, spec)]]
        monkeypatch.setattr(markets, "_BLOCK_VALUES", p.ensemble.n)
        small = [selections.gather_selections(p, spec, configs),
                 [sel for cfg in configs for sel in build_family(p, cfg, spec)]]
        for before, after in zip(made, small):
            assert [s.label for s in after] == [s.label for s in before]
            assert all(same_bits(a.gains, b.gains) for a, b in zip(after, before))


class TestBuildFamily:
    def test_unknown_strategy(self):
        e = ScenarioEnsemble(np.zeros((1, 2)))
        p = SetPortfolio.ball(e, radius=1.0)
        with pytest.raises(ValidationError):
            build_family(p, {"strategy": "teleport"}, RiskSpec(ES, 0.5))

    def test_kind_mismatch(self):
        e = ScenarioEnsemble(np.zeros((1, 2)))
        p = SetPortfolio.ball(e, radius=1.0)
        with pytest.raises(ValidationError):
            build_family(p, {"strategy": "liquidity-family"}, RiskSpec(ES, 0.5))

    def test_explicit_gains(self):
        e = ScenarioEnsemble(np.zeros((1, 2)))
        p = SetPortfolio.ball(e, radius=1.0)
        fam = build_family(
            p,
            {"strategy": "explicit", "gains": [[0.5, 0.5]], "label": "probe"},
            RiskSpec(ES, 0.5),
        )
        assert len(fam) == 1 and fam[0].label == "probe"

    def test_quantile_shift_custom_grid(self):
        e = ScenarioEnsemble(np.array([[0.0, 0.0], [2.0, 1.0]]))
        p = SetPortfolio.cone_det(e, NONMARGIN_CONE)
        fam = build_family(
            p,
            {
                "strategy": "quantile-shift",
                "side": "ray2",
                "level": 0.5,
                "t_grid": {"values": [0.0, 1.0, 2.0]},
            },
            RiskSpec(ES, 0.75),
        )
        assert len(fam) == 3

    def test_default_configs_cover_every_kind(self):
        rng = np.random.default_rng(36)
        gains = rng.standard_normal((6, 2))
        e = ScenarioEnsemble(gains, rates=rng.uniform(0.5, 2.0, 6))
        for p, n_expected in [
            (SetPortfolio.cone_det(e, NONMARGIN_CONE), 5),
            (SetPortfolio.random_halfplane(e), 3),
            (SetPortfolio.liquidity_capped(e), 2),
            (SetPortfolio.ball(e, radius=1.0), 2),
            (SetPortfolio.segment_hull(e, [gains * 0.5]), 2),
        ]:
            cfgs = default_strategy_configs(p)
            assert len(cfgs) == n_expected
            assert cfgs[0] == {"strategy": "identity"}
            for cfg in cfgs:
                assert build_family(p, cfg, RiskSpec(ES, 0.25))


def run_ensemble(n, seed=3, scale=1.0, ties=False, weights=None):
    rng = np.random.default_rng(seed)
    gains = scale * rng.standard_normal((n, 2)) * (1.0, 1.3)
    if ties:
        gains = np.repeat(gains[::3], 3, axis=0)[:n]
    return ScenarioEnsemble(gains, rates=rng.lognormal(np.log(1.5), 0.3, n), weights=weights)


def cone_det_runs(e):
    return SetPortfolio.cone_det(e, ExchangeCone2D(1.2, 1.1))


def origin_bound_runs():
    p = SetPortfolio.cone_det(run_ensemble(3000), ExchangeCone2D(5.0, 5.0))
    return (p, *quantile_shift_projection(p.ensemble, p.cone, 0.9))


def pruned_points(monkeypatch, p, spec, configs, whole=False, audit=False):
    """The points and the number of selection values that the runs (scaled
    runs and convex mixes) built for them, through ``selection_points`` or,
    with ``audit``, through an audited ``selection_region``; with ``whole``
    every selection takes whole rows."""
    counted, made = [], []
    points_of = selections._points

    def recording(*args):
        made.append(points_of(*args))
        return made[-1]

    def counting(rows):
        def count(params, x, y, out):
            counted.append(out.size)
            return rows(params, x, y, out)

        return count

    with monkeypatch.context() as m:
        for name in ("_scale_rows", "_mix_rows"):
            m.setattr(selections, name, counting(getattr(selections, name)))
        if whole:
            m.setattr(riskstats, "_prunable_tail", lambda *args: None)
        if not audit:
            return selections.selection_points(p, spec, configs), sum(counted)
        m.setattr(selections, "_points", recording)
        selections.selection_region(p, spec, configs, audit=True)
    (points,) = made
    return points, sum(counted)


def whole_share(monkeypatch, p, spec, configs):
    """Check that the pruned points have the bits of whole rows; return the
    share of the whole rows' values that the pruned runs built."""
    points, values = pruned_points(monkeypatch, p, spec, configs)
    whole, whole_values = pruned_points(monkeypatch, p, spec, configs, whole=True)
    count = sum(f.count for f in selections._bundle_families(p, spec, configs)
                if f.runs is not None)
    assert whole_values == 2 * count * p.ensemble.n
    assert same_bits(points, whole)
    return values / whole_values


class TestPrunedRuns:
    """Scaled runs are evaluated only on the scenarios that can reach their
    expected-shortfall tail, with the bits of whole rows."""

    @pytest.mark.parametrize("level", [0.01, 0.05, 0.25, riskstats.PRUNE_MAX_TAIL])
    @pytest.mark.parametrize("side", ["both", "ray1", "ray2"])
    def test_bits_at_the_threshold(self, monkeypatch, side, level):
        spec = RiskSpec(ES, level)
        configs = [{"strategy": "quantile-shift", "side": side}]
        if side != "both":
            for n in (riskstats.PARTITION_MIN_N - 1, riskstats.PARTITION_MIN_N):
                p = cone_det_runs(run_ensemble(n))
                share = whole_share(monkeypatch, p, spec, configs)
                assert (share < 1) == (n >= riskstats.PARTITION_MIN_N), n
            return
        # The (t, s) product is evaluated from its halves at any n: each of
        # the k rows of each half is built once, 1 / k of whole rows' values.
        for n in (40, riskstats.PARTITION_MIN_N - 1, riskstats.PARTITION_MIN_N, 3000):
            p = cone_det_runs(run_ensemble(n))
            share = whole_share(monkeypatch, p, spec, configs)
            (product,) = selections._bundle_families(p, spec, configs)[1:]
            # At PRUNE_MAX_TAIL the tail may round to one scenario past it.
            fits = riskstats._prunable_tail(spec, p.ensemble.weights, 0) is not None
            assert fits or level == riskstats.PRUNE_MAX_TAIL
            assert share == (1 / len(product.halves[3]) if fits else 1), n

    @pytest.mark.parametrize("level", [0.01, 0.25])
    def test_bits_on_large_rows(self, monkeypatch, level):
        p = cone_det_runs(run_ensemble(30_000, seed=6))
        configs = [{"strategy": "quantile-shift", "side": "both"}]
        assert whole_share(monkeypatch, p, RiskSpec(ES, level), configs) < 1

    @pytest.mark.parametrize(
        "portfolio, configs",
        [
            (lambda: cone_det_runs(run_ensemble(3000, ties=True)),
             [{"strategy": "quantile-shift"}]),
            (lambda: cone_det_runs(run_ensemble(3000, scale=1e6)),
             [{"strategy": "quantile-shift"}]),
            # An unsorted grid that holds 0 and 1: the run's ends are its
            # smallest and largest scales, not its first and last.
            (lambda: cone_det_runs(run_ensemble(3000)),
             [{"strategy": "quantile-shift", "t_grid": {"values": [2.0, 0.0, 0.5, 1.0, 0.25]}},
              {"strategy": "quantile-shift", "side": "ray2",
               "t_grid": {"values": [1.0, 3.0, 0.0]}}]),
            # Recentred at the upper quantiles under wide rates, most
            # scenarios are bound to the origin and do not move along runs.
            (lambda: origin_bound_runs()[0], [{"strategy": "quantile-shift", "level": 0.9}]),
            # Without exchange each ray moves one coordinate: the product's
            # t-half is constant in coordinate 1 and its s-half holds no
            # scenario in coordinate 2.
            (lambda: SetPortfolio.cone_det(run_ensemble(3000), ExchangeCone2D.no_exchange()),
             [{"strategy": "quantile-shift"}]),
            # One infinite rate: the s-half holds no scenario in coordinate 2,
            # and the t-half moves in both.
            (lambda: SetPortfolio.cone_det(run_ensemble(3000), ExchangeCone2D(np.inf, 1.1)),
             [{"strategy": "quantile-shift"}]),
        ],
        ids=["ties", "large-gains", "explicit-grid", "origin-bound", "no-exchange",
             "one-way-exchange"],
    )
    def test_bits_on_awkward_runs(self, monkeypatch, portfolio, configs):
        p = portfolio()
        assert whole_share(monkeypatch, p, RiskSpec(ES, 0.05), configs) < 1

    def test_origin_bound_scenarios_do_not_move(self):
        p, eta, ray = origin_bound_runs()
        assert np.count_nonzero(ray == 0) > p.ensemble.n / 2
        assert not eta[ray == 0].any()

    def test_frictionless_runs(self, monkeypatch):
        p = SetPortfolio.random_halfplane(run_ensemble(riskstats.PARTITION_MIN_N))
        configs = [{"strategy": "frictionless"}, {"strategy": "axis-transfer"}]
        assert whole_share(monkeypatch, p, RiskSpec(ES, 0.05), configs) < 1

    def test_default_bundle_builds_a_fraction_of_the_values(self, monkeypatch):
        # At the size of the benchmark's cone-det bundle, the 35 x 35
        # product of quantile-shift[both].
        n = 10_000
        p = cone_det_runs(run_ensemble(n, seed=7))
        configs = [{"strategy": "quantile-shift", "side": "both"}]
        _, values = pruned_points(monkeypatch, p, RiskSpec(ES, 0.05), configs)
        assert values <= 0.4 * 1225 * 2 * n

    def test_default_bundle_memory_stays_bounded(self):
        # The default cone-det bundle at n = 1e4.  Its selections peaked at
        # 3.65 MiB here with the product as pruned runs, and at 3.9 MiB with
        # the product's half rows built whole; with half rows and pairs in
        # bounded blocks, at 3.54 MiB.
        e = scenarios.generate(scenarios.GenSpec(n=10_000, seed=7, correlation=-0.5))
        p = cone_det_runs(e)
        spec = RiskSpec(ES, 0.05)
        # The first call of a process allocates more, once.
        selections.selection_points(p, spec)
        tracemalloc.start()
        try:
            selections.selection_points(p, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.64 * 2**20

    def test_audited_default_bundle_memory_stays_bounded(self):
        # The audited default cone-det bundle at n = 1e4 peaked at 5.87 MiB
        # with its product audited and evaluated on whole rows.  Audited
        # bundles now evaluate as plain ones do and then rebuild only the
        # few rows behind the inner vertices, so the plain path sets the
        # peak.
        e = scenarios.generate(scenarios.GenSpec(n=10_000, seed=7, correlation=-0.5))
        p = cone_det_runs(e)
        spec = RiskSpec(ES, 0.05)
        selections.selection_region(p, spec, audit=True)
        tracemalloc.start()
        try:
            selections.selection_region(p, spec, audit=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.87 * 2**20

    def test_audited_product_takes_halves_others_take_whole_rows(self, monkeypatch):
        n = riskstats.PARTITION_MIN_N
        weights = np.random.default_rng(1).random(n)
        even = cone_det_runs(run_ensemble(n))
        uneven = cone_det_runs(run_ensemble(n, weights=weights / weights.sum()))
        configs = [{"strategy": "quantile-shift"}, {"strategy": "corner-selections"}]
        k = len(selections._bundle_families(even, RiskSpec(ES, 0.05), configs)[1].halves[3])
        for p, spec, audit in ((even, RiskSpec(ES, 0.05), False),
                               (even, RiskSpec(ES, 0.05), True),
                               (uneven, RiskSpec(ES, 0.05), False),
                               (even, RiskSpec(NEG_EXPECTATION), False)):
            points, values = pruned_points(monkeypatch, p, spec, configs, audit=audit)
            # The product builds the k rows of each half in each coordinate;
            # audited, its fill also rebuilds the audited rows, 2 n values
            # each.
            if p is even and spec.kind == ES:
                rebuilt = audited_counts(monkeypatch, p, spec, configs)[0] if audit else 0
                assert values == 2 * k * n + 2 * n * rebuilt
            else:
                assert values == k * k * 2 * n
            expected = [bounds.risk_of_selection(sel, p.ensemble.weights, spec)
                        for sel in selections.gather_selections(p, spec, configs)]
            assert same_bits(points, expected)
        # The audit rebuilt a few of the product's rows.
        assert 0 < rebuilt < k * k / 10


def audited_counts(monkeypatch, p, spec, configs):
    """The number of audited rows, those whose points are inner vertices,
    among a bundle's runs families and among all its families, counted by
    wrapping ``_audit_rows``."""
    families = selections._bundle_families(p, spec, configs)
    runs = np.concatenate([np.full(f.count, f.runs is not None) for f in families])
    counted = []
    audit_rows = selections._audit_rows

    def count(portfolio, families, rows):
        counted.append((int(np.count_nonzero(runs[rows])), len(rows)))
        return audit_rows(portfolio, families, rows)

    with monkeypatch.context() as m:
        m.setattr(selections, "_audit_rows", count)
        selections.selection_region(p, spec, configs, audit=True)
    (got,) = counted
    return got


def mix_portfolio(kind, e):
    if kind == "liquidity":
        return SetPortfolio.liquidity_capped(e, cap=(0.8, 1.2))
    # Two extra vertex sets: the family holds two mixes.
    shift = np.random.default_rng(8).standard_normal(e.gains.shape)
    return SetPortfolio.segment_hull(e, [e.gains[:, ::-1], e.gains + shift])


def mix_configs(kind):
    name = {"liquidity": "liquidity-family", "segment": "segment-vertices"}[kind]
    # The default grid, and an unsorted explicit one that repeats 0 and 1.
    return [{"strategy": name},
            {"strategy": name, "lambda_grid": {"values": [1.0, 0.0, 0.3, 1.0, 0.0, 0.85]}}]


def signed_zero_ensemble(n):
    # Non-negative gains, half of them zeros of either sign: the tail is
    # made of zeros.
    rng = np.random.default_rng(9)
    gains = np.abs(rng.standard_normal((n, 2)))
    zeros = rng.random((n, 2)) < 0.5
    gains[zeros] = np.where(rng.random(np.count_nonzero(zeros)) < 0.5, -0.0, 0.0)
    return ScenarioEnsemble(gains, rates=rng.lognormal(np.log(1.5), 0.3, n))


class TestPrunedMixes:
    """Convex mixes are evaluated only on the scenarios that can reach their
    expected-shortfall tail, with the bits of whole rows."""

    @pytest.mark.parametrize("level", [0.01, 0.05, 0.25, riskstats.PRUNE_MAX_TAIL])
    @pytest.mark.parametrize("kind", ["liquidity", "segment"])
    def test_bits_at_the_threshold(self, monkeypatch, kind, level):
        spec = RiskSpec(ES, level)
        for n in (riskstats.PRUNE_MIN_N - 1, riskstats.PRUNE_MIN_N):
            p = mix_portfolio(kind, run_ensemble(n))
            share = whole_share(monkeypatch, p, spec, mix_configs(kind))
            # At PRUNE_MAX_TAIL the tail may round to one scenario past it.
            fits = riskstats._prunable_tail(spec, p.ensemble.weights, 0) is not None
            assert fits or level == riskstats.PRUNE_MAX_TAIL
            assert (share < 1) == (fits and n >= riskstats.PRUNE_MIN_N), n

    @pytest.mark.parametrize(
        "ensemble",
        [
            lambda n: run_ensemble(n, ties=True),
            lambda n: run_ensemble(n, scale=1e6),
            signed_zero_ensemble,
        ],
        ids=["ties", "large-gains", "signed-zeros"],
    )
    @pytest.mark.parametrize("kind", ["liquidity", "segment"])
    def test_bits_on_awkward_mixes(self, monkeypatch, kind, ensemble):
        p = mix_portfolio(kind, ensemble(riskstats.PRUNE_MIN_N))
        assert whole_share(monkeypatch, p, RiskSpec(ES, 0.05), mix_configs(kind)) < 1

    def test_mixes_past_half_the_largest_float_take_every_scenario(self, monkeypatch):
        e = run_ensemble(riskstats.PRUNE_MIN_N)
        extra = e.gains[:, ::-1].copy()
        extra[0] = 1.7e308
        p = SetPortfolio.segment_hull(e, [extra])
        configs = [{"strategy": "segment-vertices", "lambda_grid": {"values": [0.0, 1.0, 0.5]}}]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert whole_share(monkeypatch, p, RiskSpec(ES, 0.05), configs) == 1

    def test_bounds_hold_every_mix(self):
        rng = np.random.default_rng(5)
        n = 4000
        a, b = 10.0 ** rng.uniform(-320.0, 300.0, (2, 2, n)) * rng.choice([-1.0, 1.0], (2, 2, n))
        # Near and equal pairs, and pairs of one magnitude.
        b[:, :500] = a[:, :500] * (1.0 + 1e-15 * rng.standard_normal((2, 500)))
        b[:, 500:600] = a[:, 500:600]
        b[:, 600:1000] = 10.0 ** rng.uniform(-1.0, 1.0, (2, 400)) * np.sign(b[:, 600:1000])
        a[:, 600:1000] = 10.0 ** rng.uniform(-1.0, 1.0, (2, 400))
        lams = np.concatenate([[0.0, 1.0, 0.5], rng.random(60), 1.0 - 2.0 ** -rng.integers(1, 54, 20)])
        low, high = selections._mix_bounds(lams, a, b)
        rows = selections._mix_rows(lams, a, b, np.empty((len(lams), 2, n)))
        assert (low <= rows).all() and (rows <= high).all()
        assert (low <= np.minimum(a, b)).all() and (np.maximum(a, b) <= high).all()

    def test_support_grid_liquidity_bundle_builds_half_the_mix_values(self, monkeypatch):
        # At the size and level of the benchmark's liquidity-capped bundle.
        n = 50_000
        p = SetPortfolio.liquidity_capped(run_ensemble(n, seed=7))
        _, values = pruned_points(monkeypatch, p, RiskSpec(ES, 0.05), None)
        assert values <= 0.5 * 2 * 21 * 2 * n

    def test_uneven_weights_and_other_functionals_take_whole_rows(self, monkeypatch):
        n = riskstats.PRUNE_MIN_N
        weights = np.random.default_rng(1).random(n)
        configs = mix_configs("liquidity")
        even = mix_portfolio("liquidity", run_ensemble(n))
        uneven = mix_portfolio("liquidity", run_ensemble(n, weights=weights / weights.sum()))
        whole = 2 * (21 + 6) * 2 * n
        for p, spec, audit in ((even, RiskSpec(ES, 0.05), True),
                               (uneven, RiskSpec(ES, 0.05), False),
                               (even, RiskSpec(NEG_EXPECTATION), False)):
            points, values = pruned_points(monkeypatch, p, spec, configs, audit=audit)
            if audit:
                # Audited mixes are pruned as unaudited ones are; the audit
                # rebuilds its rows, 2 n values each.
                pruned = pruned_points(monkeypatch, p, spec, configs)[1]
                rebuilt = audited_counts(monkeypatch, p, spec, configs)[0]
                assert values == pruned + 2 * n * rebuilt
            else:
                assert values == whole
            expected = [bounds.risk_of_selection(sel, p.ensemble.weights, spec)
                        for sel in selections.gather_selections(p, spec, configs)]
            assert same_bits(points, expected)
