import numpy as np
import pytest

from svrisk import bounds, selections
from svrisk.errors import ValidationError
from svrisk.markets import (
    ExchangeCone2D,
    ScenarioEnsemble,
    SetPortfolio,
)
from svrisk.riskstats import ES, RiskSpec
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

    def test_cone_det_violation_caught_on_dual_ray(self):
        e = ScenarioEnsemble(np.zeros((1, 2)))
        p = SetPortfolio.cone_det(e, NONMARGIN_CONE)
        cheat = SelectionMatrix(np.array([[1.0, 1.0]]), "cheat")
        assert audit_selection(p, cheat) > 0.5

    def test_random_halfplane_wealth_gap_caught(self):
        e = rate_ensemble([[0.0, 0.0]], [2.0])
        p = SetPortfolio.random_halfplane(e)
        cheat = SelectionMatrix(np.array([[0.1, 0.1]]), "cheat")
        assert audit_selection(p, cheat) > 0.1
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
        # Rates whose dual ray lies on the audit fan, so the random kind's
        # support is finite on only some scenarios in those directions.
        rates[:3] = 1.0 / np.tan(np.linspace(0.0, np.pi / 2.0, 64)[[10, 32, 50]])
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
            # Each one-selection call computes every support row again, so
            # compare a spread of rows plus the last three.
            picks = sorted(set(range(0, len(sels), max(1, len(sels) // 30)))
                           | {len(sels) - 3, len(sels) - 2, len(sels) - 1})
            expected = [audit_selection(p, sels[i]) for i in picks]
            assert gaps[picks].tolist() == expected, p.kind
            assert gaps[-1] > 0.05, p.kind


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
            buf = np.full((size, p.ensemble.n, 2), np.nan)
            gains, labels = [], []
            for rows, parts in bounds._filled_blocks(families, buf):
                gains.append(buf[:rows].copy())
                ends = [first for first, _, _ in parts[1:]] + [rows]
                for (first, family, lo), end in zip(parts, ends):
                    labels += [family.label(lo + r) for r in range(end - first)]
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
