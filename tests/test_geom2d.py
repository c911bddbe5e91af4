import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from svrisk.bounds import sandwich_violation
from svrisk.errors import ValidationError
from svrisk.geom2d import (
    ConvexCone2D,
    HalfSpaceSet,
    RiskRegion2D,
    _check_upper_cone,
    _clip_to_window,
    _cross,
    _rot_ccw,
    _rot_cw,
    canonical_json,
    hausdorff_on_window,
    region_from_halfspaces,
    region_from_points_plus_cone,
)

ORTHANT = ConvexCone2D((1.0, 0.0), (0.0, 1.0))
SQ26 = math.sqrt(26.0)


def solvency_rays(pi):
    """Rays of the reflected exchange cone for symmetric bid-ask pi."""
    return ConvexCone2D((pi, -1.0), (-1.0, pi))


def halfspace_set(pairs):
    dirs = np.array([u for u, _ in pairs], dtype=float)
    offs = np.array([c for _, c in pairs], dtype=float)
    return HalfSpaceSet(dirs, offs)


class TestConvexCone2D:
    def test_dual_is_made_once_per_cone(self):
        rng = np.random.default_rng(23)
        for cone in fuzz_cones(rng):
            dual = cone.positive_dual()
            fresh = ConvexCone2D(_rot_cw(cone.hi), _rot_ccw(cone.lo))
            assert dual.lo.tobytes() == fresh.lo.tobytes()
            assert dual.hi.tobytes() == fresh.hi.tobytes()
            regions = [region_from_points_plus_cone(rng.standard_normal((5, 2)), cone)
                       for _ in range(3)]
            assert all(r._dual is dual for r in regions)

    def test_orthant_membership(self):
        assert ORTHANT.contains((1.0, 0.0))
        assert ORTHANT.contains((0.0, 1.0))
        assert ORTHANT.contains((0.5, 0.5))
        assert ORTHANT.contains((0.0, 0.0))
        assert not ORTHANT.contains((-1e-3, 1.0))

    def test_from_rays_normalizes_order(self):
        a = ConvexCone2D.from_rays((0.0, 1.0), (1.0, 0.0))
        assert a.approx_equal(ORTHANT)
        with pytest.raises(ValidationError):
            ConvexCone2D((0.0, 1.0), (1.0, 0.0))

    def test_halfplane_snap(self):
        c = ConvexCone2D((1.0, 0.0), (-1.0, 1e-13))
        assert c.is_halfplane
        assert c.contains((-5.0, 0.0)) and c.contains((0.0, 3.0))
        assert not c.contains((0.0, -1e-3))

    def test_ray_snap(self):
        c = ConvexCone2D((1.0, 0.0), (1.0, 1e-13))
        assert c.is_ray
        assert c.contains((2.0, 0.0))
        assert not c.contains((0.0, 1e-3))

    def test_wider_than_halfplane_rejected(self):
        with pytest.raises(ValidationError):
            ConvexCone2D((1.0, 0.0), (-1.0, -1.0))

    def test_positive_dual_orthant(self):
        assert ORTHANT.positive_dual().approx_equal(ORTHANT)

    def test_positive_dual_halfplane_is_ray(self):
        upper = ConvexCone2D((1.0, 0.0), (-1.0, 0.0))
        dual = upper.positive_dual()
        assert dual.is_ray
        assert dual.contains((0.0, 1.0))

    def test_positive_dual_solvency(self):
        dual = solvency_rays(5.0).positive_dual()
        assert dual.approx_equal(ConvexCone2D((5.0, 1.0), (1.0, 5.0)))

    def test_bipolar_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            theta = np.sort(rng.uniform(0, np.pi, 2))
            cone = ConvexCone2D(
                (math.cos(theta[0]), math.sin(theta[0])),
                (math.cos(theta[1]), math.sin(theta[1])),
            )
            back = cone.positive_dual().positive_dual()
            assert back.approx_equal(cone)

    def test_contains_cone(self):
        # A cone holds another exactly when it holds both of its generators.
        wide = solvency_rays(5.0)
        assert wide.contains(ORTHANT.lo) and wide.contains(ORTHANT.hi)
        assert not (ORTHANT.contains(wide.lo) and ORTHANT.contains(wide.hi))

    def test_contains_many(self):
        pts = np.array([[1.0, 1.0], [-1.0, 0.5], [0.0, 0.0]])
        got = ORTHANT.contains(pts)
        assert got.tolist() == [True, False, True]

    @pytest.mark.parametrize(
        "cone",
        [ORTHANT, solvency_rays(5.0), ConvexCone2D.halfplane((1.0, -2.0)),
         ConvexCone2D.halfplane((1.0, -2.0)).positive_dual()],
        ids=["orthant", "solvency", "half-plane", "ray"],
    )
    def test_block_matches_row_calls(self, cone):
        rng = np.random.default_rng(31)
        pts = np.vstack([
            rng.standard_normal((200, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, (200, 1)),
            rng.uniform(-2.0, 2.0, (20, 1)) * cone.lo,
            rng.uniform(-2.0, 2.0, (20, 1)) * cone.hi,
            1e-10 * rng.standard_normal((20, 2)),
            np.zeros((1, 2)),
        ])
        rows = [cone.contains(p) for p in pts]
        assert all(type(r) is bool for r in rows)
        got = cone.contains(pts)
        assert got.dtype == bool and got.tolist() == rows
        assert 0 < sum(rows) < len(rows)
        assert cone.contains(np.zeros((0, 2))).shape == (0,)


class TestRegionConstruction:
    def test_single_point_plus_orthant(self):
        r = region_from_points_plus_cone(np.array([[0.0, 0.0]]), ORTHANT)
        assert r.vertices.shape == (1, 2)
        assert np.allclose(r.vertices[0], 0.0)
        assert r.recession.approx_equal(ORTHANT)

    def test_three_point_fan(self):
        pts = np.array([[-0.8, 2.0], [2.0, -0.8], [0.0, 0.0]])
        r = region_from_points_plus_cone(pts, solvency_rays(5.0))
        assert r.vertices.shape == (3, 2)
        # vertices are stored with strictly decreasing first coordinate
        assert np.allclose(r.vertices, [[2.0, -0.8], [0.0, 0.0], [-0.8, 2.0]])

    def test_dominated_point_dropped(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        r = region_from_points_plus_cone(pts, ORTHANT)
        assert r.vertices.shape == (1, 2)
        assert np.allclose(r.vertices[0], 0.0)

    def test_collinear_midpoint_dropped(self):
        pts = np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
        r = region_from_points_plus_cone(pts, ORTHANT)
        assert r.vertices.shape == (2, 2)

    def test_duplicate_points_merged(self):
        pts = np.array([[1.0, 1.0], [1.0 + 1e-13, 1.0 - 1e-13]])
        r = region_from_points_plus_cone(pts, ORTHANT)
        assert r.vertices.shape == (1, 2)

    def test_repeats_keep_the_first_zero_sign_given(self):
        # Points equal up to the sign of a zero are one point: the first one
        # given stays, in any number of repeats and among other points.
        rng = np.random.default_rng(41)
        for first in (0.0, -0.0):
            pts = np.array([[1.0, first], [-1.0, 3.0]] + [[1.0, -first]] * 40)
            for order in (np.arange(len(pts)), np.r_[1, 0, 2:len(pts)]):
                r = region_from_points_plus_cone(pts[order], ORTHANT)
                assert r.vertices.tolist() == [[1.0, 0.0], [-1.0, 3.0]]
                assert np.signbit(r.vertices[0, 1]) == np.signbit(first)
            extra = rng.standard_normal((30, 2)) + 5.0
            r = region_from_points_plus_cone(np.vstack([pts, extra]), ORTHANT)
            assert np.signbit(r.vertices[0, 1]) == np.signbit(first)

    def test_empty_points_rejected(self):
        with pytest.raises(ValidationError):
            region_from_points_plus_cone(np.zeros((0, 2)), ORTHANT)

    def test_recession_must_cover_orthant(self):
        with pytest.raises(ValidationError):
            RiskRegion2D(np.array([[0.0, 0.0]]), ConvexCone2D((1.0, 0.0), (1.0, 1.0)))

    def test_orthant_check_agrees_with_contains(self):
        # The check evaluates contains' predicates at the two unit axes on
        # plain floats; it must refuse exactly the cones contains refuses.
        rng = np.random.default_rng(17)
        angles = np.concatenate([
            rng.uniform(-np.pi, np.pi, 300),
            np.pi / 2 * rng.integers(-2, 3, 40),  # axis-aligned
            # just off an axis, inside and outside the tolerance
            rng.choice([0.0, np.pi / 2, -np.pi / 2, np.pi], 60)
            + rng.choice([-1, 1], 60) * 10.0 ** rng.uniform(-13, -7, 60),
        ])
        cones = [ConvexCone2D.nonneg_orthant()]
        for a in angles:
            lo = (math.cos(a), math.sin(a))
            cones.append(ConvexCone2D(lo, lo))  # ray
            cones.append(ConvexCone2D.halfplane(lo))
            for sweep in (rng.uniform(0.0, np.pi), np.pi / 2, np.pi / 2 + 1e-10, 1e-13):
                b = a + sweep
                cones.append(ConvexCone2D(lo, (math.cos(b), math.sin(b))))
        kinds = {"ray": 0, "halfplane": 0, "other": 0}
        passed = 0
        for cone in cones:
            kinds["ray" if cone.is_ray else "halfplane" if cone.is_halfplane else "other"] += 1
            expected = bool(cone.contains(np.eye(2)).all())
            try:
                _check_upper_cone(cone)
                ok = True
            except ValidationError:
                ok = False
            assert ok == expected, (cone.lo, cone.hi)
            passed += ok
        assert min(kinds.values()) > 50 and 20 < passed < len(cones) - 20

    @pytest.mark.parametrize("m", [1, 2, 40])
    @pytest.mark.parametrize(
        "cone",
        [ConvexCone2D((1.0, 0.0), (1.0, 1.0)), ConvexCone2D((-1.0, 0.0), (0.0, -1.0)),
         ConvexCone2D.halfplane((0.0, 1.0))],
    )
    def test_hull_refuses_cone_not_covering_orthant(self, cone, m):
        # The region the hull returns runs the check; no other one is made.
        pts = np.random.default_rng(m).standard_normal((m, 2))
        with pytest.raises(ValidationError, match="^recession cone must contain the non-negative"):
            region_from_points_plus_cone(pts, cone)


def fuzz_cones(rng):
    r1, r2 = rng.uniform(1.0, 5.0, 2)
    near = rng.uniform(1e-11, 1e-8, 2)
    return [
        ORTHANT,
        ConvexCone2D((1.0, -1.0 / r2), (-1.0 / r1, 1.0)),
        ConvexCone2D.halfplane((1.0, -rng.uniform(0.2, 5.0))),
        ConvexCone2D((1.0, -near[0]), (-near[1], 1.0)),
    ]


def fuzz_points(rng, family):
    m = int(rng.integers(1, 60))
    if family == "cloud":
        pts = rng.standard_normal((m, 2))
    elif family == "ties":
        pts = rng.integers(-3, 4, (m, 2)) / 2.0
    elif family == "near-duplicates":
        base = rng.standard_normal((max(1, m // 4), 2))
        pts = base[rng.integers(0, len(base), m)] + 1e-11 * rng.standard_normal((m, 2))
    elif family == "collinear":
        d = rng.choice([(1.0, 0.0), (0.0, 1.0), (1.0, -rng.uniform(0.2, 5.0))])
        d = rng.standard_normal(2) if rng.random() < 0.4 else np.asarray(d)
        pts = rng.standard_normal(2) + rng.uniform(-2.0, 2.0, (m, 1)) * d
    else:  # convex front, exact or with noise
        t = rng.uniform(np.pi, 1.5 * np.pi, m)
        noise = rng.choice([0.0, 1e-11, 1e-3])
        pts = np.column_stack([np.cos(t), np.sin(t)]) + noise * rng.standard_normal((m, 2))
    return pts * 10.0 ** rng.uniform(-3.0, 6.0)


def check_hull(pts, cone, rng):
    """The hull's properties on one input: every vertex is an input point,
    byte for byte; every input point lies in the region; and the region's
    bytes do not depend on the order of the input (which holds no zeros of
    both signs, whose first one given stays)."""
    region = region_from_points_plus_cone(pts, cone)
    given = {p.tobytes() for p in pts}
    assert all(v.tobytes() in given for v in region.vertices), (pts, cone)
    assert all(region.contains(p) for p in pts), (pts, cone)
    for order in (pts[::-1], pts[rng.permutation(len(pts))]):
        again = region_from_points_plus_cone(order, cone)
        assert again.vertices.tobytes() == region.vertices.tobytes(), (pts, cone)


class TestSortedHull:
    def test_properties_hold_on_fuzz(self):
        rng = np.random.default_rng(20261018)
        for _ in range(300):
            family = rng.choice(["cloud", "ties", "near-duplicates", "collinear", "front"])
            pts = fuzz_points(rng, family)
            for cone in fuzz_cones(rng):
                check_hull(pts, cone, rng)

    def test_chain_tolerance_is_a_distance(self):
        # The middle point lies 5.7e-7 below the chord of the other two, far
        # more than the tolerance: it is a vertex at any scale.
        pts = np.array([[1e-3, 0.0], [4.996e-4, 4.996e-4], [0.0, 1e-3]])
        for scale in (1.0, 1e3, 1e6):
            region = region_from_points_plus_cone(pts * scale, ORTHANT)
            assert region.vertices.tolist() == (pts * scale).tolist()

    def test_large_input_stays_small(self):
        import tracemalloc

        rng = np.random.default_rng(5)
        t = rng.uniform(np.pi, 1.5 * np.pi, 1000)
        front = np.column_stack([np.cos(t), np.sin(t)])
        cloud = rng.uniform(-0.7, 1.0, (19000, 2))  # each dominated by the front
        tracemalloc.start()
        try:
            region = region_from_points_plus_cone(np.vstack([cloud, front]), ORTHANT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # All pairs of 20,000 points would take 6.4 GB of differences alone.
        assert peak < 32 * 2**20
        assert region.vertices.tobytes() == region_from_points_plus_cone(front, ORTHANT).vertices.tobytes()


class TestToleranceCycle:
    # Each pair here lies within the tolerance in one coordinate, so
    # tolerant dominance cycles on them; the region must still hold each.
    POINTS = np.array([[-8e-10, 0.0], [-4e-10, -8e-10], [-1.2e-9, 8e-10]])

    def test_region_covers_every_point(self):
        check_hull(self.POINTS, ORTHANT, np.random.default_rng(3))

    def test_random_cycles_cover_every_point(self):
        rng = np.random.default_rng(7)
        for _ in range(400):
            pts = rng.uniform(-1.5e-9, 1.5e-9, (int(rng.integers(2, 7)), 2))
            for cone in fuzz_cones(rng):
                check_hull(pts, cone, rng)


class TestRegionFromHalfspaces:
    def test_orthant_corner(self):
        r = region_from_halfspaces(halfspace_set([((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0)]))
        assert np.allclose(r.vertices, [[0.0, 0.0]])
        assert r.recession.approx_equal(ORTHANT)

    def test_symmetric_pair_vertex(self):
        u1 = np.array([5.0, 1.0]) / SQ26
        u2 = np.array([1.0, 5.0]) / SQ26
        r = region_from_halfspaces(
            halfspace_set([(u1, -2.0 / SQ26), (u2, -2.0 / SQ26)])
        )
        assert np.allclose(r.vertices, [[-1.0 / 3.0, -1.0 / 3.0]], atol=1e-12)
        assert r.recession.approx_equal(solvency_rays(5.0))

    def test_single_constraint_halfplane(self):
        r = region_from_halfspaces(halfspace_set([((0.0, 1.0), -1.0)]))
        assert r.recession.is_halfplane
        assert r.contains((100.0, -1.0))
        assert not r.contains((0.0, -1.001))

    def test_redundant_constraint_dropped(self):
        tight = [((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0)]
        u = np.array([1.0, 1.0]) / math.sqrt(2)
        a = region_from_halfspaces(halfspace_set(tight))
        b = region_from_halfspaces(halfspace_set(tight + [(u, -1.0)]))
        assert np.allclose(a.vertices, b.vertices)
        assert a.recession.approx_equal(b.recession)

    def test_downward_normal_rejected(self):
        with pytest.raises(ValidationError):
            halfspace_set([((1.0, -1.0), 0.0)])

    def test_roundtrip_through_halfspaces(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            pts = rng.standard_normal((6, 2)) * 2
            r = region_from_points_plus_cone(pts, solvency_rays(2.0))
            back = region_from_halfspaces(r.halfspaces())
            assert np.allclose(back.vertices, r.vertices, atol=1e-9)
            assert back.recession.approx_equal(r.recession)


class TestMembershipAndScalarize:
    def test_interpolated_boundary_point(self):
        r = region_from_points_plus_cone(
            np.array([[-0.8, 2.0], [2.0, -0.8]]), ORTHANT
        )
        # on the segment between the two vertices at x=1
        assert r.contains((1.0, 0.2))
        assert not r.contains((1.0, 0.2 - 1e-6))

    def test_membership_monotone_upward(self):
        rng = np.random.default_rng(21)
        r = region_from_points_plus_cone(rng.standard_normal((5, 2)), ORTHANT)
        for _ in range(30):
            v = r.vertices[rng.integers(r.vertices.shape[0])]
            assert r.contains(v + rng.random(2))

    def test_scalarize_orthant_at_origin(self):
        r = region_from_points_plus_cone(np.array([[0.0, 0.0]]), ORTHANT)
        assert r.scalarize(np.array([1.0, 1.0]) / math.sqrt(2)) == pytest.approx(0.0)

    def test_scalarize_symmetric_vertex(self):
        r = region_from_points_plus_cone(
            np.array([[-1.0 / 3.0, -1.0 / 3.0]]), solvency_rays(5.0)
        )
        u = np.array([5.0, 1.0]) / SQ26
        assert r.scalarize(u) == pytest.approx(-2.0 / SQ26, abs=1e-12)

    def test_scalarize_outside_dual_is_minus_inf(self):
        r = region_from_points_plus_cone(np.array([[0.0, 0.0]]), ORTHANT)
        assert r.scalarize((1.0, -1.0)) == -math.inf

    def test_scalarize_is_min_over_vertices(self):
        rng = np.random.default_rng(22)
        r = region_from_points_plus_cone(rng.standard_normal((7, 2)), ORTHANT)
        for _ in range(20):
            theta = rng.uniform(0, np.pi / 2)
            u = np.array([math.cos(theta), math.sin(theta)])
            assert r.scalarize(u) == pytest.approx(float((r.vertices @ u).min()))

    def test_block_matches_direction_calls(self):
        rng = np.random.default_rng(32)
        unbounded = attained = 0
        for trial in range(200):
            cone = fuzz_cones(rng)[trial % 4]
            pts = rng.standard_normal((int(rng.integers(1, 20)), 2))
            r = region_from_points_plus_cone(pts * 10.0 ** rng.uniform(-3.0, 3.0), cone)
            dirs = rng.standard_normal((40, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, (40, 1))
            got = r.scalarize(dirs)
            want = np.array([r.scalarize(u) for u in dirs])
            assert got.tobytes() == want.tobytes()
            for u, value in zip(dirs, want):
                if math.isfinite(value):
                    assert value == float(np.min(r.vertices @ u))
            unbounded += int(np.sum(want == -math.inf))
            attained += int(np.sum(np.isfinite(want)))
        assert unbounded > 0 and attained > 0
        assert r.scalarize(np.zeros((0, 2))).shape == (0,)

    @pytest.mark.parametrize("u", [(0.0, 0.0), (1.0, math.nan), (1.0, 2.0, 3.0)])
    def test_scalarize_bad_direction(self, u):
        r = region_from_points_plus_cone(np.array([[0.0, 0.0]]), ORTHANT)
        with pytest.raises(ValidationError):
            r.scalarize(u)
        with pytest.raises(ValidationError):
            r.scalarize(np.array([u, u]))

    def test_translate_shifts_scalarize(self):
        r = region_from_points_plus_cone(np.array([[1.0, 2.0]]), ORTHANT)
        shifted = region_from_points_plus_cone(r.vertices + (3.0, -1.0), r.recession)
        u = np.array([0.6, 0.8])
        assert shifted.scalarize(u) == pytest.approx(r.scalarize(u) + np.dot(u, (3, -1)))


class TestHalfSpaceSet:
    def test_offsets_rescaled_with_directions(self):
        a = halfspace_set([((2.0, 0.0), -4.0)])
        assert np.allclose(a.directions, [[1.0, 0.0]])
        assert a.offsets == pytest.approx([-2.0])
        region = region_from_halfspaces(a)
        assert region.scalarize((1.0, 0.0)) == pytest.approx(-2.0, abs=1e-9)

    def test_unbounded_direction(self):
        region = region_from_halfspaces(halfspace_set([((0.0, 1.0), 0.0)]))
        assert region.scalarize((1.0, 0.0)) == -math.inf

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            HalfSpaceSet(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValidationError):
            HalfSpaceSet(np.ones((1, 3)), np.zeros(1))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_offsets_rejected(self, bad):
        with pytest.raises(ValidationError, match="^offsets must be finite$"):
            HalfSpaceSet([[1.0, 0.0], [0.0, 1.0]], [bad, 0.0])


class TestMinkowskiCone:
    """conv(vertices) + cone, for a cone containing the region's recession."""

    def test_orthant_is_identity(self):
        rng = np.random.default_rng(23)
        r = region_from_points_plus_cone(rng.standard_normal((5, 2)), ORTHANT)
        widened = region_from_points_plus_cone(r.vertices, ORTHANT)
        assert np.allclose(widened.vertices, r.vertices)
        assert widened.recession.approx_equal(r.recession)

    def test_widening_to_solvency_cone(self):
        r = region_from_points_plus_cone(np.array([[0.0, 0.0]]), ORTHANT)
        widened = region_from_points_plus_cone(r.vertices, solvency_rays(5.0))
        assert widened.recession.approx_equal(solvency_rays(5.0))
        assert np.allclose(widened.vertices, [[0.0, 0.0]])

    def test_halfplane_cone_keeps_best_vertex(self):
        r = region_from_points_plus_cone(
            np.array([[0.0, 1.0], [1.0, 0.0]]), ORTHANT
        )
        half = ConvexCone2D((1.0, -1.0), (-1.0, 1.0))
        widened = region_from_points_plus_cone(r.vertices, half)
        assert widened.recession.is_halfplane
        assert widened.vertices.shape == (1, 2)
        # both vertices have the same value of x+y, so either supports the sum
        assert widened.vertices[0].sum() == pytest.approx(1.0)

    def test_never_shrinks(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            r = region_from_points_plus_cone(rng.standard_normal((4, 2)), ORTHANT)
            widened = region_from_points_plus_cone(r.vertices, solvency_rays(1.5))
            for v in r.vertices:
                assert widened.contains(v)


def point_poly_dist_reference(p, poly):
    """Distance from p to a convex polygon, one vertex and edge at a time."""

    def segment(a, b):
        ab = b - a
        denom = float(ab @ ab)
        if denom == 0.0:
            return float(np.hypot(*(p - a)))
        t = float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
        return float(np.hypot(*(p - (a + t * ab))))

    m = poly.shape[0]
    if m == 1:
        return float(np.hypot(*(p - poly[0])))
    if m == 2:
        return segment(poly[0], poly[1])
    eps = 1e-9 * max(1.0, float(np.max(np.abs(poly))))
    if all(_cross(poly[(i + 1) % m] - poly[i], p - poly[i]) >= -eps for i in range(m)):
        return 0.0
    return min(segment(poly[i], poly[(i + 1) % m]) for i in range(m))


def hausdorff_reference(region_a, region_b, window):
    pa = _clip_to_window(region_a, window)
    pb = _clip_to_window(region_b, window)
    return max(max(point_poly_dist_reference(p, pb) for p in pa),
               max(point_poly_dist_reference(q, pa) for q in pb))


class TestHausdorff:
    WINDOW = (-5.0, -5.0, 5.0, 5.0)

    def test_matches_per_vertex_loops(self):
        rng = np.random.default_rng(33)
        corner = region_from_points_plus_cone(np.array([[0.0, 0.0]]), ORTHANT)
        pairs = [  # clips that are a point and a segment
            (corner, corner, (-1.0, -1.0, 0.0, 0.0)),
            (corner, region_from_points_plus_cone(np.array([[0.5, 0.0]]), ORTHANT),
             (-1.0, -1.0, 1.0, 0.0)),
        ]
        for trial in range(400):
            a, b = (
                region_from_points_plus_cone(rng.standard_normal((int(rng.integers(1, 12)), 2)),
                                             fuzz_cones(rng)[(trial + k) % 4])
                for k in (0, 1)
            )
            pairs.append((a, b, self.WINDOW))
        for a, b, window in pairs:
            want = hausdorff_reference(a, b, window)
            assert hausdorff_on_window(a, b, window) == pytest.approx(want, rel=0.0, abs=1e-12)

    def test_self_distance_zero(self):
        r = region_from_points_plus_cone(np.array([[0.5, -0.5]]), ORTHANT)
        assert hausdorff_on_window(r, r, self.WINDOW) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_translation(self):
        a = region_from_points_plus_cone(np.array([[0.0, 0.0]]), ORTHANT)
        b = region_from_points_plus_cone(np.array([[1.0, 1.0]]), ORTHANT)
        assert hausdorff_on_window(a, b, self.WINDOW) == pytest.approx(
            math.sqrt(2.0), abs=1e-6
        )

    def test_translation_upper_bound(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            r = region_from_points_plus_cone(rng.standard_normal((4, 2)), ORTHANT)
            delta = rng.uniform(-0.5, 0.5, 2)
            moved = region_from_points_plus_cone(r.vertices + delta, r.recession)
            d = hausdorff_on_window(r, moved, self.WINDOW)
            assert d <= np.hypot(*delta) + 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(26)
        a = region_from_points_plus_cone(rng.standard_normal((4, 2)), ORTHANT)
        b = region_from_points_plus_cone(rng.standard_normal((4, 2)), ORTHANT)
        d1 = hausdorff_on_window(a, b, self.WINDOW)
        d2 = hausdorff_on_window(b, a, self.WINDOW)
        assert d1 == pytest.approx(d2, abs=1e-9)


class TestSerialization:
    def test_region_roundtrip(self):
        rng = np.random.default_rng(27)
        r = region_from_points_plus_cone(rng.standard_normal((5, 2)), solvency_rays(3.0))
        back = RiskRegion2D.from_dict(r.to_dict())
        assert np.array_equal(back.vertices, r.vertices)
        assert back.recession.approx_equal(r.recession)

    def test_canonical_json_is_sorted_and_compact(self):
        blob = canonical_json({"b": 1.0, "a": [1.0 / 3.0]})
        assert blob == '{"a":[0.333333333333],"b":1.0}'

    def test_canonical_json_twelve_digits(self):
        blob = canonical_json({"x": math.pi})
        assert json.loads(blob)["x"] == pytest.approx(math.pi, abs=1e-11)

    def test_canonical_json_deterministic(self):
        payload = {"v": [0.1 + 0.2, 1e-15, -0.0]}
        assert canonical_json(payload) == canonical_json(payload)


def line_intersect_reference(u1, c1, u2, c2):
    det = _cross(u1, u2)
    if abs(det) <= 1e-12:
        raise ValidationError("parallel constraint lines do not intersect")
    x = (c1 * u2[1] - c2 * u1[1]) / det
    y = (u1[0] * c2 - u2[0] * c1) / det
    return np.array([x, y])


def sequential_reference_halfspaces(halfspaces):
    """The deletion loop that region_from_halfspaces must reproduce bit for
    bit: one plain sum x u0 + y u1 per redundancy test, one step back after
    each deletion, and the hull of the vertices."""
    dirs, offs = halfspaces.directions, halfspaces.offsets
    angles = np.arctan2(dirs[:, 1], dirs[:, 0])
    cons = []
    for idx in np.lexsort((offs, angles)):
        u, c, ang = dirs[idx], float(offs[idx]), float(angles[idx])
        if cons and abs(ang - cons[-1][2]) <= 1e-12:
            if c > cons[-1][1]:
                cons[-1] = (u, c, ang)
        else:
            cons.append((u, c, ang))
    if len(cons) == 1:
        u, c, _ = cons[0]
        return RiskRegion2D((c * u).reshape(1, 2), ConvexCone2D.halfplane((u[1], -u[0])))
    rec = ConvexCone2D.from_rays(cons[0][0], cons[-1][0]).positive_dual()
    scale = max(1.0, float(np.max(np.abs(offs))))
    i = 1
    while 1 <= i <= len(cons) - 2:
        (u0, c0, _), (u, c, _), (u2, c2, _) = cons[i - 1 : i + 2]
        x, y = line_intersect_reference(u0, c0, u2, c2)
        if x * u[0] + y * u[1] >= c - 1e-9 * max(scale, abs(x), abs(y)):
            del cons[i]
            i = max(1, i - 1)
        else:
            i += 1
    verts = [
        line_intersect_reference(cons[j][0], cons[j][1], cons[j - 1][0], cons[j - 1][1])
        for j in range(len(cons) - 1, 0, -1)
    ]
    return region_from_points_plus_cone(np.array(verts), rec)


def edge_normals_reference(vertices, recession):
    """Normals and offsets of a region, one edge and one product at a time."""
    dual = recession.positive_dual()
    normals, offsets = [dual.lo], [float(vertices[-1] @ dual.lo)]
    if not dual.is_ray:
        for j in range(len(vertices) - 2, -1, -1):
            edge = vertices[j + 1] - vertices[j]
            rot = np.array([edge[1], -edge[0]])
            norm = float(np.hypot(rot[0], rot[1]))
            if norm == 0.0 or not np.isfinite(norm):
                raise ValidationError("zero or non-finite direction")
            normals.append(rot / norm)
            offsets.append(float(vertices[j] @ normals[-1]))
        normals.append(dual.hi)
        offsets.append(float(vertices[0] @ dual.hi))
    return np.array(normals), np.array(offsets)


def sandwich_reference(bundle):
    """sandwich_violation with one vertex product per direction."""
    worst = -math.inf
    for small, big in ((bundle.marginal, bundle.inner), (bundle.inner, bundle.outer)):
        hs = big.halfspaces()
        u = hs.directions
        units = u / np.hypot(u[:, 0], u[:, 1])[:, None]
        if not np.all(small.recession.positive_dual().contains(units)):
            return math.inf
        least = [np.min(small.vertices @ d) for d in u]
        worst = max(worst, float(np.max(hs.offsets - least)))
    return worst


def region_bytes(region):
    return tuple(
        a.tobytes()
        for a in (region.vertices, region.recession.lo, region.recession.hi,
                  region._normals, region._offsets)
    )


def region_outcome(build, *args):
    try:
        return region_bytes(build(*args))
    except ValueError as exc:  # ValidationError included
        return type(exc), str(exc)


def fuzz_halfspaces(rng, family):
    m = int(rng.integers(1, 40))
    theta = np.sort(rng.uniform(0.0, np.pi / 2, m))
    if rng.random() < 0.3:
        theta[0], theta[-1] = 0.0, np.pi / 2  # the axis directions
    if family == "duplicate-angles":
        theta = theta[rng.integers(0, m, m)]
    elif family == "near-parallel":
        # Pairs whose determinant sits near the 1e-12 snap band.
        theta = theta[: int(rng.integers(1, 4))]  # few cuts, so a pair can bind
        gaps = rng.choice([3e-13, 1e-12, 1.00001e-12, 1.00005e-12, 2e-12, 1e-11], len(theta))
        theta = np.sort(np.concatenate([theta, np.clip(theta + gaps, 0.0, np.pi / 2)]))
    elif family == "half-plane":
        theta = np.full(m, theta[0])
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    dirs *= rng.uniform(0.5, 2.0, (len(dirs), 1))  # HalfSpaceSet normalises
    corner = rng.standard_normal(2)
    radius = rng.uniform(0.0, 2.0)
    # Cuts tangent to a disc (a dense front of binding cuts) ...
    offs = dirs @ corner - radius * np.hypot(dirs[:, 0], dirs[:, 1])
    if family == "one-vertex":
        offs = dirs @ corner  # every cut through one point
        offs += rng.choice([0.0, 1e-16, -1e-16, 1e-12], len(offs)) * np.abs(offs)
    elif family == "redundant-runs":
        # ... with runs of cuts pushed far enough down to be redundant.
        start = rng.integers(0, len(offs), 3)
        for s in start:
            offs[s : s + int(rng.integers(1, 8))] -= rng.uniform(0.0, 1.0)
    elif family in ("random", "near-parallel"):
        offs = rng.standard_normal(len(offs))
    return HalfSpaceSet(dirs, offs * 10.0 ** rng.uniform(-3.0, 3.0))


# Three cuts for which the plain sum x u0 + y u1 and the fused product
# fma(y, u1, x u0) fall on opposite sides of the redundancy limit, found by
# a seeded search: the middle cut is kept or dropped as the plain sum says.
FMA_SPLIT_CASES = [
    (
        [["0x1.e7763777e3310p-1", "0x1.393591b1ed0ecp-2"],
         ["0x1.1043737b07111p-1", "0x1.b19bdabcb11a0p-1"],
         ["0x1.81ce4594ee6b0p-3", "0x1.f6d545a2f9c8dp-1"]],
        ["-0x1.9d13704f36574p-2", "0x1.cc048d31447c2p-2", "0x1.aded3352e96e4p-1"],
    ),
    (
        [["0x1.61e15b8d897cep-1", "0x1.7204677500a22p-1"],
         ["0x1.1af70c51cd223p-1", "0x1.aab3c52bc5df9p-1"],
         ["0x1.9ba13eb6bc3f9p-2", "0x1.d4cfbddceb141p-1"]],
        ["0x1.4db77c9294032p-1", "0x1.4643248bd267ep-3", "-0x1.4a1cb24c51a54p-2"],
    ),
]


def fma_split_set(case):
    dirs, offs = case
    return HalfSpaceSet(
        [[float.fromhex(v) for v in row] for row in dirs], [float.fromhex(v) for v in offs]
    )


class TestBatchedGeometryMatchesReferences:
    FAMILIES = ["tangent", "redundant-runs", "duplicate-angles", "near-parallel",
                "one-vertex", "half-plane", "random"]

    def test_halfspaces_match_sequential_loop(self):
        rng = np.random.default_rng(20261019)
        sets = [fma_split_set(case) for case in FMA_SPLIT_CASES]
        sets += [fuzz_halfspaces(rng, f) for _ in range(180) for f in self.FAMILIES]
        compared, raised, halfplanes = 0, 0, 0
        for hs in sets:
            ref = region_outcome(sequential_reference_halfspaces, hs)
            got = region_outcome(region_from_halfspaces, hs)
            assert got == ref, (hs.directions.tolist(), hs.offsets.tolist())
            compared += 1
            if isinstance(ref[0], type):
                raised += 1
            elif np.frombuffer(ref[1], dtype=float) @ np.frombuffer(ref[2], dtype=float) < 0:
                halfplanes += 1
        assert compared >= 1200 and raised > 0 and halfplanes > 0

    @pytest.mark.parametrize("case", FMA_SPLIT_CASES)
    def test_exact_dot_decides_near_the_limit(self, case):
        hs = fma_split_set(case)
        d, c = hs.directions, hs.offsets
        p = line_intersect_reference(d[0], c[0], d[2], c[2])
        limit = c[1] - 1e-9 * max(1.0, float(np.max(np.abs(c))), float(np.max(np.abs(p))))
        plain = p[0] * d[1, 0] + p[1] * d[1, 1]
        # The middle cut stays (two vertices) exactly when the plain sum says
        # so, and the batched scan makes the same choice.
        ref = sequential_reference_halfspaces(hs)
        assert len(ref.vertices) == (2 if plain < limit else 1)
        assert region_bytes(region_from_halfspaces(hs)) == region_bytes(ref)

    def test_normals_match_edge_loop(self):
        rng = np.random.default_rng(20261020)
        for trial in range(1200):
            cone = fuzz_cones(rng)[trial % 4]
            k = int(rng.integers(1, 30))
            x = -np.sort(-rng.standard_normal(k)) * 10.0 ** rng.uniform(-3.0, 3.0)
            verts = np.column_stack([x, rng.standard_normal(k) * 10.0 ** rng.uniform(-3.0, 3.0)])
            region = RiskRegion2D(verts, cone)
            normals, offsets = edge_normals_reference(region.vertices, cone)
            assert region._normals.tobytes() == normals.tobytes()
            assert region._offsets.tobytes() == offsets.tobytes()

    def test_duplicate_vertex_has_no_edge_normal(self):
        verts = np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValidationError, match="^zero or non-finite direction$"):
            edge_normals_reference(verts, ORTHANT)
        with pytest.raises(ValidationError, match="^zero or non-finite direction$"):
            RiskRegion2D(verts, ORTHANT)

    def test_sandwich_violation_matches_per_direction_loop(self):
        rng = np.random.default_rng(20261021)
        finite = 0
        for trial in range(1000):
            cones = fuzz_cones(rng)
            regions = []
            for _ in range(3):
                pts = rng.standard_normal((int(rng.integers(1, 25)), 2))
                cone = cones[rng.integers(0, 2)] if trial % 5 == 0 else cones[trial % 4]
                regions.append(region_from_points_plus_cone(pts * 10.0 ** rng.uniform(-3, 3), cone))
            bundle = SimpleNamespace(marginal=regions[0], inner=regions[1], outer=regions[2])
            ref = sandwich_reference(bundle)
            assert sandwich_violation(bundle).hex() == ref.hex()
            finite += math.isfinite(ref)
        assert finite > 500
