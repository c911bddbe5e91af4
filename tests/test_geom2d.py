import json
import math

import numpy as np
import pytest

from svrisk.errors import ValidationError
from svrisk.geom2d import (
    ConvexCone2D,
    HalfSpaceSet,
    RiskRegion2D,
    _cross,
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
        assert solvency_rays(5.0).contains_cone(ORTHANT)
        assert not ORTHANT.contains_cone(solvency_rays(5.0))

    def test_contains_many(self):
        pts = np.array([[1.0, 1.0], [-1.0, 0.5], [0.0, 0.0]])
        got = ORTHANT.contains_many(pts)
        assert got.tolist() == [True, False, True]


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

    def test_empty_points_rejected(self):
        with pytest.raises(ValidationError):
            region_from_points_plus_cone(np.zeros((0, 2)), ORTHANT)

    def test_recession_must_cover_orthant(self):
        with pytest.raises(ValidationError):
            RiskRegion2D(np.array([[0.0, 0.0]]), ConvexCone2D((1.0, 0.0), (1.0, 1.0)))


def pairwise_reference_hull(points, recession):
    """The all-pairs dominance filter and chain that the sorted prefilter
    must reproduce bit for bit (m x m arrays; small inputs only)."""
    pts = np.unique(np.asarray(points, dtype=float).reshape(-1, 2), axis=0)
    m = pts.shape[0]
    if m > 1:
        diffs = pts[:, None, :] - pts[None, :, :]
        inside = recession.contains_many(diffs.reshape(-1, 2)).reshape(m, m)
        np.fill_diagonal(inside, False)
        mutual = inside & inside.T
        dominated = (inside & ~mutual).any(axis=1)
        ii, jj = np.nonzero(mutual)
        dominated |= np.bincount(ii[ii > jj], minlength=m).astype(bool)
        pts = pts[~dominated]
    pts = pts[np.lexsort((pts[:, 1], -pts[:, 0]))]
    eps = 1e-9 * max(1.0, float(np.max(np.abs(pts))))
    kept = [pts[0]]
    for p in pts[1:]:
        while len(kept) >= 2 and _cross(kept[-1] - kept[-2], p - kept[-1]) >= -eps:
            kept.pop()
        kept.append(p)
    return RiskRegion2D(np.array(kept), recession)


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


def hull_outcome(build, pts, cone):
    try:
        return build(pts, cone).vertices.tobytes()
    except ValueError as exc:  # ValidationError included
        return type(exc), str(exc)


# What the pairwise rules raise when they drop every point.
TOLERANCE_CYCLE = (ValueError, "zero-size array to reduction operation maximum which has no identity")


class TestSortedHull:
    def test_matches_pairwise_reference(self):
        rng = np.random.default_rng(20261018)
        compared = 0
        for _ in range(300):
            family = rng.choice(["cloud", "ties", "near-duplicates", "collinear", "front"])
            pts = fuzz_points(rng, family)
            for cone in fuzz_cones(rng):
                ref = hull_outcome(pairwise_reference_hull, pts, cone)
                if ref == TOLERANCE_CYCLE:
                    continue  # TestToleranceCycle covers these
                got = hull_outcome(region_from_points_plus_cone, pts, cone)
                assert got == ref, (family, pts, cone)
                compared += 1
        assert compared > 1100

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
        assert region.vertices.tobytes() == pairwise_reference_hull(front, ORTHANT).vertices.tobytes()


class TestToleranceCycle:
    # Each pair here lies within the tolerance in one coordinate, so
    # tolerant dominance cycles: the pairwise rules alone drop every point.
    POINTS = np.array([[-8e-10, 0.0], [-4e-10, -8e-10], [-1.2e-9, 8e-10]])

    def check_cover(self, pts, region):
        assert len(region.vertices) >= 1
        for v in region.vertices:
            assert any(np.array_equal(v, p) for p in pts)
        assert all(region.contains(p) for p in pts), pts

    def test_region_covers_every_point(self):
        assert hull_outcome(pairwise_reference_hull, self.POINTS, ORTHANT) == TOLERANCE_CYCLE
        self.check_cover(self.POINTS, region_from_points_plus_cone(self.POINTS, ORTHANT))

    def test_random_cycles_cover_every_point(self):
        rng = np.random.default_rng(7)
        cycles = 0
        for _ in range(400):
            pts = rng.uniform(-1.5e-9, 1.5e-9, (int(rng.integers(2, 7)), 2))
            for cone in fuzz_cones(rng):
                ref = hull_outcome(pairwise_reference_hull, pts, cone)
                if ref == TOLERANCE_CYCLE:
                    cycles += 1
                    self.check_cover(pts, region_from_points_plus_cone(pts, cone))
                else:
                    assert hull_outcome(region_from_points_plus_cone, pts, cone) == ref
        assert cycles > 0


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


class TestHausdorff:
    WINDOW = (-5.0, -5.0, 5.0, 5.0)

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
