"""Planar geometry for unbounded convex upper sets.

A risk region is conv(vertices) + recession cone, where the recession cone
always contains the non-negative quadrant.  Vertices are stored along the
lower-left boundary in strictly decreasing first coordinate.  All predicates
use an absolute tolerance of 1e-9, scaled mildly by the magnitude of the
points involved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

TOL = 1e-9
# Tighter band used to snap nearly parallel rays onto exact ray/half-plane
# representations.
_SNAP = 1e-12


def _unit(v):
    v = np.asarray(v, dtype=float)
    if v.shape != (2,):
        raise ValidationError("direction must be a 2-vector")
    n = float(np.hypot(v[0], v[1]))
    if n == 0.0 or not np.isfinite(n):
        raise ValidationError("zero or non-finite direction")
    return v / n


def _cross(a, b):
    return float(a[0] * b[1] - a[1] * b[0])


def _rot_ccw(v):
    return np.array([-v[1], v[0]], dtype=float)


def _rot_cw(v):
    return np.array([v[1], -v[0]], dtype=float)


def _scale_of(x):
    return max(1.0, float(np.max(np.abs(x))))


@dataclass(frozen=True)
class ConvexCone2D:
    """Convex cone spanned counterclockwise from ray ``lo`` to ray ``hi``.

    The sweep angle is at most pi.  ``lo == hi`` encodes a single ray and
    ``hi == -lo`` encodes the half-plane on the counterclockwise side of
    ``lo``.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _unit(self.lo)
        hi = _unit(self.hi)
        cross = _cross(lo, hi)
        dot = float(np.dot(lo, hi))
        if abs(cross) <= _SNAP:
            hi = lo.copy() if dot >= 0.0 else -lo
        elif cross < 0.0:
            raise ValidationError("cone rays must be ordered counterclockwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        self.lo.setflags(write=False)
        self.hi.setflags(write=False)

    @classmethod
    def from_rays(cls, r1, r2):
        """Smallest convex cone containing both rays (sweep < pi)."""
        a = _unit(r1)
        b = _unit(r2)
        cross = _cross(a, b)
        if abs(cross) <= _SNAP and float(np.dot(a, b)) < 0.0:
            raise ValidationError(
                "opposite rays span a half-plane ambiguously; use halfplane()"
            )
        if cross < 0.0:
            a, b = b, a
        return cls(a, b)

    @classmethod
    def halfplane(cls, lo):
        """Half-plane of directions counterclockwise of ``lo`` (within pi)."""
        lo = _unit(lo)
        return cls(lo, -lo)

    @classmethod
    def nonneg_orthant(cls):
        return cls(np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    @property
    def is_ray(self):
        return float(np.dot(self.lo, self.hi)) > 0.5 and (
            abs(_cross(self.lo, self.hi)) <= _SNAP
        )

    @property
    def is_halfplane(self):
        return float(np.dot(self.lo, self.hi)) < -0.5 and (
            abs(_cross(self.lo, self.hi)) <= _SNAP
        )

    def contains(self, x, tol=TOL):
        x = np.asarray(x, dtype=float)
        eps = tol * _scale_of(x)
        c_lo = _cross(self.lo, x)
        if self.is_ray:
            return abs(c_lo) <= eps and float(np.dot(self.lo, x)) >= -eps
        if self.is_halfplane:
            return c_lo >= -eps
        return c_lo >= -eps and _cross(x, self.hi) >= -eps

    def contains_many(self, pts, tol=TOL):
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        eps = tol * np.maximum(1.0, np.abs(pts).max(axis=1))
        c_lo = self.lo[0] * pts[:, 1] - self.lo[1] * pts[:, 0]
        if self.is_ray:
            dots = pts @ self.lo
            return (np.abs(c_lo) <= eps) & (dots >= -eps)
        if self.is_halfplane:
            return c_lo >= -eps
        c_hi = pts[:, 0] * self.hi[1] - pts[:, 1] * self.hi[0]
        return (c_lo >= -eps) & (c_hi >= -eps)

    def contains_cone(self, other, tol=TOL):
        return self.contains(other.lo, tol) and self.contains(other.hi, tol)

    def positive_dual(self):
        """Cone of directions with non-negative inner product on this cone."""
        return ConvexCone2D(_rot_cw(self.hi), _rot_ccw(self.lo))

    def approx_equal(self, other, tol=TOL):
        return (
            float(np.max(np.abs(self.lo - other.lo))) <= tol
            and float(np.max(np.abs(self.hi - other.hi))) <= tol
        )


def _check_upper_cone(rec):
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    if not (rec.contains(e1) and rec.contains(e2)):
        raise ValidationError("recession cone must contain the non-negative quadrant")


@dataclass(frozen=True)
class RiskRegion2D:
    """conv(vertices) + recession, vertices in decreasing first coordinate."""

    vertices: np.ndarray
    recession: ConvexCone2D
    _normals: np.ndarray = field(init=False, repr=False, compare=False)
    _offsets: np.ndarray = field(init=False, repr=False, compare=False)
    _dual: ConvexCone2D = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim == 1:
            verts = verts.reshape(1, 2)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] == 0:
            raise ValidationError("vertices must be a non-empty (k, 2) array")
        if not np.all(np.isfinite(verts)):
            raise ValidationError("vertices contain non-finite entries")
        _check_upper_cone(self.recession)
        if np.any(np.diff(verts[:, 0]) >= TOL):
            raise ValidationError("vertices must have decreasing first coordinate")
        object.__setattr__(self, "vertices", verts)
        verts.setflags(write=False)

        dual = self.recession.positive_dual()
        normals = []
        offsets = []
        if dual.is_ray:
            normals.append(dual.lo)
            offsets.append(float(verts[-1] @ dual.lo))
        else:
            normals.append(dual.lo)
            offsets.append(float(verts[-1] @ dual.lo))
            for j in range(verts.shape[0] - 2, -1, -1):
                edge = verts[j + 1] - verts[j]
                n = _unit(_rot_cw(edge))
                normals.append(n)
                offsets.append(float(verts[j] @ n))
            normals.append(dual.hi)
            offsets.append(float(verts[0] @ dual.hi))
        object.__setattr__(self, "_normals", np.array(normals))
        object.__setattr__(self, "_offsets", np.array(offsets))
        object.__setattr__(self, "_dual", dual)
        self._normals.setflags(write=False)
        self._offsets.setflags(write=False)

    def contains(self, x, tol=TOL):
        x = np.asarray(x, dtype=float)
        eps = tol * max(_scale_of(x), _scale_of(self.vertices))
        return bool(np.all(self._normals @ x >= self._offsets - eps))

    def scalarize(self, u, tol=TOL):
        """Infimum of <u, x> over the region; -inf when not attained."""
        u = np.asarray(u, dtype=float)
        un = _unit(u)
        if not self._dual.contains(un, tol):
            return float("-inf")
        return float(np.min(self.vertices @ u))

    def halfspaces(self):
        return HalfSpaceSet(self._normals.copy(), self._offsets.copy())

    def to_dict(self):
        return {
            "vertices": [[float(x), float(y)] for x, y in self.vertices],
            "recession": [
                [float(v) for v in self.recession.lo],
                [float(v) for v in self.recession.hi],
            ],
        }

    @classmethod
    def from_dict(cls, data):
        try:
            rays = data["recession"]
            lo, hi = np.array(rays[0], dtype=float), np.array(rays[1], dtype=float)
            cone = ConvexCone2D(lo, hi)
            # The rays were written as unit vectors to 12 digits.  Keep them
            # as written: normalising them again can move the last digit.
            if np.allclose([cone.lo, cone.hi], [lo, hi], rtol=0.0, atol=1e-11):
                for name, ray in (("lo", lo), ("hi", hi)):
                    ray.setflags(write=False)
                    object.__setattr__(cone, name, ray)
            return cls(np.asarray(data["vertices"], dtype=float), cone)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed region payload: {exc}") from exc


@dataclass(frozen=True)
class HalfSpaceSet:
    """Intersection of planar half-spaces <x, u> >= c with unit u in the
    closed non-negative quadrant."""

    directions: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        dirs = np.asarray(self.directions, dtype=float)
        offs = np.asarray(self.offsets, dtype=float)
        if dirs.ndim != 2 or dirs.shape[1] != 2 or dirs.shape[0] == 0:
            raise ValidationError("need at least one planar half-space")
        if offs.shape != (dirs.shape[0],):
            raise ValidationError("offsets must match directions")
        norms = np.linalg.norm(dirs, axis=1)
        if np.any(norms == 0) or not np.all(np.isfinite(norms)):
            raise ValidationError("zero or non-finite direction")
        if np.any(dirs < -TOL * norms[:, None]):
            raise ValidationError("directions must be componentwise non-negative")
        dirs = dirs / norms[:, None]
        offs = offs / norms
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "offsets", offs)
        dirs.setflags(write=False)
        offs.setflags(write=False)


# Point pairs per block of the pairwise dominance test: its temporaries stay
# near a megabyte however many points reach it.
_PAIR_BLOCK = 2**16


def _cone_coords(pts, recession):
    """Coordinates a = <lo x p> and b = <p x hi> of each point, in which the
    recession is the quadrant (b = a for a half-plane)."""
    lo, hi = recession.lo, recession.hi
    a = lo[0] * pts[:, 1] - lo[1] * pts[:, 0]
    b = a if recession.is_halfplane else pts[:, 0] * hi[1] - pts[:, 1] * hi[0]
    return a, b


def _clearly_dominated(pts, recession):
    """Mask of the points that another point dominates by a wide margin in
    both cone coordinates, found with one sort by a and a prefix minimum
    of b.

    The margin delta = 4 TOL max(1, 2 max|p|) exceeds every pair tolerance
    TOL max(1, |p_i - p_j|) of the pairwise test by more than rounding, so a
    point dropped here is strictly dominated there as well.  Dominance by
    delta is transitive, so every dropped point, and every point that one
    dominates or ties with, is strictly dominated by a point kept here: the
    pairwise test on the kept points marks exactly the points it would mark
    on all of them.
    """
    a, b = _cone_coords(pts, recession)
    delta = 4.0 * TOL * max(1.0, 2.0 * float(np.max(np.abs(pts))))
    order = np.argsort(a, kind="stable")
    best_b = np.minimum.accumulate(b[order])
    # Points whose a is at least delta below a_i form a prefix of the order.
    below = np.searchsorted(a[order], a - delta, side="right")
    return (below > 0) & (best_b[below - 1] <= b - delta)


def _pairwise_dominated(pts, recession):
    """Mask of the points that another point strictly dominates, or that
    dominate each other with an earlier point (in the given order), up to
    the pair tolerance.  Works through blocks of rows."""
    m = pts.shape[0]
    dominated = np.zeros(m, dtype=bool)
    rows = max(1, _PAIR_BLOCK // m)
    for r0 in range(0, m, rows):
        diffs = (pts[r0 : r0 + rows, None, :] - pts[None, :, :]).reshape(-1, 2)
        inside = recession.contains_many(diffs).reshape(-1, m)
        covers = recession.contains_many(-diffs).reshape(-1, m)
        earlier = np.arange(m) < np.arange(r0, r0 + inside.shape[0])[:, None]
        dominated[r0 : r0 + rows] = (inside & (~covers | earlier)).any(axis=1)
    return dominated


def _greedy_cover(pts, recession):
    """Points that cover all of pts up to the pair tolerance: in order of
    a + b, each point that no kept point dominates.  Every input point is
    within the tolerance of a kept point, and every kept point is an input
    point.  Kept points may still dominate each other, but only within the
    tolerance."""
    a, b = _cone_coords(pts, recession)
    kept = []
    for i in np.argsort(a + b, kind="stable"):
        if not recession.contains_many(pts[i] - pts[kept]).any():
            kept.append(i)
    return pts[kept]


def region_from_points_plus_cone(points, recession):
    """Canonical region conv(points) + recession.

    Drops every point lying in the convex hull of the others plus the cone,
    then orders the survivors along the lower-left boundary.  A point is
    dropped when another one strictly dominates it up to the tolerance, or
    when it and an earlier one (in lexicographic order) dominate each other.
    A margin prefilter first drops the points that others clearly dominate,
    so the pairwise test sees few points: time is O(m log m) plus that test
    on the survivors, which runs in blocks, so memory is O(m).

    Tolerant dominance is not transitive, so those rules can drop every
    point.  Then the kept points are a greedy cover instead: each input point
    lies within the tolerance of the region, and every vertex is an input
    point.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, 2)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValidationError("points must be a non-empty (m, 2) array")
    if not np.all(np.isfinite(pts)):
        raise ValidationError("points contain non-finite entries")
    _check_upper_cone(recession)

    # np.unique sorts the rows, which fixes the mutual rule's order.
    pts = np.unique(pts, axis=0)
    if pts.shape[0] > 1:
        pts = pts[~_clearly_dominated(pts, recession)]
        dominated = _pairwise_dominated(pts, recession)
        pts = _greedy_cover(pts, recession) if dominated.all() else pts[~dominated]

    order = np.lexsort((pts[:, 1], -pts[:, 0]))
    pts = pts[order]

    eps = TOL * _scale_of(pts)
    kept = [pts[0]]
    for p in pts[1:]:
        while len(kept) >= 2 and _cross(kept[-1] - kept[-2], p - kept[-1]) >= -eps:
            kept.pop()
        kept.append(p)
    return RiskRegion2D(np.array(kept), recession)


def _line_intersect(u1, c1, u2, c2):
    det = _cross(u1, u2)
    if abs(det) <= _SNAP:
        raise ValidationError("parallel constraint lines do not intersect")
    x = (c1 * u2[1] - c2 * u1[1]) / det
    y = (u1[0] * c2 - u2[0] * c1) / det
    return np.array([x, y])


def region_from_halfspaces(halfspaces):
    """Region cut out by a HalfSpaceSet in the plane.

    The directions all lie in the first quadrant, so the intersection is a
    non-empty upper set; redundant constraints are dropped.
    """
    dirs = halfspaces.directions
    offs = halfspaces.offsets

    angles = np.arctan2(dirs[:, 1], dirs[:, 0])
    order = np.lexsort((offs, angles))
    cons = []
    for idx in order:
        u, c, ang = dirs[idx], float(offs[idx]), float(angles[idx])
        if cons and abs(ang - cons[-1][2]) <= 1e-12:
            if c > cons[-1][1]:
                cons[-1] = (u, c, ang)
        else:
            cons.append((u, c, ang))

    if len(cons) == 1:
        u, c, _ = cons[0]
        rec = ConvexCone2D.halfplane(_rot_cw(u))
        return RiskRegion2D((c * u).reshape(1, 2), rec)

    span = ConvexCone2D.from_rays(cons[0][0], cons[-1][0])
    rec = span.positive_dual()

    # A middle constraint is redundant when the intersection of its
    # neighbours already satisfies it; the first and last constraints own
    # the two infinite edges and always bind.
    scale = _scale_of(offs)
    i = 1
    while 1 <= i <= len(cons) - 2:
        p = _line_intersect(cons[i - 1][0], cons[i - 1][1], cons[i + 1][0], cons[i + 1][1])
        if float(p @ cons[i][0]) >= cons[i][1] - TOL * max(scale, _scale_of(p)):
            del cons[i]
            i = max(1, i - 1)
        else:
            i += 1

    verts = [
        _line_intersect(cons[j][0], cons[j][1], cons[j - 1][0], cons[j - 1][1])
        for j in range(len(cons) - 1, 0, -1)
    ]
    return region_from_points_plus_cone(np.array(verts), rec)


def _window_halfspaces(window):
    x0, y0, x1, y1 = (float(v) for v in window)
    if not np.all(np.isfinite([x0, y0, x1, y1])):
        raise ValidationError("window bounds must be finite")
    if not (x0 < x1 and y0 < y1):
        raise ValidationError("window must satisfy x0 < x1 and y0 < y1")
    dirs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    offs = np.array([x0, -x1, y0, -y1])
    return dirs, offs


def _clip_to_window(region, window):
    """Vertices of the convex polygon region `intersect` window box."""
    wdirs, woffs = _window_halfspaces(window)
    dirs = np.vstack([region._normals, wdirs])
    offs = np.concatenate([region._offsets, woffs])
    m = dirs.shape[0]
    scale = max(_scale_of(offs), 1.0)
    pts = []
    for i in range(m):
        for j in range(i + 1, m):
            if abs(_cross(dirs[i], dirs[j])) <= _SNAP:
                continue
            p = _line_intersect(dirs[i], offs[i], dirs[j], offs[j])
            if np.all(dirs @ p >= offs - TOL * max(scale, _scale_of(p)) * 10.0):
                pts.append(p)
    if not pts:
        raise ValidationError("window does not intersect the region")
    pts = np.array(pts)
    keep = [pts[0]]
    for p in pts[1:]:
        if all(np.max(np.abs(p - q)) > TOL * scale for q in keep):
            keep.append(p)
    pts = np.array(keep)
    center = pts.mean(axis=0)
    ang = np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0])
    return pts[np.argsort(ang, kind="stable")]


def _point_segment_dist(p, a, b):
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.hypot(*(p - a)))
    t = float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.hypot(*(p - (a + t * ab))))


def _point_poly_dist(p, poly):
    m = poly.shape[0]
    if m == 1:
        return float(np.hypot(*(p - poly[0])))
    if m == 2:
        return _point_segment_dist(p, poly[0], poly[1])
    inside = True
    for i in range(m):
        a, b = poly[i], poly[(i + 1) % m]
        if _cross(b - a, p - a) < -TOL * _scale_of(poly):
            inside = False
            break
    if inside:
        return 0.0
    return min(
        _point_segment_dist(p, poly[i], poly[(i + 1) % m]) for i in range(m)
    )


def hausdorff_on_window(region_a, region_b, window):
    """Hausdorff distance between the window-clipped regions.

    Both clipped sets are convex polygons, for which the directed distances
    are attained at vertices, so the value is exact.
    """
    pa = _clip_to_window(region_a, window)
    pb = _clip_to_window(region_b, window)
    d_ab = max(_point_poly_dist(p, pb) for p in pa)
    d_ba = max(_point_poly_dist(q, pa) for q in pb)
    return max(d_ab, d_ba)


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def canonical_json(payload):
    """Deterministic JSON text: sorted keys, 12 significant digits."""
    return json.dumps(_round_floats(payload), sort_keys=True, separators=(",", ":"))
