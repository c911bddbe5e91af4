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
        if dual.is_ray:
            normals, anchors = dual.lo[None], verts[-1:]
        else:
            # Edge normals from the last vertex back to the first, between
            # the two recession normals.
            edges = (verts[1:] - verts[:-1])[::-1]
            rot = np.column_stack([edges[:, 1], -edges[:, 0]])
            norms = np.hypot(rot[:, 0], rot[:, 1])
            if np.any(norms == 0.0) or not np.all(np.isfinite(norms)):
                raise ValidationError("zero or non-finite direction")
            normals = np.vstack([dual.lo, rot / norms[:, None], dual.hi])
            anchors = np.vstack([verts[-1:], verts[-2::-1], verts[:1]])
        # One 2-vector dot per row, rounded as `vertex @ normal` is.
        offsets = np.matmul(anchors[:, None, :], normals[:, :, None]).reshape(-1)
        object.__setattr__(self, "_normals", normals)
        object.__setattr__(self, "_offsets", offsets)
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
        if not np.all(np.isfinite(offs)):
            raise ValidationError("offsets must be finite")
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


def _margin(pts):
    """Dominance margin delta = 4 TOL max(1, 2 max|p|) of a point set."""
    return 4.0 * TOL * max(1.0, 2.0 * float(np.max(np.abs(pts))))


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
    delta = _margin(pts)
    order = np.argsort(a, kind="stable")
    best_b = np.minimum.accumulate(b[order])
    # Points whose a is at least delta below a_i form a prefix of the order.
    below = np.searchsorted(a[order], a - delta, side="right")
    return (below > 0) & (best_b[below - 1] <= b - delta)


def _pairwise_dominated(pts, recession):
    """Mask of the points that another point strictly dominates, or that
    dominate each other with an earlier point (in the given order), up to
    the pair tolerance.

    A point can be marked only if another lies within delta of it in both
    cone coordinates: by the rounding argument of `_clearly_dominated`, a
    pair further apart than delta in either coordinate fails the pair
    tolerance there.  One sort by a, a prefix minimum of b over the points
    sorted strictly before each one and a search for the points at most
    delta above it in a find those rows; only they run the pairwise test,
    in blocks, against all points.  A dense convex front sends none.
    """
    m = pts.shape[0]
    a, b = _cone_coords(pts, recession)
    delta = _margin(pts)
    order = np.argsort(a, kind="stable")
    rank = np.empty(m, dtype=np.intp)
    rank[order] = np.arange(m)
    best_b = np.minimum.accumulate(b[order])
    before = np.where(rank > 0, best_b[rank - 1], np.inf)
    above = np.searchsorted(a[order], a + delta, side="right") > rank + 1
    rows = np.flatnonzero((before <= b + delta) | above)

    dominated = np.zeros(m, dtype=bool)
    step = max(1, _PAIR_BLOCK // m)
    for r0 in range(0, rows.size, step):
        idx = rows[r0 : r0 + step]
        diffs = (pts[idx, None, :] - pts[None, :, :]).reshape(-1, 2)
        inside = recession.contains_many(diffs).reshape(-1, m)
        covers = recession.contains_many(-diffs).reshape(-1, m)
        earlier = np.arange(m) < idx[:, None]
        dominated[idx] = (inside & (~covers | earlier)).any(axis=1)
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
    and the pairwise test then runs, in blocks, only on the r survivors that
    another survivor lies within that margin of: time is O(m log m) plus
    O(r m), with r = 0 on a strictly convex front, and memory is O(m).

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

    # np.unique sorts the rows, which fixes the mutual rule's order.
    pts = np.unique(pts, axis=0)
    if pts.shape[0] > 1:
        pts = pts[~_clearly_dominated(pts, recession)]
        dominated = _pairwise_dominated(pts, recession)
        pts = _greedy_cover(pts, recession) if dominated.all() else pts[~dominated]

    pts = pts[np.lexsort((pts[:, 1], -pts[:, 0]))]

    # Lower-left chain, on Python floats (the same operations as on arrays).
    eps = TOL * _scale_of(pts)
    xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()
    kept = [0]
    for i in range(1, len(xs)):
        x, y = xs[i], ys[i]
        while len(kept) >= 2:
            j, k = kept[-2], kept[-1]
            if not ((xs[k] - xs[j]) * (y - ys[k]) - (ys[k] - ys[j]) * (x - xs[k]) >= -eps):
                break
            kept.pop()
        kept.append(i)
    return RiskRegion2D(pts[kept], recession)


def _meet_rows(u, c, v, d, det):
    """Points where the lines <x, u_i> = c_i and <x, v_i> = d_i meet, given
    their determinants det_i = u_i x v_i (none of them near zero)."""
    x = (c * v[:, 1] - d * u[:, 1]) / det
    y = (u[:, 0] * d - v[:, 0] * c) / det
    return np.column_stack([x, y])


def region_from_halfspaces(halfspaces):
    """Region cut out by a HalfSpaceSet in the plane.

    The directions all lie in the first quadrant, so the intersection is a
    non-empty upper set; redundant constraints are dropped by one stack scan
    in angle order.
    """
    dirs = halfspaces.directions
    offs = halfspaces.offsets

    angles = np.arctan2(dirs[:, 1], dirs[:, 0])
    ang, off = angles.tolist(), offs.tolist()
    # Of the constraints whose angles agree to 1e-12, keep the largest offset.
    cons = []
    for k in np.lexsort((offs, angles)).tolist():
        if cons and abs(ang[k] - ang[cons[-1]]) <= 1e-12:
            if off[k] > off[cons[-1]]:
                cons[-1] = k
        else:
            cons.append(k)

    if len(cons) == 1:
        u, c = dirs[cons[0]], offs[cons[0]]
        rec = ConvexCone2D.halfplane(_rot_cw(u))
        return RiskRegion2D((c * u).reshape(1, 2), rec)

    span = ConvexCone2D.from_rays(dirs[cons[0]], dirs[cons[-1]])
    rec = span.positive_dual()

    # A middle constraint is redundant when the meeting point of its
    # neighbours already satisfies it; the first and last constraints own
    # the two infinite edges and always bind.  The scan runs on Python
    # floats, whose arithmetic matches numpy's elementwise operations.
    ux, uy = dirs[:, 0].tolist(), dirs[:, 1].tolist()
    scale = _scale_of(offs)
    stack = [cons[0]]
    for k in cons[1:]:
        while len(stack) >= 2:
            i, h = stack[-2], stack[-1]
            det = ux[i] * uy[k] - uy[i] * ux[k]
            if abs(det) <= _SNAP:
                raise ValidationError("parallel constraint lines do not intersect")
            x = (off[i] * uy[k] - off[k] * uy[i]) / det
            y = (ux[i] * off[k] - ux[k] * off[i]) / det
            size = max(scale, abs(x), abs(y))
            limit = off[h] - TOL * size
            # A 2-vector `p @ u` rounds as fma(y, u1, x * u0); the plain sum
            # differs from it by less than 2e-15 max(1, |x|, |y|), so only a
            # sum that close to the limit needs the exact product.
            value = x * ux[h] + y * uy[h]
            if not abs(value - limit) > 2e-15 * size:
                value = float(np.array([x, y]) @ dirs[h])
            if not value >= limit:
                break
            stack.pop()
        stack.append(k)

    # Vertices from the last constraint back to the first.
    idx = stack[::-1]
    u, c = dirs[idx], offs[idx]
    det = u[:-1, 0] * u[1:, 1] - u[:-1, 1] * u[1:, 0]
    if np.any(np.abs(det) <= _SNAP):
        raise ValidationError("parallel constraint lines do not intersect")
    return region_from_points_plus_cone(_meet_rows(u[:-1], c[:-1], u[1:], c[1:], det), rec)


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
    """Vertices of the convex polygon region `intersect` window box: the
    meeting points of all pairs of its lines that satisfy every line, in
    pair order, less near duplicates, sorted by angle about their mean."""
    wdirs, woffs = _window_halfspaces(window)
    dirs = np.vstack([region._normals, wdirs])
    offs = np.concatenate([region._offsets, woffs])
    m = dirs.shape[0]
    scale = max(_scale_of(offs), 1.0)
    first, second = np.triu_indices(m, 1)
    det = dirs[first, 0] * dirs[second, 1] - dirs[first, 1] * dirs[second, 0]
    meet = np.abs(det) > _SNAP
    first, second = first[meet], second[meet]
    pts = _meet_rows(dirs[first], offs[first], dirs[second], offs[second], det[meet])
    slack = TOL * np.maximum(scale, np.maximum(1.0, np.abs(pts).max(axis=1))) * 10.0
    feasible = np.empty(len(pts), dtype=bool)
    step = max(1, _PAIR_BLOCK // m)
    for r0 in range(0, len(pts), step):
        block = pts[r0 : r0 + step]
        # One matrix-vector product per point, rounded as `dirs @ p` is.
        values = np.matmul(dirs[None], block[:, :, None])[..., 0]
        feasible[r0 : r0 + step] = (values >= offs - slack[r0 : r0 + step, None]).all(axis=1)
    pts = pts[feasible]
    if not len(pts):
        raise ValidationError("window does not intersect the region")
    keep = [0]
    for i in range(1, len(pts)):
        if np.all(np.max(np.abs(pts[i] - pts[keep]), axis=1) > TOL * scale):
            keep.append(i)
    pts = pts[keep]
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
