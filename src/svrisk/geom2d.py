"""Planar geometry for unbounded convex upper sets.

A risk region is conv(vertices) + recession cone, where the recession cone
always contains the non-negative quadrant.  Vertices are stored along the
lower-left boundary in strictly decreasing first coordinate.  All predicates
use an absolute tolerance of 1e-9, scaled mildly by the magnitude of the
points involved.
"""

from __future__ import annotations

import json
import math
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
    _dual: ConvexCone2D | None = field(default=None, init=False, repr=False, compare=False)

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
        """Membership of a 2-vector, or of each row of a (k, 2) array."""
        x = np.asarray(x, dtype=float)
        eps = tol * np.maximum(1.0, np.abs(x).max(axis=-1))
        c_lo = self.lo[0] * x[..., 1] - self.lo[1] * x[..., 0]
        if self.is_ray:
            inside = (np.abs(c_lo) <= eps) & (x @ self.lo >= -eps)
        elif self.is_halfplane:
            inside = c_lo >= -eps
        else:
            inside = (c_lo >= -eps) & (x[..., 0] * self.hi[1] - x[..., 1] * self.hi[0] >= -eps)
        return inside if inside.ndim else bool(inside)

    def positive_dual(self):
        """Cone of directions with non-negative inner product on this cone,
        made on the first call and kept: every region on this cone reads it."""
        if self._dual is None:
            object.__setattr__(self, "_dual", ConvexCone2D(_rot_cw(self.hi), _rot_ccw(self.lo)))
        return self._dual

    def approx_equal(self, other, tol=TOL):
        return (
            float(np.max(np.abs(self.lo - other.lo))) <= tol
            and float(np.max(np.abs(self.hi - other.hi))) <= tol
        )


def _check_upper_cone(rec):
    """Refuse a cone that ``contains`` says misses a unit axis: its
    predicates at (1, 0) and (0, 1), on plain floats."""
    (l0, l1), (h0, h1) = rec.lo.tolist(), rec.hi.tolist()
    # At the unit axes contains' eps is TOL, <lo x e> is (-l1, l0) and
    # <e x hi> is (h1, -h0).  A ray would need |l0|, |l1| <= TOL, which no
    # unit vector has.
    ok = not rec.is_ray and -l1 >= -TOL and l0 >= -TOL
    if ok and not rec.is_halfplane:
        ok = h1 >= -TOL and -h0 >= -TOL
    if not ok:
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
        """Infimum of <u, x> over the region, -inf where it is not attained:
        a float for a direction u, an array for a (k, 2) block of them."""
        u = np.asarray(u, dtype=float)
        if u.shape != (2,) and (u.ndim != 2 or u.shape[1] != 2):
            raise ValidationError("direction must be a 2-vector or a (k, 2) array")
        dirs = u.reshape(-1, 2)
        norms = np.hypot(dirs[:, 0], dirs[:, 1])
        if not ((0.0 < norms) & (norms < np.inf)).all():
            raise ValidationError("zero or non-finite direction")
        inside = self._dual.contains(dirs / norms[:, None], tol)
        least = np.full(len(dirs), -np.inf)
        # One matrix-vector product per direction, rounded as `vertices @ u` is.
        products = np.matmul(self.vertices[None], dirs[inside][:, :, None])
        least[inside] = products[..., 0].min(axis=1)
        return least if u.ndim == 2 else float(least[0])

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


# Point-line pairs per block of the window clip and the polygon distance:
# their temporaries stay near a megabyte however many points reach them.
_PAIR_BLOCK = 2**16


def region_from_points_plus_cone(points, recession):
    """Canonical region conv(points) + recession.

    In the cone coordinates a = <lo x p> and b = <p x hi> (b = a for a
    half-plane), the recession is the quadrant: p dominates q exactly when
    a_p <= a_q and b_p <= b_q.  One sort by a, then b, x and y, and one
    prefix minimum of b keep the exactly undominated front, in increasing a
    and decreasing b; of repeated points (zeros of either sign included) the
    first given stays.  The front's points within eps = TOL max(1, max|p|)
    of its first point's a, or of its last point's b, lie within eps of the
    recession ray of the innermost of them, so only that one is kept at each
    end.  The lower-left chain then drops every point within eps of a hull
    edge.  Time is O(m log m) and memory O(m); every vertex is an input
    point, and every input point lies within the tolerance of the region.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValidationError("points must be a non-empty (m, 2) array")
    if not np.all(np.isfinite(pts)):
        raise ValidationError("points contain non-finite entries")

    lo, hi = recession.lo, recession.hi
    a = lo[0] * pts[:, 1] - lo[1] * pts[:, 0]
    b = a if recession.is_halfplane else pts[:, 0] * hi[1] - pts[:, 1] * hi[0]
    order = np.lexsort((pts[:, 1], pts[:, 0], b, a))
    pts, a, b = pts[order], a[order], b[order]
    front = np.r_[True, b[1:] < np.minimum.accumulate(b)[:-1]]
    pts, a, b = pts[front], a[front], b[front]
    eps = TOL * _scale_of(pts)
    first = np.count_nonzero(a <= a[0] + eps) - 1
    last = len(b) - np.count_nonzero(b <= b[-1] + eps)
    if last <= first:
        return RiskRegion2D(pts[first : first + 1], recession)
    # The front runs in decreasing x: this is the lower-left chain's order.
    pts = pts[first : last + 1]

    # Lower-left chain, on Python floats (the same operations as on arrays).
    xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()
    kept = [0]
    for i in range(1, len(xs)):
        x, y = xs[i], ys[i]
        while len(kept) >= 2:
            j, k = kept[-2], kept[-1]
            dx, dy = xs[k] - xs[j], ys[k] - ys[j]
            if not dx * (y - ys[k]) - dy * (x - xs[k]) >= -eps * math.hypot(dx, dy):
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
            # The kept cut h separates i and k, so their lines are not
            # parallel.
            i, h = stack[-2], stack[-1]
            det = ux[i] * uy[k] - uy[i] * ux[k]
            x = (off[i] * uy[k] - off[k] * uy[i]) / det
            y = (ux[i] * off[k] - ux[k] * off[i]) / det
            limit = off[h] - TOL * max(scale, abs(x), abs(y))
            if not x * ux[h] + y * uy[h] >= limit:
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


def _polygon_dist(pts, poly):
    """Distance from each point to the convex polygon whose vertices run
    counterclockwise (one or two vertices make a point or a segment), in
    blocks of points: zero inside, else the distance to the nearest edge."""
    edges = np.roll(poly, -1, axis=0) - poly
    lengths = (edges * edges).sum(axis=1)
    lengths[lengths == 0.0] = 1.0  # a zero edge (one vertex) gives t = 0
    out = np.empty(len(pts))
    step = max(1, _PAIR_BLOCK // len(poly))
    for r0 in range(0, len(pts), step):
        rel = pts[r0 : r0 + step, None, :] - poly
        t = np.clip((rel * edges).sum(axis=2) / lengths, 0.0, 1.0)
        gap = rel - t[..., None] * edges
        dist = np.hypot(gap[..., 0], gap[..., 1]).min(axis=1)
        if len(poly) > 2:
            cross = edges[:, 0] * rel[..., 1] - edges[:, 1] * rel[..., 0]
            dist[(cross >= -TOL * _scale_of(poly)).all(axis=1)] = 0.0
        out[r0 : r0 + step] = dist
    return out


def hausdorff_on_window(region_a, region_b, window):
    """Hausdorff distance between the window-clipped regions.

    Both clipped sets are convex polygons, for which the directed distances
    are attained at vertices, so the value is exact.
    """
    pa = _clip_to_window(region_a, window)
    pb = _clip_to_window(region_b, window)
    return float(max(_polygon_dist(pa, pb).max(), _polygon_dist(pb, pa).max()))


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
