"""Exact planar convex regions bounded by circular arcs and segments.

Supports the boolean chain needed for ball hulls: equal-radius disk
intersections, two-point lenses, strongly convex hulls of point sets, and
Minkowski offsets by a disk.  All arcs are stored counterclockwise with
angular span below pi; polygons are closed convex chains of pieces sharing
endpoints.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody, as_vector, default_grid
from .errors import (
    EmptyInputError,
    GeometryError,
    NoEnclosingBallError,
    TooFarApartError,
)
from .seb import smallest_enclosing_circle

TWO_PI = 2.0 * math.pi
MAX_ARC_SPAN = math.pi * (1.0 - 1e-9)
MERGE_TOL = 1e-9


def _ang(v) -> float:
    return math.atan2(v[1], v[0]) % TWO_PI


def _e(t: float) -> np.ndarray:
    return np.array([math.cos(t), math.sin(t)])


@dataclass(frozen=True)
class Arc:
    """CCW circular arc; the region lies inside the circle (arc bulges outward)."""

    center: tuple[float, float]
    radius: float
    start_angle: float
    end_angle: float

    @property
    def span(self) -> float:
        return (self.end_angle - self.start_angle) % TWO_PI

    @property
    def start_point(self) -> np.ndarray:
        return np.asarray(self.center) + self.radius * _e(self.start_angle)

    @property
    def end_point(self) -> np.ndarray:
        return np.asarray(self.center) + self.radius * _e(self.end_angle)

    def point_at(self, frac: float) -> np.ndarray:
        t = self.start_angle + frac * self.span
        return np.asarray(self.center) + self.radius * _e(t)

    def length(self) -> float:
        return self.radius * self.span

    def contains_angle(self, phi: float, tol: float = 1e-12) -> bool:
        return (phi - self.start_angle) % TWO_PI <= self.span + tol


@dataclass(frozen=True)
class Seg:
    """Straight boundary piece from start to end (CCW orientation)."""

    start: tuple[float, float]
    end: tuple[float, float]

    @property
    def start_point(self) -> np.ndarray:
        return np.asarray(self.start)

    @property
    def end_point(self) -> np.ndarray:
        return np.asarray(self.end)

    def point_at(self, frac: float) -> np.ndarray:
        return (1.0 - frac) * self.start_point + frac * self.end_point

    def length(self) -> float:
        return float(np.linalg.norm(self.end_point - self.start_point))

    @property
    def normal_angle(self) -> float:
        d = self.end_point - self.start_point
        return _ang((d[1], -d[0]))


def _make_arc(center, radius: float, start: float, end: float) -> list[Arc]:
    """Arc pieces from start to end CCW, split so every span stays below pi."""
    c = (float(center[0]), float(center[1]))
    span = (end - start) % TWO_PI
    if span < 1e-15:
        return []
    n = max(1, int(math.ceil(span / MAX_ARC_SPAN)))
    out = []
    for i in range(n):
        a = (start + span * i / n) % TWO_PI
        b = (start + span * (i + 1) / n) % TWO_PI
        out.append(Arc(c, float(radius), a, b))
    return out


class ArcPolygon(ConvexBody):
    """Closed convex region bounded by arcs and segments; may be a single point."""

    def __init__(self, pieces, point=None):
        self.pieces = tuple(pieces)
        self._point = None if point is None else as_vector(point)
        if self._point is None and not self.pieces:
            raise GeometryError("an arc polygon needs boundary pieces or a point")
        if self.pieces:
            for a, b in zip(self.pieces, self.pieces[1:] + self.pieces[:1]):
                end, start = a.end_point, b.start_point
                if math.hypot(start[0] - end[0], start[1] - end[1]) > 1e-7:
                    raise GeometryError("boundary pieces do not chain into a closed loop")
        self._cones = None

    @classmethod
    def singleton(cls, point) -> "ArcPolygon":
        return cls((), point=point)

    @classmethod
    def full_disk(cls, center, radius: float) -> "ArcPolygon":
        pieces = []
        for k in range(4):
            pieces += _make_arc(center, radius, k * math.pi / 2.0, (k + 1) * math.pi / 2.0)
        return cls(pieces)

    # -- basic geometry -----------------------------------------------------

    @property
    def is_singleton(self) -> bool:
        return not self.pieces

    @property
    def singleton_point(self) -> np.ndarray:
        if not self.is_singleton:
            raise GeometryError("polygon is not a single point")
        return self._point

    @property
    def dim(self) -> int:
        return 2

    def vertices(self) -> np.ndarray:
        if self.is_singleton:
            return self._point[None, :]
        return np.array([p.start_point for p in self.pieces])

    def arcs(self) -> list[Arc]:
        return [p for p in self.pieces if isinstance(p, Arc)]

    def perimeter(self) -> float:
        return sum(p.length() for p in self.pieces)

    def boundary_samples(self, n: int = 256) -> np.ndarray:
        """n points spread along the boundary, piecewise by arc length."""
        if self.is_singleton:
            return np.repeat(self._point[None, :], n, axis=0)
        lengths = np.array([p.length() for p in self.pieces])
        total = lengths.sum()
        counts = np.maximum(1, np.round(n * lengths / total).astype(int))
        pts = []
        for piece, k in zip(self.pieces, counts):
            for i in range(k):
                pts.append(piece.point_at(i / k))
        return np.array(pts)

    # -- support oracle -----------------------------------------------------

    def support_values(self, P):
        P = np.asarray(P, dtype=float)
        if self.is_singleton:
            return P @ self._point
        best = np.max(P @ self.vertices().T, axis=1)
        norms = np.linalg.norm(P, axis=1)
        phis = np.arctan2(P[:, 1], P[:, 0]) % TWO_PI
        for a in self.arcs():
            in_range = (phis - a.start_angle) % TWO_PI <= a.span
            if np.any(in_range):
                vals = P[in_range] @ np.asarray(a.center) + a.radius * norms[in_range]
                best[in_range] = np.maximum(best[in_range], vals)
        return best

    def support_points(self, P):
        P = np.asarray(P, dtype=float)
        if self.is_singleton:
            return np.repeat(self._point[None, :], len(P), axis=0)
        # Candidates per direction: every vertex, and the point of each arc
        # whose angle range holds the (nonzero) direction within 1e-12.  Of
        # those within 1e-12 (1 + |s|) of the best value, take the smallest (x, y).
        arcs = np.array([(*a.center, a.radius, a.start_angle, a.span) for a in self.arcs()])
        arcs = arcs.reshape(-1, 5)
        centers, (radii, starts, spans) = arcs[:, :2], arcs[:, 2:].T
        norms = np.linalg.norm(P, axis=1)
        phis = np.arctan2(P[:, 1], P[:, 0]) % TWO_PI
        off_arc = ((phis[:, None] - starts) % TWO_PI > spans + 1e-12) | (norms == 0.0)[:, None]
        U = P / np.where(norms == 0.0, 1.0, norms)[:, None]
        verts = np.broadcast_to(self.vertices(), (len(P), len(self.pieces), 2))
        cands = np.concatenate([verts, centers + radii[:, None] * U[:, None, :]], axis=1)
        vals = P[:, None, 0] * cands[..., 0] + P[:, None, 1] * cands[..., 1]
        vals[:, len(self.pieces):][off_arc] = -np.inf
        top = vals.max(axis=1)
        tied = vals >= (top - 1e-12 * (1.0 + np.abs(top)))[:, None]
        x = np.where(tied, cands[..., 0], np.inf)
        y = np.where(x == x.min(axis=1)[:, None], cands[..., 1], np.inf)
        return cands[np.arange(len(P)), np.argmin(y, axis=1)]

    # -- membership ----------------------------------------------------------

    def _normal_cones(self):
        """The outer normals of the boundary as one row per arc and per vertex,
        in boundary order, returned column by column: centre x and y, radius,
        start and end angle, their unit vectors (cos, sin each) and the span.

        An arc's row is its circle and angle range.  The vertex at the end of
        each piece has radius 0 and the range from that piece's end normal to
        the next piece's start normal; a vertex range of pi or more is
        rounding at a smooth joint and counts as 0.
        """
        if self._cones is None:
            ends = [(p.start_angle, p.end_angle) if isinstance(p, Arc) else (p.normal_angle,) * 2
                    for p in self.pieces]
            rows = []
            for i, p in enumerate(self.pieces):
                if isinstance(p, Arc):
                    rows.append((*p.center, p.radius, *ends[i]))
                rows.append((*p.end_point, 0.0, ends[i][1], ends[(i + 1) % len(ends)][0]))
            cx, cy, r, a0, a1 = np.array(rows).T
            span = (a1 - a0) % TWO_PI
            span[(r == 0.0) & (span >= math.pi)] = 0.0
            self._cones = np.array(
                [cx, cy, r, a0, a1, np.cos(a0), np.sin(a0), np.cos(a1), np.sin(a1), span])
        return self._cones

    def _signed_distance(self, x: np.ndarray) -> float:
        """dist(x, K) outside and -dist(x, boundary) inside: the largest
        <u, x> - s_K(u) over unit u, taken row by row over the normal cones."""
        if self.is_singleton:
            return math.hypot(*(x - self._point))
        cones = self._normal_cones()
        rx, ry = x[:, None] - cones[:2]
        r, a0, _, c0, s0, c1, s1, span = cones[2:]
        into = (np.arctan2(ry, rx) - a0) % TWO_PI <= span
        ends = np.maximum(rx * c0 + ry * s0, rx * c1 + ry * s1)
        return float(np.max(np.where(into, np.hypot(rx, ry), ends) - r))

    def boundary_distance_exact(self, x) -> float:
        """Unsigned Euclidean distance from x to the boundary curve."""
        return abs(self._signed_distance(as_vector(x)))

    def contains(self, x, tol: float = 0.0, grid=None) -> bool:
        if not tol >= 0.0:
            raise ValueError("tol must be nonnegative")
        # 1e-12 of slack keeps rounded boundary points inside at tol = 0
        return self._signed_distance(as_vector(x)) <= tol + 1e-12

    def __repr__(self):
        if self.is_singleton:
            return f"ArcPolygon(singleton {self._point.tolist()})"
        return f"ArcPolygon({len(self.pieces)} pieces)"

    def _key(self):
        if self.is_singleton:
            return (self._point.tobytes(),)
        return tuple(
            (p.center, p.radius, p.start_angle, p.end_angle) if isinstance(p, Arc)
            else (p.start, p.end)
            for p in self.pieces
        )


# -- constructions ------------------------------------------------------------


def lens(a, b, R: float) -> ArcPolygon:
    """Region between the two radius-R minor arcs through a and b.

    Degenerates to a singleton for a == b; raises TooFarApartError when the
    chord is at least 2R so no radius-R arc joins the points.
    """
    a = as_vector(a)
    b = as_vector(b)
    if a.size != 2 or b.size != 2:
        raise ValueError("lens is a planar construction")
    _check_radius(R)
    d = float(np.linalg.norm(b - a))
    if d < 1e-14:
        return ArcPolygon.singleton(a)
    if d >= 2.0 * R:
        raise TooFarApartError(f"|a-b| = {d} must be below 2R = {2 * R}")
    mid = 0.5 * (a + b)
    h = math.sqrt(max(R * R - 0.25 * d * d, 0.0))
    n_hat = np.array([-(b - a)[1], (b - a)[0]]) / d
    c_plus = mid + h * n_hat
    c_minus = mid - h * n_hat
    pieces = _make_arc(c_plus, R, _ang(a - c_plus), _ang(b - c_plus))
    pieces += _make_arc(c_minus, R, _ang(b - c_minus), _ang(a - c_minus))
    return ArcPolygon(pieces)


def _arc_fragments_in_disk(piece: Arc, c: np.ndarray, R: float):
    """Sub-intervals (in piece-relative angle) of an arc lying inside B_R(c)."""
    q = np.asarray(piece.center)
    rho = piece.radius
    d = float(np.linalg.norm(q - c))
    span = piece.span
    if d < 1e-14:
        if rho <= R + 1e-12:
            return [(0.0, span)]
        return []
    if d >= rho + R or rho - d >= R:
        return []
    if d + rho <= R:
        return [(0.0, span)]
    t = (rho * rho + d * d - R * R) / (2.0 * rho * d)
    gamma = math.acos(min(1.0, max(-1.0, t)))
    theta_c = _ang(c - q)
    a0 = (theta_c - gamma - piece.start_angle) % TWO_PI
    out = []
    for shift in (a0 - TWO_PI, a0):
        lo = max(0.0, shift)
        hi = min(span, shift + 2.0 * gamma)
        if hi - lo > 1e-12:
            out.append((lo, hi))
    return out


def _seg_fragments_in_disk(piece: Seg, c: np.ndarray, R: float):
    p0 = piece.start_point
    v = piece.end_point - p0
    a = float(v @ v)
    if a == 0.0:
        return []
    w = p0 - c
    b = 2.0 * float(v @ w)
    e = float(w @ w) - R * R
    disc = b * b - 4.0 * a * e
    if disc <= 0.0:
        mid = p0 + 0.5 * v
        if float(np.linalg.norm(mid - c)) <= R:
            return [(0.0, 1.0)]
        return []
    sq = math.sqrt(disc)
    lo = max(0.0, (-b - sq) / (2.0 * a))
    hi = min(1.0, (-b + sq) / (2.0 * a))
    if hi - lo > 1e-12:
        return [(lo, hi)]
    return []


def _sub_piece(piece, lo: float, hi: float):
    if isinstance(piece, Arc):
        a = (piece.start_angle + lo) % TWO_PI
        b = (piece.start_angle + hi) % TWO_PI
        return Arc(piece.center, piece.radius, a, b)
    p0 = piece.point_at(lo)
    p1 = piece.point_at(hi)
    return Seg((p0[0], p0[1]), (p1[0], p1[1]))


def _joined_arc(q, p) -> Arc | None:
    """q followed by p as one arc, if both are arcs of one circle that meet
    and their joint span stays below MAX_ARC_SPAN; else None."""
    if not (isinstance(q, Arc) and isinstance(p, Arc)):
        return None
    # the centres agree as np.allclose(q.center, p.center, atol=1e-12) decides
    same = (abs(q.center[0] - p.center[0]) <= 1e-12 + 1e-5 * abs(p.center[0])
            and abs(q.center[1] - p.center[1]) <= 1e-12 + 1e-5 * abs(p.center[1])
            and abs(q.radius - p.radius) < 1e-12
            and abs((p.start_angle - q.end_angle) % TWO_PI) < 1e-9)
    if same and q.span + p.span < MAX_ARC_SPAN:
        return Arc(q.center, q.radius, q.start_angle, p.end_angle)
    return None


def _clean_pieces(pieces):
    """Drop near-degenerate pieces and merge adjacent arcs of one circle."""
    kept = [p for p in pieces if p.length() > MERGE_TOL]
    if len(kept) < 2:
        return kept
    merged = []
    for p in kept:
        joined = _joined_arc(merged[-1], p) if merged else None
        if joined is None:
            merged.append(p)
        else:
            merged[-1] = joined
    if len(merged) > 1:
        joined = _joined_arc(merged[-1], merged[0])
        if joined is not None:
            merged[0] = joined
            merged.pop()
    return merged


def clip_with_disk(ap: ArcPolygon, center, R: float) -> ArcPolygon | None:
    """Intersection of a convex arc polygon with the disk B_R(center)."""
    c = as_vector(center)
    if ap.is_singleton:
        pt = ap.singleton_point
        if math.hypot(pt[0] - c[0], pt[1] - c[1]) <= R + 1e-12:
            return ap
        return None
    frags = []
    any_cut = False
    for piece in ap.pieces:
        if isinstance(piece, Arc):
            ivs = _arc_fragments_in_disk(piece, c, R)
            full = piece.span
        else:
            ivs = _seg_fragments_in_disk(piece, c, R)
            full = 1.0
        # a piece with no fragment left is cut away whole
        any_cut = any_cut or not ivs
        for lo, hi in ivs:
            cut_lo = lo > 1e-12
            cut_hi = hi < full - 1e-12
            any_cut = any_cut or cut_lo or cut_hi
            frags.append(_sub_piece(piece, lo, hi))
    if not frags:
        if ap.contains(c, tol=0.0):
            return ArcPolygon.full_disk(c, R)
        return None
    if not any_cut:
        return ap
    pieces = []
    k = len(frags)
    for i, frag in enumerate(frags):
        pieces.append(frag)
        nxt = frags[(i + 1) % k]
        end, start = frag.end_point, nxt.start_point
        if math.hypot(start[0] - end[0], start[1] - end[1]) > MERGE_TOL:
            a0 = _ang(end - c)
            a1 = _ang(start - c)
            pieces += _make_arc(c, R, a0, a1)
    pieces = _clean_pieces(pieces)
    if not pieces:
        return None
    if len(pieces) == 1:
        # a single piece cannot close a loop; the overlap is (near) degenerate
        return ArcPolygon.singleton(pieces[0].point_at(0.5))
    return ArcPolygon(pieces)


def _dedupe(points: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    out = []
    for p in points:
        if not any(math.hypot(p[0] - q[0], p[1] - q[1]) <= tol for q in out):
            out.append(p)
    return np.array(out)


def _hull_vertices(points: np.ndarray) -> np.ndarray:
    """The points that are vertices of their convex hull, in input order.

    Andrew's monotone chain (Inf. Proc. Lett. 9, 1979) over the points sorted
    by (x, y): interior points, repeats of a point and points inside a hull
    edge are dropped; of equal points the first is kept.
    """
    order = np.lexsort((points[:, 1], points[:, 0]))
    srt = points[order]
    order = order[np.r_[True, np.any(srt[1:] != srt[:-1], axis=1)]]
    if len(order) <= 2:
        return points[np.sort(order)]
    xs, ys = points[order].T.tolist()

    def chain(idx):
        h = []
        for k in idx:
            # drop the last vertex while it makes no strict left turn
            while len(h) >= 2 and ((xs[h[-1]] - xs[h[-2]]) * (ys[k] - ys[h[-2]])
                                   - (ys[h[-1]] - ys[h[-2]]) * (xs[k] - xs[h[-2]])) <= 0.0:
                h.pop()
            h.append(k)
        return h[:-1]

    m = len(order)
    keep = order[chain(range(m)) + chain(range(m - 1, -1, -1))]
    return points[np.sort(keep)]


def _check_radius(R: float) -> None:
    if not 0.0 < R < math.inf:
        raise ValueError("radius must be positive and finite")


def _kernel(pts: np.ndarray, c_seb, r_seb: float, R: float) -> ArcPolygon | None:
    """Intersection of the radius-R disks about pts, the deduplicated hull
    vertices of the centres, whose smallest enclosing circle is (c_seb, r_seb);
    None if void."""
    if r_seb > R + 1e-9:
        return None
    if r_seb >= R - 1e-9:
        # kernel collapses to (essentially) one point
        return ArcPolygon.singleton(c_seb)
    region: ArcPolygon | None = ArcPolygon.full_disk(pts[0], R)
    for c in pts[1:]:
        region = clip_with_disk(region, c, R)
        if region is None or region.is_singleton:
            return region
    return region


def disk_intersection(centers, R: float) -> ArcPolygon | None:
    """Exact arc polygon of the intersection of radius-R disks, or None if void."""
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[1] != 2 or len(centers) == 0:
        raise EmptyInputError("need a nonempty (n, 2) array of centers")
    _check_radius(R)
    # a disk holds the centres exactly when it holds their hull vertices
    pts = _dedupe(_hull_vertices(centers))
    if len(pts) == 1:
        return ArcPolygon.full_disk(pts[0], R)
    return _kernel(pts, *smallest_enclosing_circle(pts), R)


def r_hull(points, R: float) -> ArcPolygon:
    """Strongly convex hull of radius R: intersection of all R-balls containing the points.

    Computed by intersecting the balls centered at the vertices of the kernel
    (the region of admissible centers); the kernel-vertex reduction is
    cross-checked against a dense-center sampling oracle in the test suite.
    A ball holds the points exactly when it holds the vertices of their convex
    hull, so only those vertices enter.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2 or len(points) == 0:
        raise EmptyInputError("need a nonempty (n, 2) point array")
    _check_radius(R)
    pts = _dedupe(_hull_vertices(points))
    if len(pts) == 1:
        return ArcPolygon.singleton(pts[0])
    c_seb, r_seb = smallest_enclosing_circle(pts)
    if r_seb > R + 1e-9:
        raise NoEnclosingBallError(
            f"points need an enclosing ball of radius {r_seb:.6g} > R = {R:.6g}")
    kernel = _kernel(pts, c_seb, r_seb, R)
    if kernel is None:
        raise NoEnclosingBallError("no admissible centers at this radius")
    if kernel.is_singleton:
        return ArcPolygon.full_disk(kernel.singleton_point, R)
    hull = disk_intersection(kernel.vertices(), R)
    if hull is None:
        raise GeometryError("kernel vertices produced an empty intersection")
    return hull


def offset(ap: ArcPolygon, r: float) -> ArcPolygon:
    """Minkowski sum with the disk B_r(0): grown arcs, shifted segments, vertex caps."""
    if not 0.0 <= r < math.inf:
        raise ValueError("offset distance must be nonnegative and finite")
    if r == 0.0:
        return ap
    if ap.is_singleton:
        return ArcPolygon.full_disk(ap.singleton_point, r)
    x, y, radius, a0, a1, *_, span = ap._normal_cones()
    # the vertex rows, one at the end of each piece
    caps = np.array([x, y, a0, a1, span]).T[radius == 0.0].tolist()
    pieces = []
    for piece, (vx, vy, n_end, n_start, gap) in zip(ap.pieces, caps):
        if isinstance(piece, Arc):
            pieces.append(Arc(piece.center, piece.radius + r, piece.start_angle, piece.end_angle))
        else:
            shift = r * _e(piece.normal_angle)
            p0 = piece.start_point + shift
            p1 = piece.end_point + shift
            pieces.append(Seg((p0[0], p0[1]), (p1[0], p1[1])))
        if gap > 1e-12:
            pieces += _make_arc((vx, vy), r, n_end, n_start)
    return ArcPolygon(_clean_pieces(pieces))


def hausdorff_distance(a: ConvexBody, b: ConvexBody, grid=None) -> float:
    """Hausdorff distance between convex bodies via the support-gap identity."""
    if a.dim != b.dim:
        raise ValueError(f"bodies of dimension {a.dim} and {b.dim} have no Hausdorff distance")
    if grid is None:
        grid = default_grid(a.dim)
    return float(np.max(np.abs(a.support_values(grid) - b.support_values(grid))))
