"""Independent oracles used by the tests.

These deliberately avoid the library code paths they are checking: the hull
oracle works from sampled ball centers thinned by scipy's convex hull, the
modulus oracle scans chords on an exact ellipse parametrization (and the
closed form of the chord parallel to the major axis bounds it), the support
polygon reconstructs a body from raw support values, and the dense chord,
depth and radial scans evaluate every point pair and every direction that the
library's pruned kernels skip; the refinement-chain and support-point
oracles are the step-by-step loops that the library's closed forms and
vectorised tie-breaks replaced, and the minimal-radius oracle is the
bracket, expand and bisect search over full convexity checks that the
closed-form maximum of the pair thresholds replaced, with the curvature radii
h + h'' of the support function that bracket it in the plane; the closed
minimal radii of ellipsoids and l_p discs, and the l_p disc itself, test the
growth gate of the minimal radius; the hull-vertex oracle is scipy's
qhull, the near-repeat oracle is the greedy loop over every kept point that
the library's pass over hull-cycle neighbours replaced, and the full-input
disk intersection clips against every input point where the library clips
against the convex-hull vertices only; arc-polygon
membership, boundary distance and offsets are the ray cast, per-piece distance
loops and per-vertex normal pairs that the library's normal-cone table
replaced; the reference support values are the expressions that the
oracles' column-at-a-time row kernels replaced; the row-form hull, support
and companion kernels, and the stacked planar pair directions, are the code
that the modulus's coordinate-column kernels and the preallocated pair
directions replaced, and the unscreened section depth is the depth step
that evaluated every grid direction in full dimension before a section
screened them in its plane, all kept verbatim so that the new code can be
held to their bits; the sampled lens check is the loop that built each
chord's lens and tested its boundary samples, which the closed-form lens
supports on grid runs replaced, and the closed-form lens check is the test
of those supports at one radius that the lens radius, the largest root per
chord and direction, replaced; the supporting-ball check is the test of one
ball at one radius, with a hand-set rounding slack, that the supporting-ball
radius replaced; the direction pairs and pair table are the build that made
every pair direction, midpoint and a afresh per body, before the planar frame
was built once per pair count, kept so that each table array can be held to
its bits.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.spatial import ConvexHull

import strconvex as sc
from strconvex.arcpoly import lens
from strconvex.bodies import (
    ConvexBody, _row_norms, as_direction, default_grid, grid_angle_error, sphere_grid,
)
from strconvex.modulus import (
    BoundaryParam, _chords_of_length, _dots, _hull_cycle, _plane_angles, _rotate,
)
from strconvex.strongconv import (
    _CASCADE, _FINE_OFFSETS, _GAP_SCALES, _LENS_RESOLUTION, _LENS_TOL, _REL_TOL, _STENCIL_FLOATS,
    _lens_chords, _principal_tangents,
)


def support_polygon(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Vertices of the polygon cut out by supporting lines on an angle grid.

    Vertex i is the intersection of the lines (p_i, x) = h_i and
    (p_{i+1}, x) = h_{i+1}.
    """
    p = grid
    q = np.roll(grid, -1, axis=0)
    h = values
    g = np.roll(values, -1)
    det = p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]
    x = (h * q[:, 1] - g * p[:, 1]) / det
    y = (g * p[:, 0] - h * q[:, 0]) / det
    return np.stack([x, y], axis=1)


def sampled_center_oracle(points: np.ndarray, R: float, n_centers: int, seed: int):
    """Admissible ball centers sampled densely, thinned to convex position.

    Returns center vertices C such that the intersection of B_R(c), c in C,
    equals the intersection over all sampled admissible centers (redundant
    centers inside the convex hull of C cannot tighten it).
    """
    rng = np.random.default_rng(seed)
    # admissible centers satisfy max_i x_i - R <= c <= min_i x_i + R per coordinate
    lo = points.max(axis=0) - R
    hi = points.min(axis=0) + R
    cand = lo + (hi - lo) * rng.random((n_centers, 2))
    d2 = ((cand[:, None, :] - points[None, :, :]) ** 2).sum(-1)
    keep = cand[d2.max(axis=1) <= R * R]
    if len(keep) < 3:
        return keep
    hull = ConvexHull(keep)
    return keep[hull.vertices]


def oracle_hull_membership(x: np.ndarray, centers: np.ndarray, R: float, tol: float = 0.0):
    """Membership in the sampled-center intersection of radius-R balls."""
    d = np.sqrt(((centers - x) ** 2).sum(-1))
    return bool(d.max() <= R + tol)


def oracle_hull_boundary(centers: np.ndarray, R: float, n_per_circle: int = 720):
    """Boundary samples of the sampled-center intersection of radius-R balls."""
    t = np.linspace(0.0, 2.0 * np.pi, n_per_circle, endpoint=False)
    ring = np.stack([np.cos(t), np.sin(t)], axis=1)
    out = []
    for c in centers:
        pts = c + R * ring
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        ok = d2.max(axis=1) <= (R + 1e-9) ** 2
        out.append(pts[ok])
    if not out:
        return np.zeros((0, 2))
    return np.concatenate(out)


def ellipse_minor_chord_modulus(a: float, b: float, eps: float) -> float:
    """Depth of the midpoint of the chord of length eps parallel to the major axis.

    The chord at height y = b sqrt(1 - eps^2 / (4 a^2)) of the ellipse with
    semi-axes a >= b ends on the boundary, and its midpoint (0, y) is b - y
    deep: its nearest boundary point is the end of the minor axis, the
    flattest point of the ellipse.
    """
    return b - b * math.sqrt(1.0 - eps * eps / (4.0 * a * a))


def ellipse_chord_modulus(a: float, b: float, eps: float,
                          n_anchor: int = 2000, n_dense: int = 100_000) -> float:
    """Brute-force modulus of the ellipse x = (a cos t, b sin t) at chord eps.

    Anchors sweep the exact parametrization; companions come from a fine
    forward scan refined by bisection; the midpoint's inscribed radius is its
    distance to a dense boundary sampling.
    """
    T = np.linspace(0.0, 2.0 * np.pi, n_dense, endpoint=False)
    B = np.stack([a * np.cos(T), b * np.sin(T)], axis=1)

    def pt(t):
        return np.array([a * np.cos(t), b * np.sin(t)])

    best = np.inf
    window = np.linspace(1e-6, max(0.5, 4.0 * eps / min(a, b)), 4000)
    mids = []
    for t1 in np.linspace(0.0, 2.0 * np.pi, n_anchor, endpoint=False):
        x1 = pt(t1)
        tt = t1 + window
        dd = np.linalg.norm(np.stack([a * np.cos(tt), b * np.sin(tt)], axis=1) - x1, axis=1)
        idx = np.nonzero((dd[:-1] < eps) & (dd[1:] >= eps))[0]
        if len(idx) == 0:
            continue
        lo, hi = tt[idx[0]], tt[idx[0] + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if np.linalg.norm(pt(mid) - x1) < eps:
                lo = mid
            else:
                hi = mid
        mids.append(0.5 * (x1 + pt(0.5 * (lo + hi))))
    mids = np.asarray(mids)
    for k0 in range(0, len(mids), 64):
        chunk = mids[k0:k0 + 64]
        d = np.sqrt(((chunk[:, None, :] - B[None, :, :]) ** 2).sum(-1)).min(axis=1)
        best = min(best, float(d.min()))
    return best


def dense_chord_crossings(points: np.ndarray, eps_values):
    """Anchor and segment indices of every chord crossing, by the full n x n
    scan, as one (anchors, segments) pair per eps of eps_values.

    The float32 squared distances of all point pairs are computed in chunks
    of 512 rows, once for every eps, and compared with each eps^2; (i, j) is
    a crossing where the comparison differs between columns j and j + 1
    (cyclically) and j is at most n // 2 steps ahead of i.
    """
    n = len(points)
    eps2 = [np.float32(eps * eps) for eps in eps_values]
    anchors = [[] for _ in eps2]
    segs = [[] for _ in eps2]
    pts32 = points.astype(np.float32)
    sq32 = np.einsum("ij,ij->i", pts32, pts32)
    for k0 in range(0, n, 512):
        A = pts32[k0:k0 + 512]
        d2 = sq32[k0:k0 + 512, None] + sq32[None, :] - 2.0 * (A @ pts32.T)
        for k, e2 in enumerate(eps2):
            below = d2 <= e2
            cross = below != np.roll(below, -1, axis=1)
            rows, cols = np.nonzero(cross)
            rows = rows + k0
            forward = (cols - rows) % n <= n // 2
            anchors[k].append(rows[forward])
            segs[k].append(cols[forward])
    return [(np.concatenate(a), np.concatenate(s)) for a, s in zip(anchors, segs)]


def bisect_companions(points: np.ndarray, anchors: np.ndarray, segs: np.ndarray, eps: float):
    """Companion of each crossing by 50 bisection steps on its boundary segment.

    Where the float32 scan and float64 disagree about a crossing, bisection
    runs to an end of the segment.
    """
    a_pts = points[anchors]
    p0 = points[segs]
    p1 = points[(segs + 1) % len(points)]
    lo = np.zeros(len(anchors))
    hi = np.ones(len(anchors))
    f_lo = np.linalg.norm(a_pts - p0, axis=1) - eps
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        f_mid = np.linalg.norm(a_pts - (p0 + mid[:, None] * (p1 - p0)), axis=1) - eps
        same = np.sign(f_mid) == np.sign(f_lo)
        lo = np.where(same, mid, lo)
        f_lo = np.where(same, f_mid, f_lo)
        hi = np.where(same, hi, mid)
    t = 0.5 * (lo + hi)
    return p0 + t[:, None] * (p1 - p0)


def dense_chords_of_length(points: np.ndarray, eps: float):
    """Anchors and companions at chord length eps: the dense scan plus bisection."""
    [(anchors, segs)] = dense_chord_crossings(points, [eps])
    if len(anchors) == 0:
        return None
    return points[anchors], bisect_companions(points, anchors, segs, eps)


def dense_min_gaps(pts: np.ndarray, dirs: np.ndarray, support: np.ndarray) -> np.ndarray:
    """min over all k of support[k] - (p, dirs[k]), in chunks of 512 points."""
    out = np.empty(len(pts))
    for k0 in range(0, len(pts), 512):
        gaps = support[None, :] - pts[k0:k0 + 512] @ dirs.T
        out[k0:k0 + 512] = gaps.min(axis=1)
    return out


def dense_support(points: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """max over all points x of (x, d) for each direction d, in chunks of 512 directions."""
    out = np.empty(len(dirs))
    for k0 in range(0, len(dirs), 512):
        out[k0:k0 + 512] = (dirs[k0:k0 + 512] @ points.T).max(axis=1)
    return out


def dense_radial_extents(grid: np.ndarray, numer: np.ndarray, rays: np.ndarray) -> np.ndarray:
    """Distance along each ray to the boundary of the half-spaces (p, x) <= numer(p).

    1/max over all p of (p, u)/numer(p), from the full rays x directions
    product in chunks of 512 rays.
    """
    w = grid / np.maximum(numer, 1e-300)[:, None]
    inv = np.empty(len(rays))
    for k0 in range(0, len(rays), 512):
        inv[k0:k0 + 512] = (w @ rays[k0:k0 + 512].T).max(axis=0)
    return 1.0 / inv


def iterated_fixed_point(R0: float, K: float, tol: float = 1e-9, max_iter: int = 500):
    """(values, converged) of the refinement map R -> 2R/(8RK + 1) iterated from R0.

    Stops at the first iterate within tol of 1/(8K), or after max_iter steps.
    """
    limit = 1.0 / (8.0 * K)
    values = [float(R0)]
    R = float(R0)
    for _ in range(max_iter):
        if abs(R - limit) <= tol:
            return values, True
        R = 2.0 * R / (8.0 * R * K + 1.0)
        values.append(R)
    return values, abs(R - limit) <= tol


def support_curvature_radii(body, n: int = 4096) -> np.ndarray:
    """Osculating-radius estimates h + h'' of a planar body from its support function."""
    from strconvex import angle_grid

    if body.dim != 2:
        raise ValueError("curvature radii via support differences need a planar body")
    grid = angle_grid(n)
    h = body.support_values(grid)
    step = 2.0 * np.pi / n
    h_dd = (np.roll(h, -1) - 2.0 * h + np.roll(h, 1)) / step**2
    return h + h_dd


def bisect_min_radius(body, tol: float, n_pairs: int = 4096, seed: int = 0):
    """(lo, hi) bracketing the minimal strong-convexity radius by bisection.

    Brackets from the curvature radii in the plane and from the chord radius
    eps^2 / (4 delta) of the modulus probe in space, widens or shrinks the
    bracket by doublings, then bisects until hi - lo <= tol * hi.  The low end
    fails check_strong_convexity and the high end passes it.
    """
    from strconvex import check_strong_convexity, modulus_curve

    diam = body.diameter()
    if body.dim == 2:
        r_curv = float(np.max(support_curvature_radii(body, 4096)))
        lo = 0.5 * r_curv
        hi = max(diam, 1.25 * r_curv)
    else:
        probe_eps = diam / 8.0
        delta = modulus_curve(body, [probe_eps], 512).delta[0]
        r0 = probe_eps**2 / (4.0 * delta)
        lo = 0.5 * r0
        hi = 4.0 * r0

    def convex_at(R):
        return check_strong_convexity(body, R, n_pairs=n_pairs, seed=seed).is_convex

    if not convex_at(hi):
        hi_try = 2.0 * hi
        for _ in range(8):
            if convex_at(hi_try):
                lo, hi = hi, hi_try
                break
            hi, hi_try = hi_try, 2.0 * hi_try
        else:
            raise AssertionError(f"criterion fails up to R = {hi_try}")
    for _ in range(8):
        if not convex_at(lo):
            break
        hi = lo
        lo = 0.5 * lo
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if convex_at(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def reference_support_values(body, P: np.ndarray) -> np.ndarray:
    """Support values by the expressions the library's row kernels replaced:
    row norms by np.linalg.norm(axis=1), the ellipsoid's body frame broadcast
    as (P @ R) * axes, and the vertex maxima taken over directions x points."""
    P = np.asarray(P, dtype=float)
    if isinstance(body, sc.Ball):
        return P @ body.center + body.radius * np.linalg.norm(P, axis=1)
    if isinstance(body, sc.Ellipsoid):
        return P @ body.center + np.linalg.norm((P @ body.rotation) * body.semi_axes, axis=1)
    if isinstance(body, sc.PointHull):
        return np.max(P @ body.points.T, axis=1)
    if isinstance(body, sc.MinkowskiSum):
        total = np.zeros(len(P))
        for part in body.parts:
            total += reference_support_values(part, P)
        return total
    if isinstance(body, sc.ComplementBody):
        return body.R * np.linalg.norm(P, axis=1) - reference_support_values(body.base, P)
    if isinstance(body, sc.ArcPolygon):
        if body.is_singleton:
            return P @ body.singleton_point
        best = np.max(P @ body.vertices().T, axis=1)
        norms = np.linalg.norm(P, axis=1)
        phis = np.arctan2(P[:, 1], P[:, 0]) % (2.0 * math.pi)
        for a in body.arcs():
            in_range = (phis - a.start_angle) % (2.0 * math.pi) <= a.span
            if np.any(in_range):
                vals = P[in_range] @ np.asarray(a.center) + a.radius * norms[in_range]
                best[in_range] = np.maximum(best[in_range], vals)
        return best
    raise TypeError(f"no reference support values for {type(body).__name__}")


def loop_hull_support_points(points: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Per-row support points of conv(points): the lexicographically smallest
    point among those within 1e-12 (1 + |s|) of the best product."""
    prods = P @ points.T
    best = np.max(prods, axis=1)
    out = np.empty((len(P), points.shape[1]))
    scale = 1.0 + np.abs(best)
    for i in range(len(P)):
        ties = points[prods[i] >= best[i] - 1e-12 * scale[i]]
        out[i] = ties[np.lexsort(ties.T[::-1])[0]]
    return out


def loop_arc_support_points(ap, P: np.ndarray) -> np.ndarray:
    """Per-row support points of an arc polygon from its vertices and the arc
    points whose angle range holds the direction, ties broken by (x, y)."""
    P = np.asarray(P, dtype=float)
    if ap.is_singleton:
        return np.repeat(ap.singleton_point[None, :], len(P), axis=0)
    out = np.empty((len(P), 2))
    verts = ap.vertices()
    for i, p in enumerate(P):
        n = float(np.linalg.norm(p))
        phi = math.atan2(p[1], p[0]) % (2.0 * math.pi)
        cands = [(float(p @ v), v) for v in verts]
        for a in ap.arcs():
            if a.contains_angle(phi):
                pt = np.asarray(a.center) + a.radius * (p / n)
                cands.append((float(p @ pt), pt))
        top = max(v for v, _ in cands)
        tied = [pt for v, pt in cands if v >= top - 1e-12 * (1.0 + abs(top))]
        tied.sort(key=lambda q: (q[0], q[1]))
        out[i] = tied[0]
    return out


def scipy_hull_vertices(points: np.ndarray) -> np.ndarray:
    """The first occurrence of each qhull vertex of a planar set, in input order."""
    verts = points[ConvexHull(points).vertices]
    first = [int(np.flatnonzero(np.all(points == v, axis=1))[0]) for v in verts]
    return points[np.sort(first)]


def greedy_dedupe(points: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Points in input order, each dropped if within tol of an earlier kept one."""
    out = []
    for p in points:
        if not any(math.hypot(p[0] - q[0], p[1] - q[1]) <= tol for q in out):
            out.append(p)
    return np.array(out)


def full_input_disk_intersection(centers, R: float):
    """Intersection of the radius-R disks about every centre, with no hull prefilter.

    Centres within 1e-12 of an earlier one are dropped; then the n x n
    diameter reject, the enclosing-circle certificate, and one clip of the
    disk about the first centre per remaining centre, in input order.
    """
    from strconvex.arcpoly import ArcPolygon, clip_with_disk
    from strconvex.seb import smallest_enclosing_circle

    centers = np.asarray(centers, dtype=float)
    pts = centers[:1]
    for p in centers[1:]:
        if np.hypot(*(pts - p).T).min() > 1e-12:
            pts = np.vstack([pts, p])
    if len(pts) == 1:
        return ArcPolygon.full_disk(pts[0], R)
    if np.max(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)) > (2.0 * R) ** 2 + 1e-12:
        return None
    c_seb, r_seb = smallest_enclosing_circle(pts)
    if r_seb > R + 1e-9:
        return None
    if r_seb >= R - 1e-9:
        return ArcPolygon.singleton(c_seb)
    region = ArcPolygon.full_disk(pts[0], R)
    for c in pts[1:]:
        region = clip_with_disk(region, c, R)
        if region is None or region.is_singleton:
            return region
    return region


def full_input_r_hull(points, R: float):
    """R-hull of a planar set whose kernel is the full-input disk intersection.

    Assumes an enclosing ball of radius below R exists and the kernel is
    not a single point.
    """
    kernel = full_input_disk_intersection(points, R)
    return full_input_disk_intersection(kernel.vertices(), R)


def _angles(V: np.ndarray) -> np.ndarray:
    return np.arctan2(V[:, 1], V[:, 0]) % (2.0 * math.pi)


def _seg_distances(X: np.ndarray, s) -> np.ndarray:
    v = s.end_point - s.start_point
    L2 = float(v @ v)
    if L2 == 0.0:
        return np.linalg.norm(X - s.start_point, axis=1)
    t = np.clip((X - s.start_point) @ v / L2, 0.0, 1.0)
    return np.linalg.norm(X - (s.start_point + t[:, None] * v), axis=1)


def _arc_distances(X: np.ndarray, a) -> np.ndarray:
    rel = X - np.asarray(a.center)
    ends = np.minimum(np.linalg.norm(X - a.start_point, axis=1),
                      np.linalg.norm(X - a.end_point, axis=1))
    return np.where(a.contains_angle(_angles(rel)),
                    np.abs(np.linalg.norm(rel, axis=1) - a.radius), ends)


def piecewise_boundary_distance(ap, X) -> np.ndarray:
    """Distance from each row of X to the nearest boundary piece of a
    non-singleton arc polygon, one piece at a time over all the points."""
    from strconvex.arcpoly import Arc

    X = np.asarray(X, dtype=float)
    return np.min([_arc_distances(X, p) if isinstance(p, Arc) else _seg_distances(X, p)
                   for p in ap.pieces], axis=0)


def _ray_hits(ap, o: np.ndarray, U: np.ndarray) -> np.ndarray:
    """The nearest positive t at which o + t u meets a boundary piece, for each
    unit row u of U; inf where the ray meets none."""
    from strconvex.arcpoly import Seg

    best = np.full(len(U), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for p in ap.pieces:
            if isinstance(p, Seg):
                v = p.end_point - p.start_point
                denom = U[:, 0] * (-v[1]) - U[:, 1] * (-v[0])
                w = p.start_point - o
                t = (w[0] * (-v[1]) - w[1] * (-v[0])) / denom
                s = (U[:, 0] * w[1] - U[:, 1] * w[0]) / denom
                hit = (np.abs(denom) >= 1e-15) & (t > 0.0) & (-1e-12 <= s) & (s <= 1.0 + 1e-12)
                best = np.where(hit, np.minimum(best, t), best)
            else:
                oc = o - np.asarray(p.center)
                b = 2.0 * (U @ oc)
                disc = b * b - 4.0 * (float(oc @ oc) - p.radius**2)
                sq = np.sqrt(np.maximum(disc, 0.0))
                for t in ((-b - sq) / 2.0, (-b + sq) / 2.0):
                    on = p.contains_angle(_angles(o + t[:, None] * U - np.asarray(p.center)),
                                          tol=1e-9)
                    best = np.where((disc >= 0.0) & (t > 0.0) & on, np.minimum(best, t), best)
    return best


def ray_cast_contains(ap, X, tols) -> np.ndarray:
    """Membership of each row of X (columns) at each tol (rows) in a
    non-singleton arc polygon: inside when a ray cast from the mean of the
    piece ends and piece midpoints passes x before it leaves the polygon,
    within 1e-12, else when the per-piece boundary distance is within tol."""
    X = np.asarray(X, dtype=float)
    o = np.mean([p.start_point for p in ap.pieces] + [p.point_at(0.5) for p in ap.pieces],
                axis=0)
    D = X - o
    L = np.linalg.norm(D, axis=1)
    near = L < 1e-14
    U = D / np.where(near, 1.0, L)[:, None]
    hits = _ray_hits(ap, o, U)
    inside = near | (np.isfinite(hits) & (L <= hits + 1e-12))
    dist = np.full(len(X), np.inf)
    if not inside.all():
        dist[~inside] = piecewise_boundary_distance(ap, X[~inside])
    return np.array([inside | (dist <= tol) for tol in tols])


def loop_offset(ap, r: float):
    """Minkowski sum with B_r(0), a vertex cap wherever the end normal of one
    piece and the start normal of the next differ by 1e-12 to 2 pi - 1e-12."""
    from strconvex.arcpoly import Arc, ArcPolygon, Seg, _clean_pieces, _e, _make_arc

    if r == 0.0:
        return ap
    if ap.is_singleton:
        return ArcPolygon.full_disk(ap.singleton_point, r)

    def normal_out(piece):
        if isinstance(piece, Arc):
            return piece.start_angle, piece.end_angle
        return piece.normal_angle, piece.normal_angle

    grown = []
    for piece in ap.pieces:
        if isinstance(piece, Arc):
            grown.append(Arc(piece.center, piece.radius + r, piece.start_angle, piece.end_angle))
        else:
            shift = r * _e(piece.normal_angle)
            p0 = piece.start_point + shift
            p1 = piece.end_point + shift
            grown.append(Seg((p0[0], p0[1]), (p1[0], p1[1])))
    pieces = []
    k = len(ap.pieces)
    for i in range(k):
        pieces.append(grown[i])
        _, n_end = normal_out(ap.pieces[i])
        n_start, _ = normal_out(ap.pieces[(i + 1) % k])
        gap = (n_start - n_end) % (2.0 * math.pi)
        if 1e-12 < gap < 2.0 * math.pi - 1e-12:
            pieces += _make_arc(ap.pieces[i].end_point, r, n_end, n_start)
    return ArcPolygon(_clean_pieces(pieces))


def ellipsoid_min_radius(semi_axes) -> float:
    """Minimal strong-convexity radius a_max^2 / a_min of an ellipsoid: the
    largest curvature radius of its boundary, at the ends of the shortest axis."""
    axes = np.asarray(semi_axes, dtype=float)
    return float(axes.max() ** 2 / axes.min())


def lp_disc_min_radius(p: float, r: float = 1.0) -> float:
    """Minimal strong-convexity radius of the planar l_p ball of radius r, 1 < p <= 2.

    Its largest curvature radius sits where the boundary crosses a diagonal,
    r 2^(1/2 - 1/p) / (p - 1).
    """
    return r * 2.0 ** (0.5 - 1.0 / p) / (p - 1.0)


class LpDisc:
    """The planar l_p ball of radius r, through its support function r |u|_q,
    with 1/p + 1/q = 1.

    For p > 2 its boundary is flat to an order between 2 and infinity where it
    meets the axes, so it is uniformly convex but strongly convex for no radius.
    It has the support-value oracle only, which is all the pair table reads.
    """

    dim = 2

    def __init__(self, p: float, r: float = 1.0):
        self.p = float(p)
        self.q = self.p / (self.p - 1.0)
        self.r = float(r)

    def support_values(self, P):
        P = np.asarray(P, dtype=float)
        return self.r * np.sum(np.abs(P) ** self.q, axis=1) ** (1.0 / self.q)


# -- row-form kernels that the coordinate-column kernels replaced ---------------

_ROW_HULL_DIRS = sc.angle_grid(16)


def row_hull_cycle(xy: np.ndarray) -> np.ndarray:
    """Counter-clockwise hull vertex indices of (m, 2) points, on rows."""
    ext = np.argmax(_ROW_HULL_DIRS @ xy.T, axis=1)
    ext = ext[np.concatenate(([True], ext[1:] != ext[:-1]))]
    if ext[0] == ext[-1] and len(ext) > 1:
        ext = ext[:-1]
    idx = np.arange(len(xy))
    if len(ext) >= 3:
        a = xy[ext]
        edge = _row_rotate(a, 1) - a
        inward = np.stack([-edge[:, 1], edge[:, 0]], axis=1)
        # cross(edge, p - a) > 0 on every edge: strictly inside
        inside = np.all(inward @ xy.T > np.einsum("ij,ij->i", a, inward)[:, None], axis=0)
        inside[ext] = False
        idx = idx[~inside]
    x, y = xy[:, 0], xy[:, 1]
    idx = idx[np.lexsort((y[idx], x[idx]))]
    sx, sy = x[idx], y[idx]
    idx = idx[np.concatenate(([True], (sx[1:] != sx[:-1]) | (sy[1:] != sy[:-1])))]
    if len(idx) <= 2:
        return idx
    inner = idx[1:-1]
    side = _row_cross(xy[idx[-1]] - xy[idx[0]], xy[inner] - xy[idx[0]])
    lower = _row_left_chain(xy, np.concatenate((idx[:1], inner[side < 0.0], idx[-1:])))
    upper = _row_left_chain(xy, np.concatenate((idx[-1:], inner[side > 0.0][::-1], idx[:1])))
    return np.concatenate([lower[:-1], upper[:-1]])


def _row_rotate(a: np.ndarray, k: int) -> np.ndarray:
    return np.concatenate((a[k:], a[:k]))


def _row_cross(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    return u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]


def _row_left_chain(xy: np.ndarray, idx: np.ndarray) -> np.ndarray:
    while len(idx) > 2:
        p = xy[idx]
        left = _row_cross(p[1:-1] - p[:-2], p[2:] - p[1:-1]) > 0.0
        if left.all():
            break
        idx = np.concatenate([idx[:1], idx[1:-1][left], idx[-1:]])
    return idx


def row_support(points: np.ndarray, coords: np.ndarray, dirs: np.ndarray,
                psi: np.ndarray) -> np.ndarray:
    """The hull-based support of (m, d) points at (k, d) directions, on rows."""
    hull = row_hull_cycle(coords)
    h = len(hull)
    edge = coords[_row_rotate(hull, 1)] - coords[hull]
    alpha = np.arctan2(-edge[:, 0], edge[:, 1])
    start = int(np.argmin(alpha))
    alpha = np.maximum.accumulate(_row_rotate(alpha, start))
    pos = np.searchsorted(psi, alpha, side="left")
    run = np.diff(np.concatenate(([0], pos, [len(psi)])))
    ring = points[hull[(start + np.arange(-1, h + 2)) % h]]
    best = np.full(len(dirs), -np.inf)
    for shift in range(3):
        x = np.repeat(ring[shift:shift + h + 1], run, axis=0)
        np.maximum(best, np.einsum("ij,ij->i", x, dirs), out=best)
    return best


def row_companions(points: np.ndarray, anchors: np.ndarray, segs: np.ndarray, eps: float):
    """Closed-form companion points on rows, NaN rows where there is no root."""
    p0 = points[segs]
    d = points[(segs + 1) % len(points)] - p0
    w = points[anchors] - p0
    qa = np.einsum("ij,ij->i", d, d)
    qb = np.einsum("ij,ij->i", w, d)
    qc = np.einsum("ij,ij->i", w, w) - eps * eps
    with np.errstate(invalid="ignore", divide="ignore"):
        root = np.sqrt(qb * qb - qa * qc)
        t = np.where(qc <= 0.0, qb + root, qb - root) / qa
    t = np.where((t >= 0.0) & (t <= 1.0), t, np.nan)
    return p0 + t[:, None] * d


def stacked_planar_direction_pairs(n_base: int, gaps: np.ndarray):
    """Planar base and partner directions, stacked along a last axis."""
    theta = np.arange(n_base) * (2.0 * np.pi / n_base)
    partner = theta + gaps
    return (np.stack([np.cos(theta), np.sin(theta)], axis=1),
            np.stack([np.cos(partner), np.sin(partner)], axis=-1).reshape(-1, 2))


# -- the section depth step before its directions were screened in the plane ----


def unscreened_support(points: np.ndarray, coords: np.ndarray, dirs: np.ndarray,
                       psi: np.ndarray) -> np.ndarray:
    """The hull-based support of (d, m) points at (d, k) directions sorted by psi,
    every direction evaluated in full dimension at its cone vertex and both
    hull neighbours."""
    coords = np.ascontiguousarray(coords)
    hull = _hull_cycle(coords)
    h = len(hull)
    edge = np.take(coords, _rotate(hull, 1), axis=1) - np.take(coords, hull, axis=1)
    alpha = np.arctan2(-edge[0], edge[1])
    start = int(np.argmin(alpha))
    alpha = np.maximum.accumulate(_rotate(alpha, start))
    # the directions from pos[j - 1] to pos[j] lie in the normal cone of
    # vertex start + j, which is row j + 1 of ring
    pos = np.searchsorted(psi, alpha, side="left")
    run = np.diff(np.concatenate(([0], pos, [len(psi)])))
    # the ring and its repeats as rows, whose transposes are the columns that
    # _dots takes; the take copies the points at most once
    ring = np.take(points.T, hull[(start + np.arange(-1, h + 2)) % h], axis=0)
    best = np.full(len(psi), -np.inf)
    for shift in range(3):
        x = np.repeat(ring[shift:shift + h + 1], run, axis=0)
        np.maximum(best, _dots(x.T, dirs), out=best)
    return best


def unscreened_section_gaps(section, grid: np.ndarray, support: np.ndarray,
                            pts: np.ndarray) -> np.ndarray:
    """Every gap support_k - h(p_k) of the points of a section at the grid
    directions, in angle order; the least of them is the section depth."""
    order, psi, _ = _plane_angles(grid, section.basis)
    coords = ((np.ascontiguousarray(pts) - section.origin) @ section.basis.T).T
    return support[order] - unscreened_support(pts.T, coords, grid[order].T, psi)


# -- the lens check before its lenses were tested in closed form -----------------


def sampled_local_lens_check(
    body: ConvexBody,
    R: float,
    eps0: float,
    n_pairs: int = 256,
    tol: float | None = None,
    lens_samples: int = 64,
    resolution: int = 2048,
) -> bool:
    """Sampled test that every short boundary chord carries its radius-R lens.

    Planar only (uses the exact lens).  Chord lengths sweep (0, eps0]; each
    lens boundary is sampled and tested for membership in the body.  The
    default tol absorbs the boundary-grid discretization error, which matters
    when testing exactly at the minimal radius (the true slack vanishes there).
    """
    if body.dim != 2:
        raise ValueError("the lens inclusion test is planar")
    if not 0.0 < eps0 < 2.0 * R:
        raise ValueError("eps0 must lie in (0, 2R)")
    param = BoundaryParam(body, max(resolution, n_pairs))
    if tol is None:
        tol = 5.0 * grid_angle_error(param.diameter, param.n)
    grid = param.grid
    support = param.support
    fractions = (1.0, 0.75, 0.5, 0.25)
    per_len = max(1, n_pairs // len(fractions))
    for frac in fractions:
        length = frac * eps0
        found = _chords_of_length(param.points, length, param._index)
        if found is None:
            continue
        a_pts, comps = found
        take = max(1, len(a_pts) // per_len)
        for a, b in zip(a_pts[::take], comps[::take]):
            if np.linalg.norm(a - b) < 1e-12:
                continue
            body_pts = lens(a, b, R).boundary_samples(lens_samples)
            gaps = body_pts @ grid.T - support[None, :]
            if float(gaps.max()) > tol:
                return False
    return True


# -- the lens check at one radius, before it returned its radius ---------------


def _lens_arcs(a: np.ndarray, b: np.ndarray, R: float, n: int):
    """Centres and grid runs of the two arcs of each chord's radius-R lens.

    The arcs are the radius-R minor arcs through the (m, 2) chord ends a and
    b, about mid +- h n as arcpoly.lens builds them.  The lens's support is
    (c, g) + R on an arc's normal cone, one run of angle_grid(n) indices
    modulo n: the (m, k) runs come padded, with a mask of their entries.
    """
    d = b - a
    length = _row_norms(d)
    h = np.sqrt(np.maximum(R * R - 0.25 * length * length, 0.0))
    normal = np.stack([-d[:, 1], d[:, 0]], axis=1) / length[:, None]
    mid = 0.5 * (a + b)
    step = 2.0 * math.pi / n
    for c, start, end in ((mid + h[:, None] * normal, a, b), (mid - h[:, None] * normal, b, a)):
        t0 = np.arctan2(start[:, 1] - c[:, 1], start[:, 0] - c[:, 0]) % (2.0 * math.pi)
        span = (np.arctan2(end[:, 1] - c[:, 1], end[:, 0] - c[:, 0]) - t0) % (2.0 * math.pi)
        first = np.ceil(t0 / step).astype(np.intp)
        count = np.floor((t0 + span) / step).astype(np.intp) - first + 1
        offs = np.arange(np.max(count, initial=0))
        yield c, (first[:, None] + offs) % n, offs < count[:, None]


def local_lens_check(body: ConvexBody, R: float, eps0: float) -> bool:
    """Test that sampled boundary chords of length up to eps0 carry their radius-R lenses.

    A closed convex set is an intersection of radius-R balls exactly when it
    holds the radius-R lens of each of its chords (Polovinkin and Balashov,
    2004).  Planar only: on a 2048-point boundary model no lens's arc support
    (_lens_arcs) may exceed the grid support by more than tol, 5 grid support
    errors; off the arcs' cones a lens's support is a chord end's.  So R below
    the minimal radius R_min is refuted only when the lens bulge, about
    (1/R - 1/R_min) eps0^2 / 8, exceeds tol: on the 2:1 ellipse (R_min = 4)
    with eps0 = 0.1 it is 8.0e-6 at R = 3.9, below tol = 2.4e-5.
    """
    if body.dim != 2:
        raise ValueError("the lens inclusion test is planar")
    if not 0.0 < eps0 < 2.0 * R:
        raise ValueError("eps0 must lie in (0, 2R)")
    param = BoundaryParam(body, _LENS_RESOLUTION)
    tol = _LENS_TOL * grid_angle_error(param.diameter, param.n)
    gx, gy = param.grid.T
    for c, runs, inside in _lens_arcs(*_lens_chords(param, eps0), R, param.n):
        excess = c[:, :1] * gx[runs] + c[:, 1:] * gy[runs] + R - param.support[runs]
        if np.max(excess, where=inside, initial=-np.inf) > tol:
            return False
    return True


# -- the supporting-ball check at one radius, before it returned its radius -----


def supporting_ball_check(
    body: ConvexBody,
    R: float,
    p,
    tol: float = 1e-9,
    grid: np.ndarray | None = None,
) -> bool:
    """True iff the body lies in the radius-R ball touching it from inside at p.

    The ball is centered at x_p - R p, x_p the support point in direction p; it
    holds the body when R (1 - (p, q)) >= s(q) - (x_p, q) - tol on every unit
    row q of grid (default_grid when None), tol the slack allowed for rounding.
    ValueError: an R that is not positive and finite, a negative or NaN tol.
    """
    if not 0.0 < R < math.inf:
        raise ValueError("radius must be positive and finite")
    if not tol >= 0.0:
        raise ValueError("tol must be nonnegative")
    p = as_direction(p)
    if grid is None:
        grid = default_grid(body.dim)
    center = body.support_point(p) - R * p
    slack = body.support_values(grid) - grid @ center - R
    return bool(np.max(slack) <= tol)


# -- the pair table before its planar frame was built once per pair count -------


def direction_pairs(body: ConvexBody, n_pairs: int, seed: int):
    """Unit base directions, and their partners at every scale, scale by scale.

    In the plane the bases are uniform angles.  In space they are a sphere
    grid, and each base's partners lie along the top eigenvector of the
    support Hessian at the base.
    """
    n_base = max(8, -(-n_pairs // len(_GAP_SCALES)))
    gaps = np.array(_GAP_SCALES)[:, None]
    if body.dim == 2:
        theta = np.arange(n_base) * (2.0 * np.pi / n_base)
        partner = (theta + gaps).ravel()
        base, P2 = np.empty((n_base, 2)), np.empty((len(partner), 2))
        for angles, out in ((theta, base), (partner, P2)):
            np.cos(angles, out=out[:, 0])
            np.sin(angles, out=out[:, 1])
        return base, P2
    base = sphere_grid(n_base, body.dim, seed=seed)
    # the stencil holds 1 + 2 (d - 1)^2 points of d floats per base
    chunk = max(1, _STENCIL_FLOATS // ((1 + 2 * (body.dim - 1) ** 2) * body.dim))
    tang = np.concatenate([_principal_tangents(body, base[k:k + chunk])
                           for k in range(0, n_base, chunk)])
    partner = np.cos(gaps)[:, :, None] * base + np.sin(gaps)[:, :, None] * tang
    return base, partner.reshape(-1, body.dim)


def build_pair_table(body: ConvexBody, n_pairs: int, seed: int):
    """Unit pairs (P1, P2), their violation coefficients and thresholds, the
    largest threshold per scale and the base pairs' largest |s|.

    With m = (p1 + p2) / 2, the midpoint violation of the gap function is
    b - R a, where a = 1 - |m| and b = (s(p1) + s(p2)) / 2 - s(m).  It exceeds
    _REL_TOL * R exactly when R < b / (a + _REL_TOL), the pair's threshold.

    The base pairs come first: every base with its partner at each scale.
    The cascade pairs of _cascade_steps follow, from coarse to fine; each step
    is anchored at the best pair so far of its scale, so every scale's maximum
    follows the worst base to within 1/64 of its gap, far below the spacing
    of the base grid.
    """
    base, P2 = direction_pairs(body, n_pairs, seed)
    n_scales, n_base = len(_GAP_SCALES), len(base)
    P1 = np.tile(base, (n_scales, 1))
    M = 0.5 * (P1 + P2)
    s = body.support_values(np.concatenate([base, P2, M]))
    a = 1.0 - _row_norms(M)
    b = 0.5 * (np.tile(s[:n_base], n_scales) + s[n_base:n_base + len(P2)]) - s[n_base + len(P2):]
    per_scale = (b / (a + _REL_TOL)).reshape(n_scales, n_base)
    best = np.argmax(per_scale, axis=1) + n_base * np.arange(n_scales)
    top = per_scale.ravel()[best]
    anchors = [(P1[i], P2[i]) for i in best]
    rows = [(P1, P2, a, b)]
    n_fine = len(_FINE_OFFSETS)
    for k, coeffs in enumerate(_CASCADE):
        p, w = anchors[k]
        t = w - (w @ p) * p
        Q = coeffs @ np.stack([p, t / np.linalg.norm(t)])
        n = len(Q) // 3
        sq = body.support_values(Q)
        Q1, Q2 = Q[:n], Q[n:2 * n]
        qa = 1.0 - _row_norms(Q[2 * n:])
        qb = 0.5 * (sq[:n] + sq[n:2 * n]) - sq[2 * n:]
        rows.append((Q1, Q2, qa, qb))
        thr = qb / (qa + _REL_TOL)
        # the fine pairs refine scale k, the coarse ones open scale k + 1
        for scale, lo, hi in ((k, 0, n_fine), (k + 1, n_fine, n)):
            if lo < hi:
                j = lo + int(np.argmax(thr[lo:hi]))
                if thr[j] > top[scale]:
                    top[scale] = thr[j]
                    anchors[scale] = Q1[j], Q2[j]
    P1, P2, a, b = (np.concatenate(c) for c in zip(*rows))
    return P1, P2, a, b, b / (a + _REL_TOL), top, np.array(np.max(np.abs(s)))
