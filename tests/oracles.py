"""Independent oracles used by the tests.

These deliberately avoid the library code paths they are checking: the hull
oracle works from sampled ball centers thinned by scipy's convex hull, the
modulus oracle scans chords on an exact ellipse parametrization, the support
polygon reconstructs a body from raw support values, and the dense chord,
depth and radial scans evaluate every point pair and every direction that the
library's pruned kernels skip; the sphere-grid oracle is the scipy code the
library's numpy Sobol generator replaced; the refinement-chain and
support-point oracles are the step-by-step loops that the library's closed
form and vectorised tie-breaks replaced; the hull-vertex oracle is scipy's
qhull, and the full-input disk intersection clips against every input point
where the library clips against the convex-hull vertices only; arc-polygon
membership, boundary distance and offsets are the ray cast, per-piece distance
loops and per-vertex normal pairs that the library's normal-cone table
replaced.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.spatial import ConvexHull


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


def dense_chord_crossings(points: np.ndarray, eps: float):
    """Anchor and segment indices of every chord crossing, by the full n x n scan.

    The float32 squared distances of all point pairs are compared with eps^2
    in chunks of 512 rows; (i, j) is a crossing where the comparison differs
    between columns j and j + 1 (cyclically) and j is at most n // 2 steps
    ahead of i.
    """
    n = len(points)
    anchors = []
    segs = []
    pts32 = points.astype(np.float32)
    sq32 = np.einsum("ij,ij->i", pts32, pts32)
    eps2 = np.float32(eps * eps)
    for k0 in range(0, n, 512):
        A = pts32[k0:k0 + 512]
        d2 = sq32[k0:k0 + 512, None] + sq32[None, :] - 2.0 * (A @ pts32.T)
        below = d2 <= eps2
        cross = below != np.roll(below, -1, axis=1)
        rows, cols = np.nonzero(cross)
        rows = rows + k0
        forward = (cols - rows) % n <= n // 2
        anchors.append(rows[forward])
        segs.append(cols[forward])
    return np.concatenate(anchors), np.concatenate(segs)


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
    anchors, segs = dense_chord_crossings(points, eps)
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


def scipy_sphere_grid(n: int, dim: int = 3, seed: int = 0) -> np.ndarray:
    """(n, dim) unit directions from scipy's scrambled Sobol sampler and ndtri.

    The legacy seed= keyword seeds numpy.random.default_rng(seed); rng=seed
    would draw different points.
    """
    from scipy.special import ndtri
    from scipy.stats import qmc

    sampler = qmc.Sobol(d=dim, scramble=True, seed=seed)
    u = sampler.random_base2(max(1, math.ceil(math.log2(n))))[:n]
    g = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    return g / norms[:, None]


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


def _angle(v) -> float:
    return math.atan2(v[1], v[0]) % (2.0 * math.pi)


def _point_seg_dist(x: np.ndarray, s) -> float:
    v = s.end_point - s.start_point
    L2 = float(v @ v)
    if L2 == 0.0:
        return float(np.linalg.norm(x - s.start_point))
    t = float(np.clip((x - s.start_point) @ v / L2, 0.0, 1.0))
    return float(np.linalg.norm(x - (s.start_point + t * v)))


def _point_arc_dist(x: np.ndarray, a) -> float:
    rel = x - np.asarray(a.center)
    if a.contains_angle(_angle(rel)):
        return abs(float(np.linalg.norm(rel)) - a.radius)
    return min(float(np.linalg.norm(x - a.start_point)),
               float(np.linalg.norm(x - a.end_point)))


def piecewise_boundary_distance(ap, X) -> np.ndarray:
    """Distance from each row of X to the nearest boundary piece of a
    non-singleton arc polygon, one piece at a time."""
    from strconvex.arcpoly import Arc

    return np.array([
        min(_point_arc_dist(x, p) if isinstance(p, Arc) else _point_seg_dist(x, p)
            for p in ap.pieces)
        for x in np.asarray(X, dtype=float)])


def _ray_inside(ap, o: np.ndarray, x: np.ndarray) -> bool:
    """Whether the ray from the interior point o through x leaves the polygon
    at or beyond x, within 1e-12."""
    from strconvex.arcpoly import Seg

    d = x - o
    L = float(np.linalg.norm(d))
    if L < 1e-14:
        return True
    u = d / L
    hits = []
    for p in ap.pieces:
        if isinstance(p, Seg):
            v = p.end_point - p.start_point
            denom = u[0] * (-v[1]) - u[1] * (-v[0])
            if abs(denom) < 1e-15:
                continue
            w = p.start_point - o
            t = (w[0] * (-v[1]) - w[1] * (-v[0])) / denom
            s = (u[0] * w[1] - u[1] * w[0]) / denom
            if t > 0.0 and -1e-12 <= s <= 1.0 + 1e-12:
                hits.append(t)
        else:
            oc = o - np.asarray(p.center)
            b = 2.0 * float(u @ oc)
            c0 = float(oc @ oc) - p.radius**2
            disc = b * b - 4.0 * c0
            if disc < 0.0:
                continue
            sq = math.sqrt(disc)
            for t in ((-b - sq) / 2.0, (-b + sq) / 2.0):
                if t > 0.0:
                    pt = o + t * u
                    if p.contains_angle(_angle(pt - np.asarray(p.center)), tol=1e-9):
                        hits.append(t)
    if not hits:
        return False
    return L <= min(hits) + 1e-12


def ray_cast_contains(ap, X, tols) -> np.ndarray:
    """Membership of each row of X (columns) at each tol (rows) in a
    non-singleton arc polygon: inside when a ray cast from the mean of the
    piece ends and piece midpoints passes x before it leaves the polygon,
    else when the per-piece boundary distance is within tol."""
    X = np.asarray(X, dtype=float)
    o = np.mean([p.start_point for p in ap.pieces] + [p.point_at(0.5) for p in ap.pieces],
                axis=0)
    inside = np.array([_ray_inside(ap, o, x) for x in X], dtype=bool)
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
