"""Modulus-of-convexity estimation and second-order fitting.

The modulus at chord length eps is the largest delta such that the midpoint
of every chord of that length carries an inscribed ball of radius delta.  For
convex bodies the worst chords have both endpoints on the boundary, so the
estimator parametrizes the boundary radially on an angle grid, locates the
chords of the requested length and minimizes the midpoint's inscribed radius.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bodies import (
    DEFAULT_GRID_ND,
    ConvexBody,
    angle_grid,
    default_grid,
    grid_angle_error,
    sphere_grid_angle,
    steiner_point,
)
from .errors import NotUniformlyConvexError, OutOfDomainError

_CHORD_BLOCK = 32          # boundary points per block of the chord search
_CHORD_PAIRS = 512         # block pairs per evaluated chunk of the chord search
_DEPTH_BLOCK = 16          # query points per block of the depth kernel
_DEPTH_ENTRIES = 1 << 16   # block-direction bounds per chunk of the depth kernel
_DEPTH_PAIRS = 8192        # block-direction pairs per evaluated chunk of the depth kernel
_U32 = 2.0 ** -24          # unit roundoff of float32
_U64 = 2.0 ** -53          # unit roundoff of float64


def ball_modulus(r: float, eps: float) -> float:
    """Exact modulus of a radius-r ball: r - sqrt(r^2 - eps^2/4)."""
    if r <= 0.0:
        raise OutOfDomainError("radius must be positive")
    if eps < 0.0 or eps >= 2.0 * r:
        raise OutOfDomainError(f"eps must lie in [0, 2r) = [0, {2 * r})")
    return r - math.sqrt(r * r - 0.25 * eps * eps)


@dataclass(frozen=True)
class ModulusSample:
    eps: float
    delta: float
    error_bound: float


@dataclass(frozen=True)
class ModulusCurve:
    """Sampled modulus values (eps strictly increasing) for one body."""

    samples: tuple[ModulusSample, ...]
    body_id: str = "body"

    def __post_init__(self):
        e = self.eps
        if len(e) and (np.any(np.diff(e) <= 0.0) or e[0] <= 0.0):
            raise ValueError("eps values must be positive and strictly increasing")
        if np.any(self.delta < -self.error_bound - 1e-15):
            raise ValueError("delta below -error_bound; estimator output inconsistent")

    @property
    def eps(self) -> np.ndarray:
        return np.array([s.eps for s in self.samples])

    @property
    def delta(self) -> np.ndarray:
        return np.array([s.delta for s in self.samples])

    @property
    def error_bound(self) -> np.ndarray:
        return np.array([s.error_bound for s in self.samples])

    @classmethod
    def from_arrays(cls, eps, delta, error_bound, body_id="body") -> "ModulusCurve":
        samples = tuple(
            ModulusSample(float(e), float(d), float(b))
            for e, d, b in zip(eps, delta, error_bound)
        )
        return cls(samples=samples, body_id=body_id)


@dataclass(frozen=True)
class SecondOrderFit:
    """Second-order constant of delta(eps) ~ C eps^2 near zero."""

    C: float
    window: tuple[float, float]
    residual: float


def _radial_extents(grid: np.ndarray, numer: np.ndarray, rays: np.ndarray) -> np.ndarray:
    """Distance along each ray direction to the supporting-half-space boundary.

    T(u) = min over grid directions p with (p, u) > 0 of slack(p) / (p, u),
    which is 1/max over all p of (u, p/slack(p)), valid because some dot is
    always positive and nonpositive dots cannot attain the maximum.  That
    maximum is minus the depth of u below the directions p/slack(p) with zero
    support, so the pruned depth kernel computes it.  The floor on slack(p)
    keeps the squared lengths of the scaled directions finite.
    """
    scaled = grid / np.maximum(numer, 1e-150)[:, None]
    return -1.0 / _min_gaps(rays, scaled, np.zeros(len(grid)))


class BoundaryParam:
    """Radial boundary parametrization of a planar convex body on an angle grid.

    Boundary points are the radial hits of the body's supporting-half-space
    intersection, so flat faces are traced as well as strictly convex arcs.
    """

    def __init__(self, body: ConvexBody, resolution: int):
        if resolution < 16:
            raise ValueError("resolution must be at least 16")
        if body.dim != 2:
            raise ValueError("BoundaryParam is planar; use sections for d >= 3")
        self.body = body
        self.n = int(resolution)
        self.grid = angle_grid(self.n)
        self.support = body.support_values(self.grid)
        self.origin = steiner_point(body)
        self.diameter = body.diameter(self.grid)
        numer = self.support - self.grid @ self.origin
        if np.min(numer) < -1e-12 * (1.0 + self.diameter):
            raise ValueError("reference point is not interior to the body")
        self.radial = _radial_extents(self.grid, numer, self.grid)
        self.points = self.origin + self.radial[:, None] * self.grid

    def inscribed_radii(self, pts: np.ndarray) -> np.ndarray:
        """Grid-supported inscribed-ball radius for each query point."""
        return _min_gaps(pts, self.grid, self.support)


def _bounding_balls(blocks: np.ndarray):
    """Centre and radius of a ball holding each block of points, (b, m, d)."""
    centre = 0.5 * (blocks.min(axis=1) + blocks.max(axis=1))
    radius = np.sqrt(((blocks - centre[:, None, :]) ** 2).sum(axis=2).max(axis=1))
    return centre, radius


def _chord_crossings(points: np.ndarray, eps: float):
    """Anchor and segment indices where the chordal distance crosses eps.

    (i, j) is a crossing when exactly one of the points j and j + 1 lies within
    eps of point i, judged in float32 as |x_i|^2 + |x_j|^2 - 2 (x_i, x_j), and j
    is at most n // 2 steps ahead of i, which keeps one copy of each chord.
    Blocks of _CHORD_BLOCK points get bounding balls (a column block also holds
    the point after it), and a pair of blocks is evaluated only when its
    distance range, widened by a bound on the float32 rounding, can straddle
    eps; the others cannot hold a crossing.  Sorted by anchor, then segment.
    """
    n = len(points)
    size = _CHORD_BLOCK
    first = np.arange(0, n, size)
    last = np.minimum(first + size, n) - 1
    offs = np.arange(size + 1)
    # padding repeats the last row, and repeats column 0 after the wrap, where it crosses nothing
    rows = np.minimum(first[:, None] + offs[:-1], n - 1)
    cols = np.minimum(first[:, None] + offs, n) % n
    centre_r, radius_r = _bounding_balls(points[rows])
    centre_c, radius_c = _bounding_balls(points[cols])
    dist = np.sqrt(((centre_r[:, None, :] - centre_c[None, :, :]) ** 2).sum(axis=2))
    reach = radius_r[:, None] + radius_c[None, :]
    pts32 = points.astype(np.float32)
    sq32 = np.einsum("ij,ij->i", pts32, pts32)
    eps2 = np.float32(eps * eps)
    # the float32 squared distances and eps2 are off by far less than this
    slack = 64.0 * _U32 * (float(np.max(np.einsum("ij,ij->i", points, points))) + eps * eps)
    straddles = ((np.maximum(dist - reach, 0.0) ** 2 <= eps * eps + slack)
                 & ((dist + reach) ** 2 >= eps * eps - slack))
    # some j - i in [first_j - last_i, last_j - first_i] is 0, ..., n // 2 modulo n
    lag = (first[None, :] - last[:, None]) % n
    span = (last - first)[None, :] + (last - first)[:, None]
    ahead = (lag <= n // 2) | (n - lag <= span)
    bi, bj = np.nonzero(straddles & ahead)
    anchors, segs = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for k0 in range(0, len(bi), _CHORD_PAIRS):
        R = rows[bi[k0:k0 + _CHORD_PAIRS]]
        C = cols[bj[k0:k0 + _CHORD_PAIRS]]
        # same float32 operations, in the same order, as the full n x n product
        dots = pts32[R] @ pts32[C].transpose(0, 2, 1)
        d2 = sq32[R][:, :, None] + sq32[C][:, None, :] - 2.0 * dots
        below = d2 <= eps2
        k, r, c = np.nonzero(below[:, :, :-1] != below[:, :, 1:])
        anchors.append(first[bi[k0 + k]] + r)
        segs.append(C[k, c])
    anchors, segs = np.concatenate(anchors), np.concatenate(segs)
    keep = (anchors < n) & ((segs - anchors) % n <= n // 2)
    anchors, segs = anchors[keep], segs[keep]
    order = np.lexsort((segs, anchors))
    return anchors[order], segs[order]


def _companions(points: np.ndarray, anchors: np.ndarray, segs: np.ndarray, eps: float):
    """The point at distance eps from each anchor on its crossed boundary segment.

    With w from the segment start to the anchor and d along the segment, the
    point is at the root t in [0, 1] of |w - t d|^2 = eps^2: the exit root when
    the segment starts within eps of the anchor, the entry root otherwise.
    NaN where the segment has no such root in float64.
    """
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


def _chords_of_length(points: np.ndarray, eps: float):
    """Anchor points and companion points at chord length eps on a closed polyline.

    Each crossing of the chordal distance gets its companion in closed form on
    the crossed boundary segment; a crossing whose segment has no float64 root
    is dropped.
    """
    anchors, segs = _chord_crossings(points, eps)
    companions = _companions(points, anchors, segs, eps)
    ok = ~np.isnan(companions[:, 0])
    if not np.any(ok):
        return None
    return points[anchors[ok]], companions[ok]


def _min_gaps(pts: np.ndarray, dirs: np.ndarray, support: np.ndarray) -> np.ndarray:
    """min over k of support[k] - (p, dirs[k]) for each query point p.

    Blocks of _DEPTH_BLOCK consecutive query points get bounding balls (centre
    c, radius r).  Since gap_k(p) >= gap_k(c) - r |dirs[k]|, a direction is
    evaluated on a block only when that bound, widened by a float64 rounding
    slack, reaches the block's largest gap along the centre's best direction,
    which is at least every point's minimum.
    """
    m = len(pts)
    if m == 0:
        return np.zeros(0)
    size = _DEPTH_BLOCK
    nb = -(-m // size)
    blocks = pts[np.minimum(np.arange(nb * size), m - 1)].reshape(nb, size, -1)
    centre, radius = _bounding_balls(blocks)
    blocks = np.ascontiguousarray(blocks.transpose(0, 2, 1))  # (block, coordinate, point)
    norms = np.sqrt(np.einsum("ij,ij->i", pts, pts))
    lengths = np.sqrt(np.einsum("ij,ij->i", dirs, dirs))
    slack = 64.0 * _U64 * (float(np.max(np.abs(support)))
                           + float(np.max(norms)) * float(np.max(lengths)))
    out = np.full((nb, size), np.inf)
    step = max(1, _DEPTH_ENTRIES // len(dirs))
    for b0 in range(0, nb, step):
        gaps_c = support[None, :] - centre[b0:b0 + step] @ dirs.T
        best = gaps_c.argmin(axis=1)
        upper = (support[best][:, None]
                 - np.einsum("bdi,bd->bi", blocks[b0:b0 + step], dirs[best])).max(axis=1)
        reach = radius[b0:b0 + step, None] * lengths[None, :]
        bi, k = np.nonzero(gaps_c - reach <= (upper + slack)[:, None])
        bi += b0
        for p0 in range(0, len(bi), _DEPTH_PAIRS):
            b = bi[p0:p0 + _DEPTH_PAIRS]
            kk = k[p0:p0 + _DEPTH_PAIRS]
            gaps = support[kk][:, None] - np.einsum("pdi,pd->pi", blocks[b], dirs[kk])
            starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
            u = b[starts]
            out[u] = np.minimum(out[u], np.minimum.reduceat(gaps, starts, axis=0))
    return out.reshape(-1)[:m]


def _planar_estimate(param: BoundaryParam, eps: float) -> float:
    found = _chords_of_length(param.points, eps)
    if found is None:
        raise OutOfDomainError(f"no boundary chord of length {eps}")
    a_pts, companions = found
    mids = 0.5 * (a_pts + companions)
    return float(param.inscribed_radii(mids).min())


def _section_points(origin, u, v, numer, grid, resolution):
    # radial parametrization of the planar section span{u, v} + origin
    t = np.arange(resolution) * (2.0 * np.pi / resolution)
    U = np.outer(np.cos(t), u) + np.outer(np.sin(t), v)
    T = _radial_extents(grid, numer, U)
    return origin + T[:, None] * U


def _row_dots(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    # (x_i, y_i) per row, rounded as the 1-D product x_i @ y_i
    return (X[:, None, :] @ Y[:, :, None])[:, 0, 0]


def _worst_curvature_directions(body, grid, n_take: int, seed: int):
    # flatness probe: larger osculating radius <=> slower support-point turn
    rng = np.random.default_rng(seed)
    probe = grid[:: max(1, len(grid) // 256)]
    pts = body.support_points(probe)
    phi = 1e-2
    w = rng.standard_normal(probe.shape)
    w -= _row_dots(w, probe)[:, None] * probe
    w /= np.sqrt(_row_dots(w, w))[:, None]
    q = probe * math.cos(phi) + w * math.sin(phi)
    rho = 2.0 * (body.support_values(q) - _row_dots(q, pts)) / phi**2
    take = np.argsort(-rho, kind="stable")[:n_take]
    return probe[take], w[take]


def _section_planes(body, grid, origin, sections: int, seed: int):
    """Orthonormal (u, v) of each section: half through the flattest probed
    support directions, the rest random."""
    rng = np.random.default_rng(seed)
    planes = []
    for p, w in zip(*_worst_curvature_directions(body, grid, max(1, sections // 2), seed)):
        x_p = body.support_point(p)
        u = x_p - origin
        nu = np.linalg.norm(u)
        u = u / nu if nu > 1e-12 else p
        v = w - (w @ u) * u
        v /= np.linalg.norm(v)
        planes.append((u, v))
    while len(planes) < sections:
        u = rng.standard_normal(body.dim)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(body.dim)
        v -= (v @ u) * u
        v /= np.linalg.norm(v)
        planes.append((u, v))
    return planes


def _sectioned_estimate(body, eps, resolution, sections, seed) -> np.ndarray:
    """Sectioned modulus at each eps of a sequence: the least depth of a section
    chord's midpoint.  The sections are built once and searched for every eps.
    """
    grid = default_grid(body.dim)
    support = body.support_values(grid)
    origin = steiner_point(body)
    numer = support - grid @ origin
    polylines = [_section_points(origin, u, v, numer, grid, resolution)
                 for u, v in _section_planes(body, grid, origin, sections, seed)]
    out = np.empty(len(eps))
    for i, e in enumerate(eps):
        best = np.inf
        for pts in polylines:
            found = _chords_of_length(pts, float(e))
            if found is None:
                continue
            a_pts, comps = found
            best = min(best, float(_min_gaps(0.5 * (a_pts + comps), grid, support).min()))
        if not np.isfinite(best):
            raise OutOfDomainError(f"no section chord of length {e}")
        out[i] = best
    return out


def _modulus_samples(body, eps_values, resolution, param, sections, seed):
    """delta at each eps, and the grid error bound they share."""
    if resolution < 16:
        raise ValueError("resolution must be at least 16")
    diam = param.diameter if param is not None else body.diameter()
    for eps in eps_values:
        if not 0.0 < eps < diam:
            raise OutOfDomainError(f"eps must lie in (0, diam) = (0, {diam})")
        if eps > 0.95 * diam:
            warnings.warn("modulus estimate near the diameter is noisy", stacklevel=4)
    if body.dim == 2:
        if param is None:
            param = BoundaryParam(body, resolution)
        delta = [_planar_estimate(param, float(eps)) for eps in eps_values]
        return delta, grid_angle_error(diam, param.n)
    delta = _sectioned_estimate(body, eps_values, resolution, sections, seed)
    # the sphere grid's facet sagitta dominates the sectioned estimate
    theta = sphere_grid_angle(DEFAULT_GRID_ND, body.dim)
    return delta, 0.75 * diam * theta**2


def estimate_modulus(
    body: ConvexBody,
    eps: float,
    resolution: int = 2048,
    *,
    param: BoundaryParam | None = None,
    sections: int = 8,
    seed: int = 0,
) -> tuple[float, float]:
    """Estimated modulus delta(eps) and its grid error bound.

    Planar bodies get the full boundary scan; higher dimensions are sampled on
    planar central sections through the flattest support directions, which is
    a lower-confidence estimate (the error bound is inflated accordingly).
    """
    delta, bound = _modulus_samples(body, [eps], resolution, param, sections, seed)
    return float(delta[0]), bound


def modulus_curve(
    body: ConvexBody,
    eps_values,
    resolution: int = 2048,
    body_id: str = "body",
    *,
    sections: int = 8,
    seed: int = 0,
) -> ModulusCurve:
    """Scan the modulus over an increasing eps grid, reusing one boundary model.

    The model is the planar boundary parametrization in 2-D and the set of
    section polylines in d >= 3; each eps then costs one chord search and one
    depth step per polyline.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    param = BoundaryParam(body, resolution) if body.dim == 2 else None
    delta, bound = _modulus_samples(body, eps_values, resolution, param, sections, seed)
    return ModulusCurve.from_arrays(eps_values, delta, np.full(len(eps_values), bound), body_id)


def default_fit_window(curve: ModulusCurve) -> tuple[float, float]:
    """Window [0.02, 0.2] x (implied curvature radius) from the smallest sample."""
    eps = curve.eps
    delta = curve.delta
    bound = curve.error_bound
    usable = delta > bound
    if not np.any(usable):
        raise NotUniformlyConvexError(
            "no sample exceeds its error bound; modulus not certifiably positive")
    k = int(np.argmax(usable))
    scale = eps[k] ** 2 / (8.0 * delta[k])
    return 0.02 * scale, 0.2 * scale


def fit_second_order(curve: ModulusCurve, window: tuple[float, float] | None = None) -> SecondOrderFit:
    """Least-squares fit of delta/eps^2 against eps, extrapolated to eps = 0.

    Raises NotUniformlyConvexError when windowed samples do not rise above
    their error bounds (zero modulus cannot be told apart from noise) or when
    the extrapolated constant is nonpositive.
    """
    eps = curve.eps
    delta = curve.delta
    bound = curve.error_bound
    auto = window is None
    if auto:
        window = default_fit_window(curve)
    lo, hi = window
    mask = (eps >= lo) & (eps <= hi)
    if mask.sum() < 4:
        if not auto:
            raise ValueError("fit window must contain at least 4 samples")
        order = np.argsort(eps)
        mask = np.zeros(len(eps), dtype=bool)
        mask[order[:4]] = True
        window = (float(eps[mask].min()), float(eps[mask].max()))
    if np.any(delta[mask] <= bound[mask]):
        raise NotUniformlyConvexError(
            "windowed modulus samples do not exceed their error bounds")
    x = eps[mask]
    y = delta[mask] / x**2
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    C = float(intercept)
    if C <= 0.0:
        raise NotUniformlyConvexError(f"fitted second-order constant {C} is not positive")
    return SecondOrderFit(C=C, window=(float(window[0]), float(window[1])), residual=residual)
