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
from typing import NamedTuple

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
_U32 = 2.0 ** -24          # unit roundoff of float32
_HULL_DIRS = angle_grid(16)  # directions whose extreme points prefilter a hull
_PLANE = np.eye(2)         # in-plane axes of a planar body
_SECTIONS = 8              # central sections of a solid
_SECTION_SEED = 0          # seed of the random half of the sections


def ball_modulus(r: float, eps: float) -> float:
    """Exact modulus of a radius-r ball: r - sqrt(r^2 - eps^2/4)."""
    if not 0.0 < r < math.inf:
        raise OutOfDomainError("radius must be positive and finite")
    if not 0.0 <= eps < 2.0 * r:
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

    def __post_init__(self):
        e = self.eps
        if len(e) and not (0.0 < e[0] and e[-1] < math.inf and np.all(np.diff(e) > 0.0)):
            raise ValueError("eps values must be positive, finite and strictly increasing")
        if not np.all(self.delta >= -self.error_bound - 1e-15):
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
    def from_arrays(cls, eps, delta, error_bound) -> "ModulusCurve":
        samples = tuple(
            ModulusSample(float(e), float(d), float(b))
            for e, d, b in zip(eps, delta, error_bound)
        )
        return cls(samples=samples)


@dataclass(frozen=True)
class SecondOrderFit:
    """Second-order constant of delta(eps) ~ C eps^2 near zero."""

    C: float
    window: tuple[float, float]
    residual: float


def _hull_cycle(xy: np.ndarray) -> np.ndarray:
    """Indices of the vertices of the convex hull of planar points, counter-clockwise.

    xy is (2, m), the points' x and y coordinate columns, so that every
    gather takes one 1-D index along its second axis.  The hull is cut at its
    (x, y)-least and (x, y)-greatest points into a lower and an upper chain,
    and every point that makes no strict left turn with its current
    neighbours is dropped, pass after pass, until none is: an extreme point
    always turns strictly left, and a chain of strict left turns through all
    of them is the hull (Andrew's monotone chain, with simultaneous removals).
    The vertices come from the (x, y)-least one on.

    Points that come in strictly increasing angle about the origin, winding
    once (_angle_chains), are a star-shaped polygon about the origin, which
    lies inside their hull.  So their chains are its two arcs between the cut
    points, in input order, and they peel in place (Graham's scan, Inf.
    Process. Lett. 1, 1972): a point that turns no strict left lies in the
    triangle of the origin and its neighbours, so it is no vertex.  Any other
    points are sorted: those strictly inside the polygon of the extreme points
    in _HULL_DIRS cannot be vertices and are dropped first, and the rest,
    sorted by (x, y) and without exact repeats, are split by the line from the
    first to the last.  One vertex for one distinct point, two for collinear
    points.  Both ways give the same vertices in exact arithmetic; of points
    collinear within rounding, the sorted way's prefilter may drop other ones
    than the peel in place keeps.
    """
    # np.take copies an array that is not C-contiguous on every call, so a
    # transposed view is copied once here
    xy = np.ascontiguousarray(xy)
    chains = _angle_chains(xy)
    if chains is None:
        idx = _sorted_candidates(xy)
        if len(idx) <= 2:
            return idx
        inner = idx[1:-1]
        side = _cross(xy[:, idx[-1]] - xy[:, idx[0]], np.take(xy, inner, axis=1) - xy[:, idx[:1]])
        chains = (np.concatenate((idx[:1], inner[side < 0.0], idx[-1:])),
                  np.concatenate((idx[-1:], inner[side > 0.0][::-1], idx[:1])))
    lower, upper = (_left_chain(xy, chain) for chain in chains)
    return np.concatenate([lower[:-1], upper[:-1]])


def _angle_chains(xy: np.ndarray):
    """Lower and upper chains of points in angle order about the origin, or None.

    The points are in angle order, winding once, when each turns strictly
    counter-clockwise to the next, the last to the first included (every
    cross product (x_i, y_i) x (x_i+1, y_i+1) is positive), and exactly one
    step goes from y < 0 to y >= 0.  Then the origin is inside their hull,
    and the chains run in input order from the (x, y)-least point to the
    (x, y)-greatest and on back to the first.  A set in any other order most
    often fails the count of upward steps, the cheaper test, at once.
    """
    x, y = xy
    below = y < 0.0
    if (np.count_nonzero(below[:-1] > below[1:]) + (below[-1] > below[0]) != 1
            or not x[-1] * y[0] > y[-1] * x[0]
            or not np.all(x[:-1] * y[1:] > y[:-1] * x[1:])):
        return None
    lo = np.flatnonzero(x == x.min())
    hi = np.flatnonzero(x == x.max())
    lo, hi = lo[np.argmin(y[lo])], hi[np.argmax(y[hi])]
    cycle = _rotate(np.arange(len(x)), int(lo))
    cut = (hi - lo) % len(x)
    return cycle[:cut + 1], np.concatenate((cycle[cut:], cycle[:1]))


def _sorted_candidates(xy: np.ndarray) -> np.ndarray:
    """Indices of the points that the prefilter keeps, sorted by (x, y), one per distinct point."""
    x, y = xy
    ext = np.argmax(_HULL_DIRS @ xy, axis=1)
    ext = ext[np.concatenate(([True], ext[1:] != ext[:-1]))]
    if ext[0] == ext[-1] and len(ext) > 1:
        ext = ext[:-1]
    idx = np.arange(len(x))
    if len(ext) >= 3:
        ax, ay = x[ext], y[ext]
        ex, ey = _rotate(ax, 1) - ax, _rotate(ay, 1) - ay
        # cross(edge, p - a) > 0 on every edge: strictly inside
        inward = np.stack([-ey, ex], axis=1)
        inside = np.all(inward @ xy > (ax * -ey + ay * ex)[:, None], axis=0)
        inside[ext] = False
        idx = idx[~inside]
    idx = idx[np.lexsort((y[idx], x[idx]))]
    sx, sy = x[idx], y[idx]
    return idx[np.concatenate(([True], (sx[1:] != sx[:-1]) | (sy[1:] != sy[:-1])))]


def _rotate(a: np.ndarray, k: int) -> np.ndarray:
    # np.roll(a, -k, axis=0), without its overhead on short arrays
    return np.concatenate((a[k:], a[:k]))


def _cross(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    # u x w of (2, ...) coordinate columns
    return u[0] * w[1] - u[1] * w[0]


def _left_chain(xy: np.ndarray, idx: np.ndarray) -> np.ndarray:
    # drop, pass after pass, every inner point that makes no strict left turn
    while len(idx) > 2:
        edge = np.diff(np.take(xy, idx, axis=1))
        left = _cross(edge[:, :-1], edge[:, 1:]) > 0.0
        if left.all():
            break
        idx = np.concatenate([idx[:1], idx[1:-1][left], idx[-1:]])
    return idx


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a_i, b_i) for each i of the (d, m) coordinate columns a and b.

    In the plane a_0 b_0 + a_1 b_1, which is what einsum over the rows
    returns, as a sum of two terms does not depend on their order.  In d >= 3
    einsum itself, on C-contiguous rows: its order of summation depends on the
    row length and the numpy build.  That copies a and b unless they are
    transposes of C-contiguous rows.
    """
    if len(a) == 2:
        return a[0] * b[0] + a[1] * b[1]
    return np.einsum("ij,ij->i", np.ascontiguousarray(a.T), np.ascontiguousarray(b.T))


def _plane_angles(dirs: np.ndarray, basis: np.ndarray):
    """Sort order, sorted angles and projections of directions into a plane.

    basis is (2, d), the orthonormal in-plane axes; xy is (k, 2), the
    projections (d, basis[0]), (d, basis[1]) in the order of dirs, and the
    angles are theirs, in [-pi, pi].  _support takes dirs[order] with these
    angles.
    """
    xy = dirs @ basis.T
    psi = np.arctan2(xy[:, 1], xy[:, 0])
    order = np.argsort(psi)
    return order, psi[order], xy


def _cone_runs(coords: np.ndarray, psi: np.ndarray):
    """Hull ring of C-contiguous (2, m) in-plane coordinates, and cone runs of sorted angles psi.

    A direction's maximum over the points is taken at the hull vertex whose
    normal cone holds its projection (Schneider, Convex Bodies, 2nd ed., sec.
    1.7); in angle order the cones are consecutive runs of directions, cut by
    one searchsorted among the angles of the outward edge normals.  The run[j]
    directions after the first sum(run[:j]) lie in the cone of point ring[j + 1].
    """
    hull = _hull_cycle(coords)
    h = len(hull)
    edge = np.take(coords, _rotate(hull, 1), axis=1) - np.take(coords, hull, axis=1)
    alpha = np.arctan2(-edge[0], edge[1])
    start = int(np.argmin(alpha))
    alpha = np.maximum.accumulate(_rotate(alpha, start))
    pos = np.searchsorted(psi, alpha, side="left")
    run = np.diff(np.concatenate(([0], pos, [len(psi)])))
    return hull[(start + np.arange(-1, h + 2)) % h], run


def _support(points: np.ndarray, coords: np.ndarray, dirs: np.ndarray,
             psi: np.ndarray) -> np.ndarray:
    """max over the points x of (x, d) for each direction d, in the order of dirs.

    Every argument is laid out as coordinate columns: points is (d, m),
    coords (2, m), the points' in-plane coordinates, and dirs (d, k).  The
    points lie in a plane, and the directions come sorted by psi, their
    angles in the same plane, as _plane_angles returns them.  The maximum is
    taken at the vertex of the direction's normal cone (_cone_runs).  That
    vertex and its two hull neighbours are evaluated with the
    full-dimensional dot product of _dots, which covers rounding at the ends
    of the cones.  In d >= 3 that is einsum on rows, which reads dirs without
    a copy when dirs.T is C-contiguous.
    """
    # the copy replaces a transposed view, which may be all that holds its base
    coords = np.ascontiguousarray(coords)
    ring, run = _cone_runs(coords, psi)
    # the ring and its repeats as rows, whose transposes are the columns that
    # _dots takes; the take copies the points at most once
    ring = np.take(points.T, ring, axis=0)
    best = np.full(len(psi), -np.inf)
    for shift in range(3):
        x = np.repeat(ring[shift:shift + len(run)], run, axis=0)
        np.maximum(best, _dots(x.T, dirs), out=best)
    return best


def _radial_extents(scaled: np.ndarray, basis: np.ndarray, rays: np.ndarray, angles) -> np.ndarray:
    """Distance along each ray direction to the supporting-half-space boundary.

    With scaled = p / slack(p) over the grid directions p, T(u) = min over p
    with (p, u) > 0 of slack(p) / (p, u) = 1 / max over p of (u, p / slack(p)),
    valid because some dot is always positive and nonpositive dots cannot
    attain the maximum.  The rays lie in the plane of basis, and angles are
    their _plane_angles, so that maximum is the support of the scaled
    directions' projection into that plane.
    """
    order, psi, _ = angles
    out = np.empty(len(rays))
    out[order] = 1.0 / _support(scaled.T, (scaled @ basis.T).T,
                                np.take(rays, order, axis=0).T, psi)
    return out


def _checked_resolution(resolution) -> int:
    # a whole number of boundary points: a fractional count would space the
    # rays of a section unevenly and leave its polyline open
    if resolution < 16:
        raise ValueError("resolution must be at least 16")
    if not float(resolution).is_integer():
        raise ValueError("resolution must be a whole number")
    return int(resolution)


def _scaled_directions(grid: np.ndarray, numer: np.ndarray) -> np.ndarray:
    # the floor on slack(p) keeps the scaled directions finite
    return grid / np.maximum(numer, 1e-150)[:, None]


class BoundaryParam:
    """Radial boundary parametrization of the planar section origin + span(basis).

    Boundary points are the radial hits of the body's supporting-half-space
    intersection, so flat faces are traced as well as strictly convex arcs.
    The radial extents and the inscribed radii both come from the support
    function of a planar point set, read off its convex hull.
    BoundaryParam(body, n) is a planar body as its own single section: the
    basis is the identity, and the rays and depth directions are angle_grid(n).

    points is (n, d), one boundary point per ray.  The per-eps kernels read
    coordinate columns instead, each a contiguous 1-D array: the chord index
    keeps the points as (d, n) columns, and a planar body keeps its depth
    directions in angle order as x and y columns.  A section keeps only their
    in-plane data in angle order, and gathers the grid rows of the few that
    pass its screen (_section_depth).
    """

    def __init__(self, body: ConvexBody, resolution: int):
        resolution = _checked_resolution(resolution)
        if body.dim != 2:
            raise ValueError("BoundaryParam is planar; use sections for d >= 3")
        self.body = body
        self.grid = angle_grid(resolution)
        self.support = body.support_values(self.grid)
        self.origin = steiner_point(body)
        self.diameter = body.diameter(self.grid)
        numer = self.support - self.grid @ self.origin
        if np.min(numer) < -1e-12 * (1.0 + self.diameter):
            raise ValueError("reference point is not interior to the body")
        self._build(_PLANE, self.grid, self.grid, self.support, numer,
                    _scaled_directions(self.grid, numer))

    @classmethod
    def _of_plane(cls, origin, basis, resolution, grid, support, numer,
                  scaled) -> "BoundaryParam":
        # a section of a solid; its rays are angle_grid(resolution) turned into the plane
        self = cls.__new__(cls)
        self.origin = origin
        t = np.arange(resolution) * (2.0 * np.pi / resolution)
        rays = np.outer(np.cos(t), basis[0]) + np.outer(np.sin(t), basis[1])
        self._build(basis, rays, grid, support, numer, scaled)
        return self

    def _build(self, basis, rays, grid, support, numer, scaled):
        angles = _plane_angles(rays, basis)
        self.n, self.basis = len(rays), basis
        self.radial = _radial_extents(scaled, basis, rays, angles)
        self.points = self.origin + self.radial[:, None] * rays
        self._index = _chord_index(self.points)
        order, self._psi, proj = angles if grid is rays else _plane_angles(grid, basis)
        if basis is _PLANE:
            # the depth directions in angle order, as coordinate columns
            self._dirs = np.ascontiguousarray(grid[order].T)
            self._dir_support = support[order]
        else:
            self._order, self._grid, self._grid_support = order, grid, support
            self._numer = numer[order]
            self._proj = np.ascontiguousarray(proj[order].T)
            self._gap_scale = float(np.linalg.norm(self.origin) + np.max(np.abs(numer)))

    def inscribed_radii(self, pts: np.ndarray) -> float:
        """Least grid-supported inscribed-ball radius over the query points.

        min over x of min over k of support_k - (x, p_k) is
        min over k of support_k - max over x of (x, p_k), and that inner
        maximum is the support function of the points at the grid directions,
        taken in angle order; the minimum does not need the grid order back.
        pts is (m, d); the kernels read its transpose, the points' coordinate
        columns, which is contiguous when pts is a transposed view of them, as
        _chords_of_length returns chords.  A planar body's basis is the
        identity, and x @ I is x on every nonzero coordinate, so its in-plane
        coordinates are x - origin.  A section screens the directions first.
        """
        if self.basis is not _PLANE:
            return self._section_depth(pts)
        best = _support(pts.T, pts.T - self.origin[:, None], self._dirs, self._psi)
        return float(np.min(self._dir_support - best))

    def _screen(self, pts: np.ndarray):
        # the cone runs of the points' in-plane coordinates, the screened gaps
        # in angle order and their bound tau, as _section_depth states them
        coords = np.ascontiguousarray(((np.ascontiguousarray(pts) - self.origin) @ self.basis.T).T)
        ring, run = _cone_runs(coords, self._psi)
        cx, cy = (np.repeat(c[ring[1:len(run) + 1]], run) for c in coords)
        gaps = self._numer - (cx * self._proj[0] + cy * self._proj[1])
        reach = math.sqrt(np.max(_dots(coords, coords)))
        return ring, run, gaps, (len(self.origin) + 8) * 2.0 ** -49 * (self._gap_scale + reach)

    def _section_depth(self, pts: np.ndarray) -> float:
        """Least depth of points in a section, screened in its plane, confirmed in full.

        The gap of direction k is g_k = s_k - max (x_v, p_k) over its cone
        vertex v(k) and that vertex's two hull neighbours, in full dimension,
        as _support evaluates it.  In exact arithmetic it equals the screened
        gap g~_k = numer_k - (c_v(k), pi_k), from the slack numer_k =
        s_k - (p_k, origin), the projection pi_k and the in-plane coordinates
        c.  tau = 16 (d + 8) u (|origin| + R + N), with u = 2^-53, R = max |c|
        and N = max |numer|, bounds |g~_k - g_k| with room to spare.  It
        covers the rounding of numer (d u |origin| + u N), of c, pi and their
        product (about 3 d u R), the points' rounding-level distance from the
        plane (a few sqrt(d) u (|origin| + R)), the full-dimensional dot and
        subtraction (d u (|origin| + R) + u N), and a cone vertex chosen
        wrongly at a rounded cone end, whose edge e to the right vertex is then
        normal to pi_k within rounding: |(e, pi_k)| <= 2 R (sqrt(2) d + 5) u.
        So every k* at which g is least passes the screen:

            g~_k* <= g_k* + tau = min g + tau <= min g~ + 2 tau.

        Only the directions that pass are evaluated in full, on their gathered
        rows.  einsum rounds each row alone, so the least of their gaps is the
        least over all directions, bit for bit.
        """
        ring, run, gaps, tau = self._screen(pts)
        keep = np.flatnonzero(gaps <= np.min(gaps) + 2.0 * tau)
        # the run of each direction kept, whose cone vertex is row j + 1 of ring
        j = np.searchsorted(np.cumsum(run), keep, side="right")
        ring = np.take(pts, ring, axis=0)
        rows = self._order[keep]
        dirs = np.take(self._grid, rows, axis=0)
        best = np.full(len(keep), -np.inf)
        for shift in range(3):
            np.maximum(best, _dots(ring[j + shift].T, dirs.T), out=best)
        return float(np.min(self._grid_support[rows] - best))


def _bounding_balls(points: np.ndarray, blocks: np.ndarray):
    """Centre coordinates and radius of a ball holding each block of points.

    blocks is (b, m), the point indices of each block.  The work runs on one
    coordinate column at a time, and the squared offsets are summed over the
    columns in coordinate order.
    """
    centre, r2 = [], 0.0
    for x in points.T:
        x = x[blocks]
        c = 0.5 * (x.min(axis=1) + x.max(axis=1))
        r2 = r2 + (x - c[:, None]) ** 2
        centre.append(c)
    return centre, np.sqrt(r2.max(axis=1))


def _chord_blocks(n: int):
    """First and last index of each block of _CHORD_BLOCK points, and the
    blocks' row and column indices; a column block also holds the point after
    it.  Padding repeats the last row, and repeats column 0 after the wrap,
    where it crosses nothing."""
    first = np.arange(0, n, _CHORD_BLOCK)
    last = np.minimum(first + _CHORD_BLOCK, n) - 1
    offs = np.arange(_CHORD_BLOCK + 1)
    rows = np.minimum(first[:, None] + offs[:-1], n - 1)
    cols = np.minimum(first[:, None] + offs, n) % n
    return first, last, rows, cols


class _ChordIndex(NamedTuple):
    """What the chord search of one closed polyline needs that no eps changes.

    The float32 operands are laid out per block, so a chunk of block pairs
    gathers them along the first axis: the points of each row block, twice the
    points of each column block (which also holds the point after it), and
    the stacks [|x|^2, 1] and [1, |x|^2] whose product is |x_i|^2 + |x_j|^2.
    A column block's operands are stored as their contiguous transposes,
    (d, m + 1) and (2, m + 1), so that both batched products read contiguous
    matrices.  Doubling is a power-of-two scaling, exact unless a float32
    product is subnormal, so the product against twice the points is twice
    the dot product, bit for bit.  The companions read the points as (d, n)
    coordinate columns.  No search writes to the index.
    """

    first: np.ndarray       # first point of each block
    cols: np.ndarray        # (b, m + 1) point indices of each column block
    bi: np.ndarray          # block pairs that can hold a chord at most n // 2
    bj: np.ndarray          # steps ahead, row by row
    near2: np.ndarray       # least and greatest squared distance between the
    far2: np.ndarray        # pairs' bounding balls
    scale: float            # max |x|^2, which bounds the float32 rounding
    rows32: np.ndarray      # (b, m, d) points of each row block
    twice_cols: np.ndarray  # (b, d, m + 1) twice the points of each column block
    sq_rows: np.ndarray     # (b, m, 2) [|x|^2, 1] of each row block
    sq_cols: np.ndarray     # (b, 2, m + 1) [1, |x|^2] of each column block
    columns: np.ndarray     # (d, n) coordinate columns of the points


def _chord_index(points: np.ndarray) -> _ChordIndex:
    """The eps-independent part of _chord_crossings for a closed polyline."""
    n = len(points)
    first, last, rows, cols = _chord_blocks(n)
    centre_r, radius_r = _bounding_balls(points, rows)
    centre_c, radius_c = _bounding_balls(points, cols)
    dist = np.sqrt(sum((r[:, None] - c[None, :]) ** 2 for r, c in zip(centre_r, centre_c)))
    reach = radius_r[:, None] + radius_c[None, :]
    # some j - i in [first_j - last_i, last_j - first_i] is 0, ..., n // 2 modulo n
    lag = (first[None, :] - last[:, None]) % n
    span = (last - first)[None, :] + (last - first)[:, None]
    bi, bj = np.nonzero((lag <= n // 2) | (n - lag <= span))
    pts32 = points.astype(np.float32)
    sq32 = np.einsum("ij,ij->i", pts32, pts32)
    return _ChordIndex(
        first=first, cols=cols, bi=bi, bj=bj,
        near2=np.maximum(dist - reach, 0.0)[bi, bj] ** 2,
        far2=(dist + reach)[bi, bj] ** 2,
        scale=float(np.max(np.einsum("ij,ij->i", points, points))),
        rows32=pts32[rows],
        twice_cols=np.stack([(2.0 * x)[cols] for x in pts32.T], axis=1),
        sq_rows=np.stack([sq32, np.ones_like(sq32)], axis=1)[rows],
        sq_cols=np.stack([np.ones(cols.shape, np.float32), sq32[cols]], axis=1),
        columns=np.ascontiguousarray(points.T),
    )


def _chord_crossings(points: np.ndarray, eps: float, index: _ChordIndex):
    """Anchor and segment indices where the chordal distance crosses eps.

    (i, j) is a crossing when exactly one of the points j and j + 1 lies within
    eps of point i, judged in float32 as |x_i|^2 + |x_j|^2 - 2 (x_i, x_j), and j
    is at most n // 2 steps ahead of i, which keeps one copy of each chord.
    Blocks of _CHORD_BLOCK points get bounding balls (a column block also holds
    the point after it), and a pair of blocks is evaluated only when its
    distance range, widened by a bound on the float32 rounding, can straddle
    eps; the others cannot hold a crossing.  Sorted by anchor, then segment.
    index is _chord_index(points).  For each chunk of block pairs two batched
    products on contiguous operands give |x_i|^2 + |x_j|^2 and 2 (x_i, x_j),
    and one subtraction in place their difference.
    """
    n = len(points)
    size = _CHORD_BLOCK
    e2 = eps * eps
    # the float32 squared distances and eps2 are off by far less than this
    slack = 64.0 * _U32 * (index.scale + e2)
    straddles = (index.near2 <= e2 + slack) & (index.far2 >= e2 - slack)
    bi, bj = index.bi[straddles], index.bj[straddles]
    eps2 = np.float32(e2)
    anchors, segs = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for k0 in range(0, len(bi), _CHORD_PAIRS):
        I, J = bi[k0:k0 + _CHORD_PAIRS], bj[k0:k0 + _CHORD_PAIRS]
        # same float32 operations, in the same order, as the full n x n product;
        # a two-term product against ones rounds once, as the add does, and the
        # product against twice the points is twice the dot product
        d2 = np.matmul(index.sq_rows[I], index.sq_cols[J])
        d2 -= np.matmul(index.rows32[I], index.twice_cols[J])
        below = np.less_equal(d2, eps2).ravel()
        # flat indices in C order, so (k, r, c) come out as np.nonzero gives them;
        # the last column against the next row's first is no segment
        kr, c = np.divmod(np.flatnonzero(below[:-1] != below[1:]), size + 1)
        inner = c < size
        k, r = np.divmod(kr[inner], size)
        anchors.append(index.first[I[k]] + r)
        segs.append(index.cols[J[k], c[inner]])
    anchors, segs = np.concatenate(anchors), np.concatenate(segs)
    keep = (anchors < n) & ((segs - anchors) % n <= n // 2)
    anchors, segs = anchors[keep], segs[keep]
    # the block pairs come row by row and each pair's crossings in C order, so
    # the segments of one anchor are already ascending: a stable sort by anchor
    # is the sort by (anchor, segment)
    order = np.argsort(anchors, kind="stable")
    return anchors[order], segs[order]


def _companions(columns: np.ndarray, anchors: np.ndarray, segs: np.ndarray, eps: float):
    """The point at distance eps from each anchor on its crossed boundary segment.

    columns is the (d, n) coordinate columns of the polyline, and so is the
    (d, m) result.  With w from the segment start to the anchor and d along
    the segment, the point is at the root t in [0, 1] of |w - t d|^2 = eps^2:
    the exit root when the segment starts within eps of the anchor, the entry
    root otherwise.  NaN where the segment has no such root in float64.
    """
    p0 = np.take(columns, segs, axis=1)
    d = np.take(columns, (segs + 1) % columns.shape[1], axis=1) - p0
    w = np.take(columns, anchors, axis=1) - p0
    qa = _dots(d, d)
    qb = _dots(w, d)
    qc = _dots(w, w) - eps * eps
    with np.errstate(invalid="ignore", divide="ignore"):
        root = np.sqrt(qb * qb - qa * qc)
        t = np.where(qc <= 0.0, qb + root, qb - root) / qa
    t = np.where((t >= 0.0) & (t <= 1.0), t, np.nan)
    return p0 + t * d


def _chords_of_length(points: np.ndarray, eps: float, index: _ChordIndex):
    """Anchor points and companion points at chord length eps on a closed polyline.

    Each crossing of the chordal distance gets its companion in closed form on
    the crossed boundary segment; a crossing whose segment has no float64 root
    is dropped.  index is the polyline's _chord_index.  Both are (m, d),
    transposed views of (d, m) coordinate columns.
    """
    anchors, segs = _chord_crossings(points, eps, index)
    companions = _companions(index.columns, anchors, segs, eps)
    ok = ~np.isnan(companions[0])
    if not np.any(ok):
        return None
    return (np.take(index.columns, anchors[ok], axis=1).T,
            np.compress(ok, companions, axis=1).T)


def _planar_estimate(section: BoundaryParam, eps: float) -> float:
    # least depth of the section's chord midpoints at length eps; inf for no chord
    found = _chords_of_length(section.points, eps, section._index)
    if found is None:
        return math.inf
    a_pts, companions = found
    return section.inscribed_radii(0.5 * (a_pts + companions))


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
    """Sectioned modulus at each eps of a sequence: the least section depth.

    A section's depth is min over grid directions p of s(p) - h_S(p), with h_S
    the support function of its chord midpoints; the least over the sections
    is the depth of all midpoints together, bit for bit, as rounded
    subtraction is monotone.  Each section screens the directions in its plane
    with the slacks s(p) - (p, origin), computed once here, and evaluates only
    the few that pass in full (BoundaryParam._section_depth).  The sections
    are built and searched one at a time.
    """
    grid = default_grid(body.dim)
    support = body.support_values(grid)
    origin = steiner_point(body)
    numer = support - grid @ origin
    scaled = _scaled_directions(grid, numer)
    out = np.full(len(eps), np.inf)
    for u, v in _section_planes(body, grid, origin, sections, seed):
        section = BoundaryParam._of_plane(origin, np.stack([u, v]), resolution,
                                          grid, support, numer, scaled)
        np.minimum(out, [_planar_estimate(section, float(e)) for e in eps], out=out)
        # free this section's angle-order data before the next one is built
        del section
    return out


def modulus_curve(body: ConvexBody, eps_values, resolution: int = 2048) -> ModulusCurve:
    """Scan the modulus over an increasing eps grid, reusing one boundary model.

    The model is one section in 2-D, the body itself, and a set of central
    sections in d >= 3, half through the flattest support directions; each
    eps then costs one chord search and one depth step per section.  The
    error bound is the grid's, shared by every sample.
    """
    resolution = _checked_resolution(resolution)
    eps_values = np.asarray(eps_values, dtype=float)
    # ModulusCurve checks the same, but only once every eps has been searched
    if eps_values.ndim != 1 or not (np.all(np.isfinite(eps_values))
                                    and np.all(np.diff(eps_values) > 0.0)):
        raise ValueError("eps values must be positive, finite and strictly increasing")
    param = BoundaryParam(body, resolution) if body.dim == 2 else None
    diam = param.diameter if param is not None else body.diameter()
    for eps in eps_values:
        if not 0.0 < eps < diam:
            raise OutOfDomainError(f"eps must lie in (0, diam) = (0, {diam})")
        if eps > 0.95 * diam:
            warnings.warn("modulus estimate near the diameter is noisy", stacklevel=2)
    if param is not None:
        delta = np.array([_planar_estimate(param, float(eps)) for eps in eps_values])
        bound = grid_angle_error(diam, param.n)
    else:
        delta = _sectioned_estimate(body, eps_values, resolution, _SECTIONS, _SECTION_SEED)
        # the sphere grid's facet sagitta dominates the sectioned estimate
        bound = 0.75 * diam * sphere_grid_angle(DEFAULT_GRID_ND, body.dim) ** 2
    missing = np.flatnonzero(np.isinf(delta))
    if missing.size:
        raise OutOfDomainError(f"no section chord of length {eps_values[missing[0]]}")
    return ModulusCurve.from_arrays(eps_values, delta, np.full(len(eps_values), bound))


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
