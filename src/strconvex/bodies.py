"""Convex-body oracles: supporting functions, support points, membership.

A body is represented by its supporting function s(p) = sup over the body of
the inner product (p, x), together with one maximizer ("support point") per
direction.  Closed forms are provided for balls, ellipsoids, finite point
hulls and Minkowski sums; everything else in the library consumes bodies only
through this oracle interface.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import EmptyBodyError, EmptyInputError, OutsideBodyError

DEFAULT_GRID_2D = 4096
DEFAULT_GRID_ND = 20000
UNIT_TOL = 1e-12
ORTHO_TOL = 1e-10


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-D float array of length >= 2."""
    v = np.array(x, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError(f"expected a vector of dimension >= 2, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark an array read-only; body values are immutable after construction."""
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def unit(v) -> np.ndarray:
    """Normalize a nonzero vector to unit length."""
    v = as_vector(v)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def as_direction(p) -> np.ndarray:
    """Validate a unit direction (norm 1 within 1e-12)."""
    p = as_vector(p)
    if abs(float(np.linalg.norm(p)) - 1.0) > UNIT_TOL:
        raise ValueError("direction must have unit norm (within 1e-12)")
    return p


def angle_grid(n: int = DEFAULT_GRID_2D) -> np.ndarray:
    """(n, 2) unit directions at uniformly spaced angles, starting at angle 0."""
    t = np.arange(n) * (2.0 * np.pi / n)
    return np.stack([np.cos(t), np.sin(t)], axis=1)


def sphere_grid(n: int = DEFAULT_GRID_ND, dim: int = 3, seed: int = 0) -> np.ndarray:
    """(n, dim) deterministic low-discrepancy unit directions for 3 <= dim <= 32.

    Scrambled Sobol points are pushed through the inverse normal CDF and
    normalized, which distributes them uniformly on the sphere.  The grid is
    built once per (n, dim, seed) and returned read-only.
    """
    return _sphere_grid(n, dim, seed)


@functools.lru_cache(maxsize=16)
def _sphere_grid(n: int, dim: int, seed: int) -> np.ndarray:
    u = _sobol_points(max(1, math.ceil(math.log2(n))), dim, seed)[:n]
    g = _ndtri(np.clip(u * 2.0**-_SOBOL_BITS, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    return _frozen(g / norms[:, None])


# Joe-Kuo direction numbers of the first 32 Sobol dimensions (the rows scipy
# ships): the primitive polynomial as an integer and its initial direction
# numbers, one per degree.  Dimension 0 is the van der Corput sequence.
_SOBOL_ROWS = (
    (1, ()), (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)), (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)), (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)), (61, (1, 3, 5, 5, 31)), (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)), (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)), (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)), (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)), (143, (1, 1, 3, 13, 7, 35, 63)),
    (145, (1, 3, 5, 9, 1, 25, 53)), (157, (1, 3, 1, 13, 9, 35, 107)),
    (167, (1, 3, 1, 5, 27, 61, 31)), (171, (1, 1, 5, 11, 19, 41, 61)),
    (185, (1, 3, 5, 3, 3, 13, 69)), (191, (1, 1, 7, 13, 1, 19, 1)),
    (193, (1, 3, 7, 5, 13, 19, 59)), (203, (1, 1, 3, 9, 25, 29, 41)),
    (211, (1, 3, 5, 13, 23, 1, 55)), (213, (1, 3, 7, 3, 13, 59, 17)),
)
_SOBOL_BITS = 30


def _sobol_points(m: int, dim: int, seed: int) -> np.ndarray:
    """(2**m, dim) scrambled Sobol points as 30-bit integers.

    LMS scrambling plus a digital shift, drawn from default_rng(seed) in the
    order scipy.stats.qmc.Sobol(dim, scramble=True, seed=seed) draws them, so
    the points equal its random_base2(m).
    """
    if not 1 <= dim <= len(_SOBOL_ROWS):
        raise ValueError(f"sphere_grid supports 1 <= dim <= {len(_SOBOL_ROWS)}, got {dim}")
    bits = _SOBOL_BITS
    v = np.ones((dim, bits), dtype=np.uint32)
    for d in range(1, dim):
        poly, row = _SOBOL_ROWS[d]
        deg = len(row)
        row = list(row)
        for j in range(deg, bits):
            new = row[j - deg]
            for k in range(deg):
                if (poly >> (deg - 1 - k)) & 1:
                    new ^= row[j - k - 1] << (k + 1)
            row.append(new)
        v[d] = row
    # v[d, j] becomes the direction number m_j / 2**(j + 1) as a 30-bit fraction
    v <<= np.arange(bits - 1, -1, -1, dtype=np.uint32)
    pow2 = np.uint32(1) << np.arange(bits, dtype=np.uint32)
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(dim, bits), dtype=np.uint32) @ pow2
    ltm = np.tril(rng.integers(2, size=(dim, bits, bits), dtype=np.uint32))
    ltm[:, np.arange(bits), np.arange(bits)] = 1
    # Bit (bits - 1 - p) of the scrambled v[d, j] is the parity of lsm[d, p] & v[d, j].
    lsm = ltm @ pow2[::-1]
    x = lsm[:, None, :] & v[:, :, None]
    for s in (16, 8, 4, 2, 1):
        x ^= x >> np.uint32(s)
    v = (x & np.uint32(1)) @ pow2[::-1]
    # Gray-code order: point i is the shift xor the columns of v at the set
    # bits of i ^ (i >> 1).
    pts = shift[None, :]
    for k in range(m):
        pts = np.concatenate([pts, pts[::-1] ^ v[:, k]])
    return pts


# Cephes ndtri: the inverse of the standard normal CDF, a rational in y - 1/2
# on the centre band and rationals in 1/sqrt(-2 log y) on the tails.
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242


def _rational(x: np.ndarray, p: tuple, q: tuple) -> np.ndarray:
    """x p(x) / q(x) by Horner's rule, q monic with its leading 1 left out."""
    num = np.full_like(x, p[0])
    for c in p[1:]:
        num = num * x + c
    den = x + q[0]
    for c in q[1:]:
        den = den * x + c
    return x * num / den


def _ndtri(y: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of an array of values in (0, 1)."""
    upper = y > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y, y)
    out = np.empty_like(y)
    centre = y > _EXP_M2
    c = y[centre] - 0.5
    c2 = c * c
    out[centre] = (c + c * _rational(c2, _NDTRI_P0, _NDTRI_Q0)) * _SQRT_2PI
    tail = ~centre
    x = np.sqrt(-2.0 * np.log(y[tail]))
    z = 1.0 / x
    x1 = np.where(x < 8.0, _rational(z, _NDTRI_P1, _NDTRI_Q1), _rational(z, _NDTRI_P2, _NDTRI_Q2))
    t = (x - np.log(x) / x) - x1
    out[tail] = np.where(upper[tail], t, -t)
    return out


def sphere_grid_angle(n: int, dim: int) -> float:
    """Typical angular spacing of an n-point grid on the (dim-1)-sphere."""
    if dim == 2:
        return 2.0 * np.pi / n
    area = 2.0 * np.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    return float((area / n) ** (1.0 / (dim - 1)))


def default_grid(dim: int, n: int | None = None) -> np.ndarray:
    """Direction grid for the given dimension (uniform angles in 2-D, Sobol else)."""
    if dim == 2:
        return angle_grid(n or DEFAULT_GRID_2D)
    return sphere_grid(n or DEFAULT_GRID_ND, dim)


def grid_angle_error(diameter: float, n: int) -> float:
    """Second-order support error bound for an n-point angular grid."""
    return 0.5 * diameter * (np.pi / n) ** 2


class ConvexBody:
    """Oracle interface: support values / support points for a compact convex set."""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def support_value(self, p) -> float:
        """s(p) for a single (possibly unnormalized, nonzero) direction p."""
        p = np.atleast_2d(np.asarray(p, dtype=float))
        return float(self.support_values(p)[0])

    def support_values(self, P: np.ndarray) -> np.ndarray:
        """s(p) for every row p of P, shape (n,)."""
        raise NotImplementedError

    def support_point(self, p) -> np.ndarray:
        """One maximizer of (p, .) over the body."""
        p = np.atleast_2d(np.asarray(p, dtype=float))
        return self.support_points(p)[0]

    def support_points(self, P: np.ndarray) -> np.ndarray:
        """One support point per row of P, shape (n, dim)."""
        raise NotImplementedError

    def diameter(self, grid: np.ndarray | None = None) -> float:
        """sup of pairwise distances, here bounded via antipodal support sums."""
        if grid is None:
            grid = default_grid(self.dim)
        s = self.support_values(grid)
        s_neg = self.support_values(-grid)
        return float(np.max(s + s_neg))

    def contains(self, x, tol: float = 0.0, grid: np.ndarray | None = None) -> bool:
        """Membership via supporting half-spaces on a direction grid."""
        if not tol >= 0.0:
            raise ValueError("tol must be nonnegative")
        x = as_vector(x)
        if grid is None:
            grid = default_grid(self.dim)
        gaps = grid @ x - self.support_values(grid)
        return bool(np.max(gaps) <= tol)

    def _key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))


class Ball(ConvexBody):
    """Closed ball of positive radius."""

    def __init__(self, center, radius: float):
        self.center = _frozen(as_vector(center))
        self.radius = float(radius)
        if not self.radius > 0.0:
            raise ValueError("ball radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.size

    def support_values(self, P):
        return P @ self.center + self.radius * np.linalg.norm(P, axis=1)

    def support_points(self, P):
        norms = np.linalg.norm(P, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("support point undefined for the zero direction")
        return self.center + self.radius * P / norms[:, None]

    def diameter(self, grid=None) -> float:
        return 2.0 * self.radius

    def contains(self, x, tol: float = 0.0, grid=None) -> bool:
        if not tol >= 0.0:
            raise ValueError("tol must be nonnegative")
        x = as_vector(x)
        return float(np.linalg.norm(x - self.center)) <= self.radius + tol

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"

    def _key(self):
        return (self.center.tobytes(), self.radius)


class Ellipsoid(ConvexBody):
    """Rotated axis-aligned ellipsoid; semi-axes sorted in decreasing order."""

    def __init__(self, center, semi_axes, rotation=None):
        self.center = as_vector(center)
        self.semi_axes = np.asarray(semi_axes, dtype=float)
        d = self.center.size
        if self.semi_axes.shape != (d,):
            raise ValueError("semi_axes must match the center dimension")
        if not np.all(self.semi_axes > 0.0):
            raise ValueError("semi-axes must be positive")
        if np.any(np.diff(self.semi_axes) > 0.0):
            raise ValueError("semi-axes must be sorted in decreasing order")
        if rotation is None:
            rotation = np.eye(d)
        self.rotation = np.asarray(rotation, dtype=float)
        if self.rotation.shape != (d, d):
            raise ValueError("rotation must be a d x d matrix")
        if np.max(np.abs(self.rotation.T @ self.rotation - np.eye(d))) > ORTHO_TOL:
            raise ValueError("rotation must be orthogonal (within 1e-10)")
        self.center = _frozen(self.center)
        self.semi_axes = _frozen(self.semi_axes)
        self.rotation = _frozen(self.rotation)

    @property
    def dim(self) -> int:
        return self.center.size

    def _body_frame(self, P):
        # q = diag(axes) R^T p; then s = (p,c) + ||q||, point = c + R diag(axes) q/||q||
        return (P @ self.rotation) * self.semi_axes

    def support_values(self, P):
        q = self._body_frame(P)
        return P @ self.center + np.linalg.norm(q, axis=1)

    def support_points(self, P):
        q = self._body_frame(P)
        norms = np.linalg.norm(q, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("support point undefined for the zero direction")
        u = q / norms[:, None]
        return self.center + (u * self.semi_axes) @ self.rotation.T

    def diameter(self, grid=None) -> float:
        return 2.0 * float(self.semi_axes[0])

    def contains(self, x, tol: float = 0.0, grid=None) -> bool:
        # dist(x, E) <= tol.  Outside E, a point of gauge g lies between
        # (g - 1) a_min and (g - 1) a_max from E, so only gauges between
        # 1 + tol/a_max and 1 + tol/a_min need the distance itself.
        if not tol >= 0.0:
            raise ValueError("tol must be nonnegative")
        x = as_vector(x)
        z = self.rotation.T @ (x - self.center)
        g = float(np.linalg.norm(z / self.semi_axes))
        if g <= 1.0 + tol / float(self.semi_axes[0]):
            return True
        if g > 1.0 + tol / float(self.semi_axes[-1]):
            return False
        return _distance_to_ellipsoid(z, self.semi_axes) <= tol

    def __repr__(self):
        return f"Ellipsoid(center={self.center.tolist()}, semi_axes={self.semi_axes.tolist()})"

    def _key(self):
        return (self.center.tobytes(), self.semi_axes.tobytes(), self.rotation.tobytes())


def _distance_to_ellipsoid(z: np.ndarray, a: np.ndarray) -> float:
    """Distance from z, outside the ellipsoid sum (z_i/a_i)^2 <= 1, to it.

    The nearest point is a^2 z / (a^2 + t) at the root t > 0 of
    f(t) = sum (a_i z_i / (a_i^2 + t))^2 = 1.  f decreases in t, exceeds 1 at
    0 and falls below 1 at |a z|; bisection runs until the bracket stops
    shrinking.
    """
    az = a * z
    a2 = a * a
    lo, hi = 0.0, float(np.linalg.norm(az))
    mid = 0.5 * hi
    while lo < mid < hi:
        if float(np.sum((az / (a2 + mid)) ** 2)) > 1.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return float(np.linalg.norm(hi * z / (a2 + hi)))


class PointHull(ConvexBody):
    """Convex hull of a finite, nonempty point set (singletons allowed)."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] < 2:
            raise EmptyBodyError("point hull needs a nonempty (n, d>=2) point array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points have non-finite entries")
        self.points = _frozen(pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def support_values(self, P):
        return np.max(P @ self.points.T, axis=1)

    def support_points(self, P):
        # flat faces: of the points within 1e-12 (1 + |s|) of the best
        # product, take the lexicographically smallest
        prods = P @ self.points.T
        best = np.max(prods, axis=1)
        tied = prods >= (best - 1e-12 * (1.0 + np.abs(best)))[:, None]
        order = np.lexsort(self.points.T[::-1])
        return self.points[order[np.argmax(tied[:, order], axis=1)]]

    def diameter(self, grid=None) -> float:
        if len(self.points) == 1:
            return 0.0
        d2 = np.sum((self.points[:, None, :] - self.points[None, :, :]) ** 2, axis=-1)
        return float(np.sqrt(d2.max()))

    def __repr__(self):
        return f"PointHull({len(self.points)} points, dim={self.dim})"

    def _key(self):
        return (self.points.tobytes(),)


class MinkowskiSum(ConvexBody):
    """Minkowski sum of component bodies; supports add, support points add."""

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise EmptyInputError("Minkowski sum needs at least one part")
        dims = {p.dim for p in parts}
        if len(dims) != 1:
            raise ValueError("all parts must share one dimension")
        self.parts = parts

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    def support_values(self, P):
        total = np.zeros(len(P))
        for part in self.parts:
            total += part.support_values(P)
        return total

    def support_points(self, P):
        total = np.zeros((len(P), self.dim))
        for part in self.parts:
            total += part.support_points(P)
        return total

    def __repr__(self):
        return f"MinkowskiSum({list(self.parts)!r})"

    def _key(self):
        return tuple(p._key() for p in self.parts)


def boundary_distance(body: ConvexBody, x, grid: np.ndarray | None = None) -> float:
    """Radius of the largest grid-supported ball centered at x inside the body."""
    x = as_vector(x)
    if grid is None:
        grid = default_grid(x.size)
    slack = float(np.min(body.support_values(grid) - grid @ x))
    scale = 1.0 + float(np.linalg.norm(x))
    if slack < -1e-9 * scale and not body.contains(x, tol=1e-9 * scale, grid=grid):
        raise OutsideBodyError(f"point {x.tolist()} lies outside the body")
    return slack


def steiner_point(body: ConvexBody, grid: np.ndarray | None = None) -> np.ndarray:
    """Average of support points over the grid; interior for full-dimensional bodies."""
    if grid is None:
        grid = default_grid(body.dim, 64 if body.dim == 2 else 512)
    return body.support_points(grid).mean(axis=0)
