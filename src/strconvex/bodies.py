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


def _row_norms(X: np.ndarray) -> np.ndarray:
    """np.linalg.norm(X, axis=1), bit for bit, for a 2-D float array.

    numpy adds fewer than 8 terms of a row in order and sums 8 or more
    pairwise; below 8 columns the squares are added in that order one column
    at a time, which skips numpy's slow reduction along short rows.  That
    order is numpy's own, checked on numpy 2.4.6 by test_row_norms_match_numpy.
    """
    if X.shape[1] >= 8:
        return np.linalg.norm(X, axis=1)
    total = X[:, 0] * X[:, 0]
    for j in range(1, X.shape[1]):
        total += X[:, j] * X[:, j]
    return np.sqrt(total)


def _row_max(X: np.ndarray) -> np.ndarray:
    """np.max(X, axis=1), for a 2-D float array.

    numpy pays a fixed cost per row when it reduces along short rows, so
    below 32 columns the maximum is taken one column at a time; from 32
    columns on numpy's reduction is the faster (measured crossover, see
    BENCH_support_kernels.json).
    """
    if X.shape[1] >= 32:
        return np.max(X, axis=1)
    best = X[:, 0].copy()
    for j in range(1, X.shape[1]):
        np.maximum(best, X[:, j], out=best)
    return best


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
    """(n, dim) deterministic low-discrepancy unit directions, n >= 1, dim >= 2.

    A Fibonacci lattice in 3-D (Gonzalez, Math. Geosci. 42, 2010), else a
    Kronecker (R_d) sequence in 2 ceil(dim/2) coordinates taken to normals by
    Box-Muller and normalized.  Every seed, 0 included, turns the lattice by
    the Q of a QR of default_rng(seed) Gaussians, so that its poles do not sit
    on the coordinate axes of axis-aligned bodies.
    The grid is built once per (n, dim, seed) and returned read-only.
    """
    if not (n >= 1 and dim >= 2 and float(n).is_integer() and float(dim).is_integer()):
        raise ValueError(f"sphere_grid needs whole numbers n >= 1 and dim >= 2, got {n!r}, {dim!r}")
    return _sphere_grid(int(n), int(dim), seed)


@functools.lru_cache(maxsize=16)
def _sphere_grid(n: int, dim: int, seed: int) -> np.ndarray:
    if dim == 3:
        # one point per equal-area band in z, at golden-angle longitudes
        z = 1.0 - (2.0 * np.arange(n) + 1.0) / n
        lon, rho = (np.pi * (3.0 - math.sqrt(5.0))) * np.arange(n), np.sqrt(1.0 - z * z)
        g = np.stack([rho * np.cos(lon), rho * np.sin(lon), z], axis=1)
    else:
        k = 2 * -(-dim // 2)
        # the R_d steps are powers of 1/phi, phi the positive root of x^(k+1) = x + 1
        phi = 2.0
        for _ in range(64):
            phi = (1.0 + phi) ** (1.0 / (k + 1))
        u = (0.5 + np.outer(np.arange(1.0, n + 1), phi ** -np.arange(1.0, k + 1))) % 1.0
        # Box-Muller, one normal pair per coordinate pair; 1 - u lies in (0, 1]
        radius, angle = np.sqrt(-2.0 * np.log1p(-u[:, 0::2])), 2.0 * np.pi * u[:, 1::2]
        g = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=2).reshape(n, k)
        g = g[:, :dim] / np.linalg.norm(g[:, :dim], axis=1)[:, None]
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    return _frozen(g @ (q * np.sign(np.diag(r))).T)


def sphere_grid_angle(n: int, dim: int) -> float:
    """Typical angular spacing of an n-point grid on the (dim-1)-sphere."""
    if dim == 2:
        return 2.0 * np.pi / n
    area = 2.0 * np.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    return float((area / n) ** (1.0 / (dim - 1)))


def default_grid(dim: int, n: int | None = None) -> np.ndarray:
    """Direction grid for the given dimension (uniform angles in 2-D, sphere_grid else)."""
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
        P = np.asarray(P, dtype=float)
        return P @ self.center + self.radius * _row_norms(P)

    def support_points(self, P):
        P = np.asarray(P, dtype=float)
        norms = _row_norms(P)
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
    """Rotated axis-aligned ellipsoid; semi-axes sorted in decreasing order.

    Without a rotation the rotation is the identity, and the support oracles
    skip their products with it.
    """

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
        self._rotated = rotation is not None
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
        return (P @ self.rotation if self._rotated else P) * self.semi_axes

    def support_values(self, P):
        P = np.asarray(P, dtype=float)
        return P @ self.center + _row_norms(self._body_frame(P))

    def support_points(self, P):
        q = self._body_frame(np.asarray(P, dtype=float))
        norms = _row_norms(q)
        if np.any(norms == 0.0):
            raise ValueError("support point undefined for the zero direction")
        x = (q / norms[:, None]) * self.semi_axes
        return self.center + (x @ self.rotation.T if self._rotated else x)

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
        return _row_max(P @ self.points.T)

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
        return (self.points.shape, self.points.tobytes())


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


def steiner_point(body: ConvexBody) -> np.ndarray:
    """Average of support points over 64 grid directions (512 in d >= 3);
    interior for full-dimensional bodies."""
    grid = default_grid(body.dim, 64 if body.dim == 2 else 512)
    return body.support_points(grid).mean(axis=0)
