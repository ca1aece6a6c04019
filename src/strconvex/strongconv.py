"""Strong-convexity criterion, minimal radius and ball decompositions.

A bounded closed convex set is an intersection of radius-R balls exactly when
the gap function f(p) = R|p| - s(p) is convex.  The tester checks midpoint
convexity of f over sampled direction pairs at several angular separations; a
violating pair certifies non-convexity, absence of one is (dense) evidence.
On each pair the midpoint violation is affine in R, so the smallest radius the
test accepts is a maximum over the pairs, computed in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arcpoly import lens
from .bodies import ConvexBody, as_direction, default_grid, grid_angle_error, sphere_grid
from .errors import NotStronglyConvexError, NotUniformlyConvexError
from .modulus import BoundaryParam, _chords_of_length, estimate_modulus

_GAP_SCALES = [math.pi / 2**m for m in range(1, 11)]


@dataclass(frozen=True)
class GapFunction:
    """f(p) = R|p| - s(p, body); convex iff the body is R-strongly convex."""

    body: ConvexBody
    R: float

    def value(self, p) -> float:
        """f(p); f(0) = 0 by positive homogeneity."""
        p = np.asarray(p, dtype=float)
        n = float(np.linalg.norm(p))
        if n == 0.0:
            return 0.0
        return self.R * n - self.body.support_value(p)

    def values(self, P: np.ndarray) -> np.ndarray:
        P = np.asarray(P, dtype=float)
        out = self.R * np.linalg.norm(P, axis=1) - self.body.support_values(P)
        out[np.linalg.norm(P, axis=1) == 0.0] = 0.0
        return out


@dataclass(frozen=True)
class ConvexityVerdict:
    """Outcome of the sampled midpoint-convexity test of the gap function."""

    is_convex: bool
    witness: tuple[np.ndarray, np.ndarray, float] | None
    samples_tested: int
    tol: float
    R: float


def _direction_pairs(dim: int, n_pairs: int, seed: int):
    """Deterministic unit-direction pairs at dyadic angular separations."""
    scales = _GAP_SCALES
    n_base = max(8, -(-n_pairs // len(scales)))
    if dim == 2:
        base = np.arange(n_base) * (2.0 * np.pi / n_base)
        p1 = []
        p2 = []
        for gap in scales:
            p1.append(np.stack([np.cos(base), np.sin(base)], axis=1))
            p2.append(np.stack([np.cos(base + gap), np.sin(base + gap)], axis=1))
        return np.concatenate(p1), np.concatenate(p2)
    base = sphere_grid(n_base, dim, seed=seed)
    tang = sphere_grid(n_base, dim, seed=seed + 1)
    tang = tang - np.sum(tang * base, axis=1)[:, None] * base
    tang /= np.linalg.norm(tang, axis=1)[:, None]
    p1 = []
    p2 = []
    for gap in scales:
        p1.append(base)
        p2.append(math.cos(gap) * base + math.sin(gap) * tang)
    return np.concatenate(p1), np.concatenate(p2)


# a pair refutes R when its violation exceeds _REL_TOL * R
_REL_TOL = 1e-8


def _pair_table(body: ConvexBody, n_pairs: int, seed: int):
    """Unit pairs (P1, P2) with their violation coefficients and thresholds.

    With m = (p1 + p2) / 2, the midpoint violation of the gap function is
    b - R a, where a = 1 - |m| and b = (s(p1) + s(p2)) / 2 - s(m).  It exceeds
    _REL_TOL * R exactly when R < b / (a + _REL_TOL), the pair's threshold.
    """
    P1, P2 = _direction_pairs(body.dim, n_pairs, seed)
    M = 0.5 * (P1 + P2)
    s1, s2, sm = np.split(body.support_values(np.concatenate([P1, P2, M])), 3)
    a = 1.0 - np.linalg.norm(M, axis=1)
    b = 0.5 * (s1 + s2) - sm
    return P1, P2, a, b, b / (a + _REL_TOL)


def check_strong_convexity(
    body: ConvexBody,
    R: float,
    n_pairs: int = 4096,
    seed: int = 0,
) -> ConvexityVerdict:
    """Sampled midpoint-convexity test of f(p) = R|p| - s(p) on unit pairs.

    Midpoint convexity on unit pairs at fine scale propagates to convexity by
    doubling, so the pairs mix wide and fine separations.  A pair refutes R
    when its violation exceeds tol = 1e-8 R; the first such pair (fixed
    ordering) becomes the witness.
    """
    if not 0.0 < R < math.inf:
        raise ValueError("radius must be positive and finite")
    P1, P2, a, b, threshold = _pair_table(body, n_pairs, seed)
    tol = _REL_TOL * float(R)
    bad = np.flatnonzero(threshold > R)
    if len(bad):
        i = int(bad[0])
        witness = (P1[i].copy(), P2[i].copy(), float(b[i] - R * a[i]))
        return ConvexityVerdict(False, witness, len(P1), tol, float(R))
    return ConvexityVerdict(True, None, len(P1), tol, float(R))


def min_strong_radius(
    body: ConvexBody,
    n_pairs: int = 4096,
    seed: int = 0,
) -> tuple[float, tuple[float, float]]:
    """Smallest radius that check_strong_convexity accepts, in closed form.

    The body must first show a certifiable modulus at a small chord, else
    NotUniformlyConvexError.  R_min is the largest pair threshold, and the
    bracket (the float below R_min, R_min) has a refuted low end and an
    accepted high end.
    """
    diam = body.diameter()
    # the probe chord must sit above the estimator's noise floor
    probe_eps = diam / 50.0 if body.dim == 2 else diam / 8.0
    delta, bound = estimate_modulus(body, probe_eps, resolution=512)
    if delta <= bound:
        raise NotUniformlyConvexError(
            "no certifiable modulus at a small chord; body is not uniformly convex")
    r_min = float(np.max(_pair_table(body, n_pairs, seed)[4]))
    return r_min, (float(np.nextafter(r_min, 0.0)), r_min)


class ComplementBody(ConvexBody):
    """Support-defined summand B with s(p, B) = R|p| - s(p, base).

    Well-defined as a body only when the gap function is convex; support
    points are intentionally not exposed (the decomposition never needs them).
    """

    def __init__(self, base: ConvexBody, R: float):
        self.base = base
        self.R = float(R)

    @property
    def dim(self) -> int:
        return self.base.dim

    def support_values(self, P):
        P = np.asarray(P, dtype=float)
        return self.R * np.linalg.norm(P, axis=1) - self.base.support_values(P)

    def support_points(self, P):
        raise NotImplementedError("complement bodies expose support values only")

    def __repr__(self):
        return f"ComplementBody(R={self.R}, base={self.base!r})"

    def _key(self):
        return (self.R, self.base._key())


def complement_body(body: ConvexBody, R: float, n_pairs: int = 4096) -> ComplementBody:
    """Summand B with body + B = B_R(0), available once the criterion holds."""
    verdict = check_strong_convexity(body, R, n_pairs=n_pairs)
    if not verdict.is_convex:
        raise NotStronglyConvexError(
            f"gap function not convex at R = {R}; witness violation "
            f"{verdict.witness[2]:.3g}")
    return ComplementBody(body, R)


def supporting_ball_check(
    body: ConvexBody,
    R: float,
    p,
    tol: float = 1e-9,
    grid: np.ndarray | None = None,
) -> bool:
    """True iff the body lies in the radius-R ball touching it from inside at p.

    The ball is centered at x_p - R p, where x_p is the support point in
    direction p.
    """
    p = as_direction(p)
    if grid is None:
        grid = default_grid(body.dim)
    center = body.support_point(p) - R * p
    slack = body.support_values(grid) - grid @ center - R
    return bool(np.max(slack) <= tol)


def local_lens_check(
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
        found = _chords_of_length(param.points, length)
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
