"""Strong-convexity criterion, minimal radius and ball decompositions.

A bounded closed convex set is an intersection of radius-R balls exactly when
the gap function f(p) = R|p| - s(p) is convex.  The tester checks midpoint
convexity of f over sampled direction pairs at several angular separations; a
violating pair certifies non-convexity, absence of one is (dense) evidence.
On each pair the midpoint violation is affine in R, so the smallest radius the
test accepts is a maximum over the pairs, computed in closed form.  The last
table of pairs built is kept, so the calls that follow on the same body read
it instead of building it again.  In the plane the pairs' directions, their
midpoints and a = 1 - |m| do not depend on the body: that frame is built
once per pair count, read-only (0.24 MB at the default 4096 pairs, at most
16 kept, like the sphere grids), and a planar table is shared across seeds.
"""
from __future__ import annotations

import contextlib
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bodies import (
    ConvexBody, _row_norms, as_direction, default_grid, grid_angle_error, sphere_grid,
)
from .errors import NotStronglyConvexError, NotUniformlyConvexError, OutOfDomainError
from .modulus import BoundaryParam, _chords_of_length

_GAP_SCALES = [math.pi / 2**m for m in range(1, 11)]
# lens_radius's boundary model, chords sampled over the lengths eps0 times
# _LENS_FRACTIONS, and tolerance in grid support errors
_LENS_RESOLUTION = 2048
_LENS_CHORDS = 256
_LENS_FRACTIONS = (1.0, 0.75, 0.5, 0.25)
_LENS_TOL = 5.0


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
        norms = _row_norms(P)
        out = self.R * norms - self.body.support_values(P)
        out[norms == 0.0] = 0.0
        return out


@dataclass(frozen=True)
class ConvexityVerdict:
    """Outcome of the sampled midpoint-convexity test of the gap function."""

    is_convex: bool
    witness: tuple[np.ndarray, np.ndarray, float] | None
    samples_tested: int
    tol: float
    R: float


def _tangent_bases(P: np.ndarray) -> np.ndarray:
    """(n, d - 1, d) orthonormal bases of the tangent spaces of the unit rows of P.

    Row i holds columns 1..d-1 of the Householder reflection that maps e_0 to
    -sign(p_0) p, which are orthogonal to p and to each other.
    """
    v = P.copy()
    v[:, 0] += np.where(P[:, 0] < 0.0, -1.0, 1.0)
    scale = 2.0 / np.einsum("ij,ij->i", v, v)
    return np.eye(P.shape[1])[1:] - (scale[:, None] * P[:, 1:])[:, :, None] * v[:, None, :]


def _principal_tangents(body: ConvexBody, base: np.ndarray) -> np.ndarray:
    """Unit tangent at each base along the top eigenvector of the support Hessian.

    The Hessian is taken on a tangent basis by central differences of step
    _HESSIAN_STEP; its top eigenvalue is the largest curvature radius at the
    base, and the direction that carries it is where the gap function is
    least convex (Polovinkin, Sb. Math. 187, 1996).
    """
    n, d = base.shape
    E = _tangent_bases(base)
    m = d - 1
    iu, ju = np.triu_indices(m, 1)
    plus, minus = E[:, iu] + E[:, ju], E[:, iu] - E[:, ju]
    offsets = np.concatenate([E, -E, plus, minus, -minus, -plus], axis=1)
    h = _HESSIAN_STEP
    pts = np.concatenate([base[:, None, :], base[:, None, :] + h * offsets], axis=1)
    vals = body.support_values(pts.reshape(-1, d)).reshape(n, -1)
    s0, vals = vals[:, 0], vals[:, 1:]
    hess = np.zeros((n, m, m))
    diag = np.arange(m)
    hess[:, diag, diag] = (vals[:, :m] + vals[:, m:2 * m] - 2.0 * s0[:, None]) / h**2
    pp, pm, mp, mm = np.split(vals[:, 2 * m:], 4, axis=1)
    hess[:, iu, ju] = hess[:, ju, iu] = (pp - pm - mp + mm) / (4.0 * h**2)
    top = np.linalg.eigh(hess)[1][:, :, -1]
    return np.einsum("nmd,nm->nd", E, top)


def _direction_pairs(body: ConvexBody, n_pairs: int, seed: int):
    """The pair frame: unit bases, the pairs' first points P1 and partners P2,
    scale by scale, the directions [base; P2; M] whose support values the
    table reads, M = (P1 + P2) / 2, and a = 1 - |M|.

    In the plane the bases are uniform angles, and the frame is built once
    per base count and returned read-only.  In space they are a sphere grid,
    and each base's partners lie along the top eigenvector of the support
    Hessian at the base.
    """
    n_base = max(8, -(-n_pairs // len(_GAP_SCALES)))
    if body.dim == 2:
        return _planar_frame(n_base)
    base = sphere_grid(n_base, body.dim, seed=seed)
    # the stencil holds 1 + 2 (d - 1)^2 points of d floats per base
    chunk = max(1, _STENCIL_FLOATS // ((1 + 2 * (body.dim - 1) ** 2) * body.dim))
    tang = np.concatenate([_principal_tangents(body, base[k:k + chunk])
                           for k in range(0, n_base, chunk)])
    gaps = np.array(_GAP_SCALES)[:, None, None]
    partner = np.cos(gaps) * base + np.sin(gaps) * tang
    return _pair_frame(base, partner.reshape(-1, body.dim))


@functools.lru_cache(maxsize=16)
def _planar_frame(n_base: int):
    theta = np.arange(n_base) * (2.0 * np.pi / n_base)
    partner = (theta + np.array(_GAP_SCALES)[:, None]).ravel()
    base, P2 = np.empty((n_base, 2)), np.empty((len(partner), 2))
    for angles, out in ((theta, base), (partner, P2)):
        np.cos(angles, out=out[:, 0])
        np.sin(angles, out=out[:, 1])
    frame = _pair_frame(base, P2)
    for arr in frame:
        arr.setflags(write=False)
    return frame


def _pair_frame(base: np.ndarray, P2: np.ndarray):
    # base and P2 are views of the stacked directions, so the frame holds them once
    P1 = np.tile(base, (len(_GAP_SCALES), 1))
    M = 0.5 * (P1 + P2)
    dirs = np.concatenate([base, P2, M])
    return dirs[:len(base)], P1, dirs[len(base):len(base) + len(P2)], dirs, 1.0 - _row_norms(M)


# a pair refutes R when its violation exceeds _REL_TOL * R
_REL_TOL = 1e-8
# step of the finite-difference support Hessian
_HESSIAN_STEP = 1e-3
# floats of stencil points evaluated at once, which bounds the memory in high d
_STENCIL_FLOATS = 2**20
# the gate reads the growth from pi/128 to pi/256, the finest scales at which
# the _REL_TOL floor lowers thresholds by less than 0.1 %
_GATE_SCALES = (6, 7)
_SMOOTH_GROWTH = 0.1
_FLAT_GROWTH = 0.85
# On a point x, s(p) = (p, x), and a pair's b is rounding: a base pair's
# midpoint is off by u |x|, a cascade pair's points (c0, c1) @ (p, t), with
# rounded midpoint coefficients, by 5 sqrt(2) u |x|, the three products,
# weighted 1/2, 1/2 and 1, by d u |x| each, and the sum and difference by
# 2 u |x|.  So |b| <= (2d + 10) u |x|, and |x| <= 2 max |s| once an evaluated
# direction lies within 60 degrees of +-x: |b| <= 2 (d + 5) eps max |s|, with
# u = eps / 2.  A body whose largest threshold at the finest gate scale, times
# that scale's a, is no larger has no curvature the table tells from rounding.
_POINT_B_SCALE = 2.0 * np.finfo(float).eps
_GATE_A = 1.0 - math.cos(_GAP_SCALES[_GATE_SCALES[-1]] / 2.0)
# base offsets of the cascade pairs along an anchor's great circle, in gaps
_FINE_OFFSETS = np.arange(-4, 5) / 32.0
_COARSE_OFFSETS = np.arange(-16, 17) / 4.0


def _cascade_steps() -> list[np.ndarray]:
    """Coefficients, in the frame (p, t) of an anchor pair's great circle, of
    the cascade pairs that step s adds: the rows of the first points, of
    their partners and of the midpoints.

    Step s refines scale s with 9 pairs whose bases step by g_s / 32 around
    the anchor, and opens scale s + 1 with 33 pairs whose bases step by
    g_{s+1} / 4 over four gaps either side of it.
    """
    steps = []
    for s, gap in enumerate(_GAP_SCALES):
        theta, gaps = _FINE_OFFSETS * gap, np.full(len(_FINE_OFFSETS), gap)
        if s + 1 < len(_GAP_SCALES):
            nxt = _GAP_SCALES[s + 1]
            theta = np.concatenate([theta, _COARSE_OFFSETS * nxt])
            gaps = np.concatenate([gaps, np.full(len(_COARSE_OFFSETS), nxt)])
        first = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        partner = np.stack([np.cos(theta + gaps), np.sin(theta + gaps)], axis=1)
        steps.append(np.concatenate([first, partner, 0.5 * (first + partner)]))
    return steps


_CASCADE = _cascade_steps()


# the last pair table built, as (key, table); see _pair_table
_last_table = None


def _table_key(body, n_pairs: int, seed: int):
    """The body's value, with n_pairs and, in d >= 3, seed, or None for a body
    whose table is rebuilt on every call.  A planar table does not depend on
    the seed.

    The key is taken when the table is built, so a body changed in place later
    misses.  It holds what ConvexBody.__eq__ compares, the type and _key().
    Objects that are not a ConvexBody (they compare by identity and may be
    mutable) and bodies whose value does not hash (no _key, or one holding a
    mutable part) get None.
    """
    if not isinstance(body, ConvexBody):
        return None
    try:
        key = (type(body), body._key(), n_pairs, seed if body.dim >= 3 else None)
        hash(key)
    except (NotImplementedError, TypeError):
        return None
    return key


def _pair_table(body: ConvexBody, n_pairs: int, seed: int):
    """The pair table of _build_pair_table, read-only, built once per body.

    The last table built is kept, so that a minimal radius and the checks
    that follow it on the same body, or an equal one, share it.  It is
    dropped before another is built, so at most one table outlives a call.
    """
    if (isinstance(n_pairs, bool) or not isinstance(n_pairs, numbers.Real)
            or not (n_pairs >= 1 and float(n_pairs).is_integer())):
        raise ValueError(f"n_pairs must be a positive whole number, got {n_pairs!r}")
    global _last_table
    n_pairs = int(n_pairs)
    key = _table_key(body, n_pairs, seed)
    # the entry is read and replaced whole, so another thread sees a
    # matching (key, table) pair or none
    last = _last_table
    if key is not None and last is not None and last[0] == key:
        return last[1]
    # drop the kept table, this frame's reference too, before building another
    _last_table = last = None
    table = _build_pair_table(body, n_pairs, seed)
    for arr in table:
        arr.setflags(write=False)
    if key is not None:
        _last_table = (key, table)
    return table


def _build_pair_table(body: ConvexBody, n_pairs: int, seed: int):
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
    base, P1, P2, dirs, a = _direction_pairs(body, n_pairs, seed)
    n_scales, n_base, m = len(_GAP_SCALES), len(base), len(P2)
    s = body.support_values(dirs)
    b = 0.5 * (np.tile(s[:n_base], n_scales) + s[n_base:n_base + m]) - s[n_base + m:]
    per_scale = (b / (a + _REL_TOL)).reshape(n_scales, n_base)
    best = np.argmax(per_scale, axis=1) + n_base * np.arange(n_scales)
    top = per_scale.ravel()[best]
    anchors = [(P1[i], P2[i]) for i in best]
    rows = [(P1, P2, a, b)]
    n_fine = len(_FINE_OFFSETS)
    circle = np.empty((2, body.dim))  # an anchor's great circle, (p, t) as rows
    for k, coeffs in enumerate(_CASCADE):
        p, w = anchors[k]
        t = w - (w @ p) * p
        circle[0] = p
        np.divide(t, np.linalg.norm(t), out=circle[1])
        Q = coeffs @ circle
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


def _point_noise(smax: np.ndarray, dim: int) -> float:
    """The largest |b| that rounding leaves on a point, 2 (d + 5) eps max |s|;
    see _POINT_B_SCALE."""
    return float(_POINT_B_SCALE * (dim + 5) * smax)


def _gate(top: np.ndarray, smax: np.ndarray, dim: int) -> float:
    """R_min from a pair table's largest threshold per scale and largest |s|,
    or the error that says why there is none; see min_strong_radius."""
    b, noise = top[_GATE_SCALES[-1]] * _GATE_A, _point_noise(smax, dim)
    if b <= noise:
        raise OutOfDomainError(
            f"the largest b at the finest gate scale, {b:.3g}, is within the rounding "
            f"of a point's ({noise:.3g}); the body has no curvature to measure")
    wide, narrow = top[list(_GATE_SCALES)]
    growth = math.log2(narrow / wide) if wide > 0.0 and narrow > 0.0 else math.inf
    if growth >= _FLAT_GROWTH:
        raise NotUniformlyConvexError(
            f"pair thresholds double per halving of the gap (growth {growth:.3g} >= "
            f"{_FLAT_GROWTH}); body is not uniformly convex")
    if growth > _SMOOTH_GROWTH:
        ratios = ", ".join(f"{r:.3g}" for r in top[1:] / top[:-1])
        alpha = (2.0 - growth) / (1.0 - growth)
        raise NotStronglyConvexError(
            f"undecided: pair thresholds grow by 2^{growth:.3g} per halving of the gap, "
            f"between second order (<= {_SMOOTH_GROWTH}) and flat (>= {_FLAT_GROWTH}); "
            f"order alpha = {alpha:.3g}; per-scale ratios {ratios}")
    return float(np.max(top))


def check_strong_convexity(
    body: ConvexBody,
    R: float,
    n_pairs: int = 4096,
    seed: int = 0,
) -> ConvexityVerdict:
    """Sampled midpoint-convexity test of f(p) = R|p| - s(p) on unit pairs.

    Midpoint convexity on unit pairs at fine scale propagates to convexity by
    doubling, so the pairs mix wide and fine separations.  A pair refutes R
    when its violation exceeds tol, the larger of 1e-8 R and the rounding of
    a point's b (_point_noise); the first such pair (fixed ordering) becomes
    the witness.  With none, min_strong_radius's gate decides: R passes on a
    second-order body and on one with no curvature to measure (a point is an
    intersection of balls of any radius); a flat or undecided one raises
    NotUniformlyConvexError or NotStronglyConvexError.  ValueError: a bad R or
    n_pairs.
    """
    if not 0.0 < R < math.inf:
        raise ValueError("radius must be positive and finite")
    P1, P2, a, b, threshold, top, smax = _pair_table(body, n_pairs, seed)
    noise = _point_noise(smax, body.dim)
    tol, n = max(_REL_TOL * float(R), noise), len(P1)
    bad = np.flatnonzero(threshold > R)
    if noise > _REL_TOL * R:
        # a violation above 1e-8 R may still be rounding alone
        bad = bad[b[bad] - R * a[bad] > noise]
    if len(bad):
        i = int(bad[0])
        witness = (P1[i].copy(), P2[i].copy(), float(b[i] - R * a[i]))
        return ConvexityVerdict(False, witness, n, tol, float(R))
    del P1, P2, a, b, threshold  # so that an error of the gate does not pin the table
    with contextlib.suppress(OutOfDomainError):
        _gate(top, smax, body.dim)
    return ConvexityVerdict(True, None, n, tol, float(R))


def min_strong_radius(
    body: ConvexBody,
    n_pairs: int = 4096,
    seed: int = 0,
) -> tuple[float, tuple[float, float]]:
    """Smallest radius that check_strong_convexity accepts, in closed form.

    The table's largest threshold per scale, T(g), decides first.  It settles
    to R_min when the modulus is of the second order and doubles per halving
    of g on a flat piece; the growth gamma = log2(T(pi/256) / T(pi/128)) reads
    which:
    - gamma <= 0.1: R_min is the largest pair threshold, and the bracket (the
      float below R_min, R_min) has an accepted high end and, where 1e-8 R_min
      exceeds the rounding of a point's b, a refuted low end;
    - gamma >= 0.85: NotUniformlyConvexError;
    - in between: NotStronglyConvexError naming gamma, the order
      alpha = (2 - gamma) / (1 - gamma) it suggests and the per-scale ratios.
      This is an undecided answer, not a verdict.
    Before the gate, OutOfDomainError: T(pi/256) times its scale's a is within
    the rounding of a point's b, as on a point or on Ball([1, 0, 0], 1e-12),
    so the growth would read rounding noise.
    """
    # only the per-scale maxima stay in this frame, so an error of the gate
    # does not keep the table alive
    r_min = _gate(*_pair_table(body, n_pairs, seed)[5:], body.dim)
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
        return self.R * _row_norms(P) - self.base.support_values(P)

    def support_points(self, P):
        raise NotImplementedError("complement bodies expose support values only")

    def __repr__(self):
        return f"ComplementBody(R={self.R}, base={self.base!r})"

    def _key(self):
        return (self.R, self.base._key())


def complement_body(body: ConvexBody, R: float, n_pairs: int = 4096) -> ComplementBody:
    """Summand B with body + B = B_R(0), available once the criterion holds;
    raises what check_strong_convexity raises, or NotStronglyConvexError on a witness."""
    verdict = check_strong_convexity(body, R, n_pairs=n_pairs)
    if not verdict.is_convex:
        raise NotStronglyConvexError(
            f"gap function not convex at R = {R}; witness violation "
            f"{verdict.witness[2]:.3g}")
    return ComplementBody(body, R)


def supporting_ball_radius(body: ConvexBody, p) -> tuple[float, np.ndarray | None]:
    """Least R whose ball B_R(x_p - R p), x_p the support point at p, holds the body.

    The ball holds it when R (1 - (p, q)) >= s(q) - (x_p, q) at every unit q, so
    R >= max (s(q) - (x_p, q)) / (1 - (p, q)) over the rows q of default_grid;
    returns that max with its row, or (0.0, None) when no row is positive.  Each
    radius-R_min supporting ball holds the body (Polovinkin and Balashov, 2004),
    so the value is a lower end of R_min.  With the inputs taken as exact and
    u = eps / 2, rounding moves s(q) - (x_p, q) by at most (d + 1) u |x_p| +
    u |s(q)|, and 1 - (p, q) with |p| - 1 and |q| - 1 by at most (2 d + 5) u: so
    4 (d + 2) u (|s(q)| + |x_p|) comes off each numerator, 4 (d + 2) u goes on
    each denominator, only rows with 1 - (p, q) above it are read, and the
    factor 4 covers the rounding of the bounds and the division too.  No read
    exceeds the exact one.
    ValueError: a p that is not a unit vector of length body.dim.
    """
    p = as_direction(p)
    if p.shape != (body.dim,):
        raise ValueError(f"p has {p.size} coordinates, the body's dimension is {body.dim}")
    p, grid = p / np.linalg.norm(p), default_grid(body.dim)
    x, s = body.support_point(p), body.support_values(grid)
    tau = 2.0 * (body.dim + 2) * np.finfo(float).eps  # 4 (d + 2) u
    num, den = s - grid @ x - tau * (np.abs(s) + np.linalg.norm(x)), 1.0 - grid @ p
    ratio = np.divide(num, den + tau, out=np.zeros_like(num), where=den > tau)
    i = int(np.argmax(ratio))
    return (float(ratio[i]), grid[i].copy()) if ratio[i] > 0.0 else (0.0, None)


def _lens_chords(param: BoundaryParam, eps0: float):
    # every k-th chord of each length, about _LENS_CHORDS in all, as (m, 2) ends
    # a and b; a chord shorter than 1e-12 has no lens to test
    per_len = _LENS_CHORDS // len(_LENS_FRACTIONS)
    ends = [np.zeros((0, 2))] * 2
    for frac in _LENS_FRACTIONS:
        found = _chords_of_length(param.points, frac * eps0, param._index)
        if found is not None:
            take = max(1, len(found[0]) // per_len)
            ends = [np.concatenate([e, f[::take]]) for e, f in zip(ends, found)]
    a, b = ends
    keep = _row_norms(b - a) >= 1e-12
    return a[keep], b[keep]


def _lens_root(a: np.ndarray, b: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """R- at the unit g = gt[:2]: the lens of [a, b] pokes out past top = gt[2] below it.

    With d = b - a, p = |(d, g)|, q = |(d_perp, g)| = sqrt(|d|^2 - p^2) and
    t = top - (mid, g), R- = (t^2 + q^2/4) / (t + (q/|d|) sqrt(t^2 - p^2/4)), the
    smaller root of p^2 R^2 - 2 |d|^2 t R + |d|^2 (t^2 + q^2/4) in a form that does
    not cancel, or -inf where t >= |d| / 2; t > p / 2, top above both ends.
    """
    e, mid = 0.5 * (b - a), 0.5 * (a + b)
    half2 = e[..., 0] ** 2 + e[..., 1] ** 2
    p2 = (e[..., 0] * gt[0] + e[..., 1] * gt[1]) ** 2
    t = gt[2] - (mid[..., 0] * gt[0] + mid[..., 1] * gt[1])
    t2, q2 = t * t, half2 - p2
    return np.where(t2 < half2, (t2 + q2) / (t + np.sqrt(q2 * (t2 - p2) / half2)), -np.inf)


def lens_radius(body: ConvexBody, eps0: float) -> tuple[float, tuple | None]:
    """Least R whose lenses the sampled boundary chords of length up to eps0 hold.

    A closed convex set is an intersection of radius-R balls exactly when it
    holds the radius-R lens of each chord (Polovinkin and Balashov, 2004), and
    lenses shrink as R grows: on a 2048-point boundary model a chord's lens
    pokes out past the grid support plus tol, 5 grid support errors, at g for R
    below _lens_root.  Returns the largest such R with its (a, b, g), or
    (eps0 / 2, None) if no lens pokes out: the chords hold their R-lenses
    exactly for R >= it.  As R- <= |d| / (2 sin phi), phi the angle from a
    normal, only the runs within asin(|d| / (2 lo)) of a chord's two normals
    can beat lo, the largest R- nearest them.  The tol keeps 1/R above 1/R_min
    by about 8 tol / eps0^2.  ValueError: a body that is not planar, or eps0
    outside (0, diameter of the model).
    """
    param = BoundaryParam(body, _LENS_RESOLUTION)  # ValueError off the plane
    if not 0.0 < eps0 < param.diameter:
        raise ValueError(f"eps0 must lie in (0, {param.diameter!r}), the model's diameter")
    tol = _LENS_TOL * grid_angle_error(param.diameter, param.n)
    gt = np.vstack([param.grid.T, param.support + tol])  # each direction over its top, as columns
    a, b = (e[:, None] for e in _lens_chords(param, eps0))
    step, d = 2.0 * math.pi / param.n, b - a
    near = np.rint(np.arctan2(d[..., 0], -d[..., 1]) / step).astype(np.intp) + [0, param.n // 2]
    lo = np.max(_lens_root(a, b, np.take(gt, near, axis=1, mode="wrap")), initial=0.5 * eps0)
    width = (np.arcsin(np.minimum(1.0, _row_norms(d[:, 0]) / (2 * lo))) / step).astype(np.intp) + 1
    best = (0.5 * eps0, None)
    for w in np.unique(width):  # the chords of one length share their runs' width
        k = np.flatnonzero(width == w)
        runs = near[k, :, None] + np.arange(-w, w + 1)
        roots = _lens_root(a[k, None], b[k, None], np.take(gt, runs, axis=1, mode="wrap"))
        i = np.unravel_index(np.argmax(roots), roots.shape)
        if roots[i] > best[0]:
            best = float(roots[i]), (a[k[i[0]], 0], b[k[i[0]], 0], param.grid[runs[i] % param.n])
    return best
