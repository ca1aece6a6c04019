"""Quantitative radius results: chord radius, refinement map, fixed point, sharpness.

For a body whose modulus grows like K eps^2, the chord construction certifies
strong convexity at radius 1/(4K); one refinement step improves a radius R to
2R/(8RK + 1), and iterating the map converges monotonically to the sharp
value 1/(8K).  The map is linear in 1/R, so its iterates have a closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotConvergedError, OutOfDomainError, PreconditionError
from .modulus import ModulusCurve, SecondOrderFit, ball_modulus, fit_second_order


def chord_radius(eps: float, delta: float) -> float:
    """Radius eps^2/(4 delta) of the arc through a chord tangent to its midpoint ball."""
    if eps <= 0.0:
        raise OutOfDomainError("eps must be positive")
    if not 0.0 < delta < 0.5 * eps:
        raise OutOfDomainError("delta must lie in (0, eps/2)")
    return eps * eps / (4.0 * delta)


def zero_step_radius(K: float) -> float:
    """Strong-convexity radius 1/(4K) certified directly by the chord construction."""
    if not 0.0 < K < math.inf:
        raise OutOfDomainError("K must be positive and finite")
    return 1.0 / (4.0 * K)


def radius_map(R: float, K: float) -> float:
    """Refinement map 2R/(8RK + 1); increasing in R on R >= 0, fixed point 1/(8K)."""
    if not 0.0 < K < math.inf:
        raise OutOfDomainError("K must be positive and finite")
    if not 0.0 <= R < math.inf:
        raise OutOfDomainError("R must be nonnegative and finite")
    return 2.0 * R / (8.0 * R * K + 1.0)


def refine_radius(R: float, K: float) -> float:
    """One refinement step; requires R above the fixed point 1/(8K)."""
    if not 0.0 < K < math.inf:
        raise OutOfDomainError("K must be positive and finite")
    if not R > 1.0 / (8.0 * K):
        raise PreconditionError(f"refinement needs R > 1/(8K) = {1.0 / (8.0 * K)}")
    return radius_map(R, K)


@dataclass(frozen=True)
class RadiusSequence:
    """Iterates of the refinement map, decreasing toward the limit 1/(8K)."""

    K: float
    values: tuple[float, ...]
    converged: bool
    limit: float


def radius_fixed_point(
    R0: float,
    K: float,
    tol: float = 1e-9,
    max_iter: int = 500,
) -> RadiusSequence:
    """Iterates of the refinement map from R0 until within tol of the limit 1/(8K).

    The map is linear in 1/R, 1/R_{k+1} = 4K + 1/(2 R_k), so the iterates are
    R_k = 1/(8K - (8K - 1/R0) 2^-k) and the step count solves R_n - 1/(8K) <= tol
    in closed form.  The sequence is strictly decreasing and stays above the
    limit.  Raises NotConvergedError (carrying the partial sequence) when more
    than max_iter steps are needed.
    """
    if not tol > 0.0:
        raise OutOfDomainError("tol must be positive")
    limit = 1.0 / (8.0 * K) if K > 0.0 else math.inf
    if K <= 0.0 or not R0 > limit:
        raise PreconditionError("need K > 0 and R0 > 1/(8K)")
    gap = 8.0 * K - 1.0 / R0

    def iterates(n: int) -> np.ndarray:
        values = 1.0 / (8.0 * K - gap * 2.0 ** -np.arange(max(n, 0) + 1.0))
        values[0] = R0
        return values

    # R_n - limit <= tol  <=>  2^n >= gap (1 + 8K tol) / (64 K^2 tol); one
    # step more covers rounding at the boundary.
    ratio = gap / (8.0 * K) * (1.0 + 1.0 / (8.0 * K * tol))
    steps = math.ceil(min(math.log2(max(ratio, 1.0)), max_iter + 1))
    values = iterates(min(steps + 1, max_iter))
    within = np.flatnonzero(np.abs(values - limit) <= tol)
    if within.size:
        return RadiusSequence(K=K, values=tuple(values[:within[0] + 1].tolist()),
                              converged=True, limit=limit)
    partial = RadiusSequence(K=K, values=tuple(iterates(max_iter).tolist()),
                             converged=False, limit=limit)
    raise NotConvergedError(
        f"fixed-point iteration did not reach tol={tol} in {max_iter} steps", partial)


def sharp_radius(C: float) -> float:
    """The sharp ball radius 1/(8C) for second-order constant C."""
    if not 0.0 < C < math.inf:
        raise OutOfDomainError("C must be positive and finite")
    return 1.0 / (8.0 * C)


@dataclass(frozen=True)
class SharpnessVerdict:
    """Outcome of testing a claimed ball radius against a modulus curve."""

    radius: float
    contradiction: bool
    fitted_constant: float
    required_constant: float
    pointwise_violations: int
    pointwise_checked: int


def sharpness_check(
    curve: ModulusCurve,
    r: float,
    margin: float = 0.02,
    fit: SecondOrderFit | None = None,
) -> SharpnessVerdict:
    """Test whether the curve is consistent with an intersection of radius-r balls.

    An intersection of radius-r balls has modulus at least that of the ball,
    so its second-order constant is at least 1/(8r).  A fitted constant below
    1/(8r) by more than the margin certifies that the claimed r is impossible.
    The pointwise ball-modulus bound is evaluated alongside.  Without a fit,
    the curve is fitted in its default window.
    """
    if not 0.0 < r < math.inf:
        raise OutOfDomainError("r must be positive and finite")
    if not 0.0 <= margin < math.inf:
        raise OutOfDomainError("margin must be nonnegative and finite")
    if fit is None:
        fit = fit_second_order(curve)
    required = 1.0 / (8.0 * r)
    contradiction = fit.C * (1.0 + margin) < required
    violations = 0
    checked = 0
    for s in curve.samples:
        if s.eps >= 2.0 * r:
            continue
        checked += 1
        if s.delta < ball_modulus(r, s.eps) - s.error_bound:
            violations += 1
    return SharpnessVerdict(
        radius=float(r),
        contradiction=bool(contradiction),
        fitted_constant=float(fit.C),
        required_constant=float(required),
        pointwise_violations=violations,
        pointwise_checked=checked,
    )
