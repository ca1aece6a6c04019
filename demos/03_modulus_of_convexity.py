"""Estimating the modulus of convexity and its second-order constant.

The modulus delta(eps) of a convex body is the largest inward clearance that
every midpoint of a chord of length eps enjoys.  For a radius-r ball it is
known in closed form, r - sqrt(r^2 - eps^2/4), which makes balls the natural
calibration target for the numerical estimator.  Near eps = 0 the modulus of
a smooth body grows like C eps^2; the constant C is recovered by a
least-squares fit of delta/eps^2 extrapolated to zero.
"""
import numpy as np

import strconvex as sc

print("== Calibration: unit ball against the closed form ==")
ball = sc.Ball([0, 0], 1.0)
print(f"  {'eps':>5s} {'estimate':>12s} {'exact':>12s} {'error':>10s}")
curve = sc.modulus_curve(ball, [0.2, 0.6, 1.0, 1.4], resolution=2048)
for eps, est in zip(curve.eps, curve.delta):
    exact = sc.ball_modulus(1.0, eps)
    print(f"  {eps:5.2f} {est:12.8f} {exact:12.8f} {est - exact:+10.1e}")

print("\n== A flat body has zero modulus ==")
square = sc.PointHull([[-1, -1], [1, -1], [1, 1], [-1, 1]])
curve = sc.modulus_curve(square, [0.5], resolution=1024)
print(f"  square, eps = 0.5: estimate {curve.delta[0]:.2e}"
      f" (within noise {curve.error_bound[0]:.1e} of zero;"
      " a chord along an edge has its midpoint on the boundary)")

print("\n== Second-order constants ==")
for label, body, expected in (
    ("ball r=1", sc.Ball([0, 0], 1.0), 1 / 8),
    ("ball r=2", sc.Ball([0, 0], 2.0), 1 / 16),
    ("ellipse (2,1)", sc.Ellipsoid([0, 0], [2, 1]), 1 / 32),
):
    diam = body.diameter()
    curve = sc.modulus_curve(body, np.linspace(0.05, 0.4, 10) * diam, resolution=2048)
    fit = sc.fit_second_order(curve)
    print(f"  {label:14s} C = {fit.C:.6f}   expected {expected:.6f}"
          f"   (window {fit.window[0]:.3g}..{fit.window[1]:.3g}, residual {fit.residual:.1e})")

print("\nFor the ellipse, C = 1/32 reflects the flattest boundary point: the")
print("osculating radius there is a^2/b = 4 and C = 1/(8 * 4).")
