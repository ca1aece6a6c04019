"""From the modulus to the sharp ball radius 1/(8C).

A body whose modulus grows like C eps^2 is an intersection of balls of radius
1/(8C), and of no smaller radius.  This script exercises the full chain on
the (2,1) ellipse:

  1. the gap-function criterion f(p) = R|p| - s(p), convex exactly when the
     body is an intersection of radius-R balls;
  2. the minimal radius, the largest per-pair threshold of that criterion,
     beside the lens radius, the largest radius whose chord lenses poke out,
     and the supporting-ball radius, the least radius whose ball touching
     the body at one direction holds it;
  3. the certified chain: modulus constant K gives radius 1/(4K) outright,
     one refinement step improves R to 2R/(8RK+1), and iterating converges
     to 1/(8K);
  4. sharpness: a fitted constant C rules out every radius below 1/(8C).
"""
import numpy as np

import strconvex as sc

ellipse = sc.Ellipsoid([0, 0], [2, 1])

print("== 1. The gap-function criterion ==")
for R in (3.9, 4.0, 4.5):
    verdict = sc.check_strong_convexity(ellipse, R)
    if verdict.is_convex:
        print(f"  R = {R}: convex ({verdict.samples_tested} direction pairs)")
    else:
        print(f"  R = {R}: violation {verdict.witness[2]:.2e} found")

print("\n== 2. Minimal radius in closed form ==")
measured, bracket = sc.min_strong_radius(ellipse)
print(f"  minimal radius = {measured:.5f}, bracket [{bracket[0]!r}, {bracket[1]!r}]")
print("  (the flattest osculating radius of the (2,1) ellipse is a^2/b = 4)")
lens_r, (a, b, g) = sc.lens_radius(ellipse, 0.4)
print(f"  lens radius (eps0 = 0.4) = {lens_r:.5f}, a second, independent lower route to R_min")
print(f"  (the lens of the chord ({a[0]:.3f}, {a[1]:.3f}) - ({b[0]:.3f}, {b[1]:.3f})"
      f" pokes out at g = ({g[0]:.3f}, {g[1]:.3f}) below it;")
print("  it reads a little below 4, as a lens must bulge past a tol of 5 grid support errors)")
ball_r, q = sc.supporting_ball_radius(ellipse, [0.0, 1.0])
print(f"  supporting-ball radius at p = (0, 1) = {ball_r:.7f}, a third route to R_min")
print(f"  (the row q = ({q[0]:.5f}, {q[1]:.5f}) of the grid is where the ball needs it;")
print("  the flat end's ball reads 4 up to the grid's step, its slack is rounding only)")

print("\n== 3. The refinement chain at K slightly below C ==")
curve = sc.modulus_curve(ellipse, np.linspace(0.2, 1.2, 12), resolution=2048)
fit = sc.fit_second_order(curve)
K = fit.C * 0.98
seq = sc.radius_fixed_point(sc.zero_step_radius(K), K, tol=1e-9)
print(f"  fitted C = {fit.C:.6f}; run the chain at K = 0.98 C = {K:.6f}")
print(f"  zero-step radius 1/(4K) = {seq.values[0]:.5f}")
print(f"  first refinements: {[round(v, 5) for v in seq.values[1:4]]} ...")
print(f"  limit 1/(8K) = {seq.values[-1]:.5f} after {len(seq.values) - 1} steps")

print("\n== 4. Sharpness of 1/(8C) ==")
predicted = sc.sharp_radius(fit.C)
for r in (0.95 * predicted, 1.02 * predicted):
    rep = sc.sharpness_check(curve, r, fit=fit)
    verdict = "IMPOSSIBLE (contradiction)" if rep.contradiction else "consistent"
    print(f"  claimed ball radius {rep.radius:.4f}: {verdict}"
          f"  [needs C >= {rep.required_constant:.6f},"
          f" fitted {rep.fitted_constant:.6f}]")
print(f"\n  predicted 1/(8C) = {predicted:.5f}  vs  measured minimal radius = {measured:.5f}")
