"""Supporting functions and support points of convex bodies.

Every body in this library is an oracle: given a direction p it reports the
supporting value s(p) = sup (p, x) over the body and one maximizer.  This
script walks through the closed forms (ball, ellipsoid, point hull), Minkowski
additivity, and the membership / inscribed-radius queries built on top.
"""
import numpy as np

import strconvex as sc

print("== Supporting values and support points ==")
bodies = {
    "unit ball":          sc.Ball([0, 0], 1.0),
    "shifted ball":       sc.Ball([1, 0], 2.0),
    "ellipse (2,1)":      sc.Ellipsoid([0, 0], [2, 1]),
    "triangle hull":      sc.PointHull([[0, 0], [1, 0], [0, 1]]),
}
directions = {"+x": [1, 0], "+y": [0, 1], "diag": np.array([1, 1]) / np.sqrt(2)}
for name, body in bodies.items():
    for dname, p in directions.items():
        print(f"  {name:14s} s({dname}) = {body.support_value(p):+.6f}"
              f"   support point {np.round(body.support_point(p), 6)}")

print("\n== Minkowski sums: supports add ==")
parts = [sc.Ball([0, 0], 1.0), sc.Ball([0, 0], 2.0)]
print("  two balls, radii 1 and 2: s(+y) =", sc.MinkowskiSum(parts).support_value([0, 1]),
      "(radii add)")
parts = [sc.Ellipsoid([0, 0], [2, 1]), sc.Ball([0, 0], 0.5)]
print("  ellipse + half ball:      s(+y) =", sc.MinkowskiSum(parts).support_value([0, 1]))

print("\n== Membership and inscribed radii ==")
ball = sc.Ball([0, 0], 1.0)
for x in ([0.5, 0.5], [1.1, 0.0]):
    print(f"  ball contains {x}? {ball.contains(x, tol=1e-9)}")
print("  largest ball inside the unit disk centered at (0.5, 0):",
      round(sc.boundary_distance(ball, [0.5, 0]), 6))
print("  ... and centered at the center of the (2,1) ellipse:",
      round(sc.boundary_distance(sc.Ellipsoid([0, 0], [2, 1]), [0, 0]), 6))

print("\n== The support function is positively homogeneous and subadditive ==")
rng = np.random.default_rng(0)
body = sc.Ellipsoid([0.3, -0.2], [2, 1])
p, q = rng.standard_normal(2), rng.standard_normal(2)
s = body.support_value
print(f"  s(3p) - 3 s(p)       = {s(3 * p) - 3 * s(p):+.2e}  (zero)")
print(f"  s(p+q) - s(p) - s(q) = {s(p + q) - s(p) - s(q):+.2e}  (never positive)")
