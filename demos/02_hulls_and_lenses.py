"""Lenses, disk intersections and strongly convex hulls.

A set is strongly convex of radius R when it is an intersection of radius-R
balls.  The smallest such set containing given points is their strongly
convex hull: for two points it is the lens bounded by two radius-R arcs, and
in general it is computed exactly here as an arc polygon.  The script builds
a few hulls and writes an SVG figure.
"""
import numpy as np

import strconvex as sc
from strconvex import svgio

print("== The lens: strongly convex hull of two points ==")
L = sc.lens([-0.6, 0], [0.6, 0], 1.0)
print("  arcs centered at:", [tuple(np.round(a.center, 6).tolist()) for a in L.arcs()])
print("  half-thickness at the midpoint:", round(L.support_value([0, 1]), 6),
      " (= 1 - sqrt(1 - 0.36))")

print("\n== Equal-radius disk intersections ==")
D = sc.disk_intersection(np.array([[-0.6, 0], [0.6, 0]]), 1.0)
print("  two disks at distance 1.2, R = 1: vertices",
      [tuple(np.round(v, 6).tolist()) for v in D.vertices()])
print("  disks 3 apart, R = 1:", sc.disk_intersection(np.array([[0, 0], [3, 0]]), 1.0),
      " (empty intersection)")

print("\n== Strongly convex hull of random points ==")
rng = np.random.default_rng(42)
pts = rng.random((10, 2))
R = 2.0
hull = sc.r_hull(pts, R)
kernel = sc.disk_intersection(pts, R)
print(f"  10 random points, R = {R}: hull has {len(hull.pieces)} boundary arcs,"
      f" kernel has {len(kernel.pieces)}")
print("  every boundary arc radius:", {p.radius for p in hull.pieces})
tighter = sc.r_hull(pts, 3.0)
nested = all(hull.contains(x, tol=1e-9) for x in tighter.boundary_samples(64))
print("  hulls shrink as R grows: R=3 hull inside R=2 hull?", nested)

print("\n== Offsets: Minkowski sums with a disk ==")
off = sc.offset(L, 0.5)
print("  lens offset by 0.5: support in +y grows from",
      round(L.support_value([0, 1]), 4), "to",
      round(off.support_value([0, 1]), 4))

svg_path = "hull_demo.svg"
with open(svg_path, "w") as fh:
    fh.write(svgio.render_svg([hull, kernel], points=pts))
print(f"\nWrote {svg_path} (hull with the admissible-center kernel overlaid).")
