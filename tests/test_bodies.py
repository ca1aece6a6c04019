import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import loop_hull_support_points, reference_support_values, support_curvature_radii

import strconvex as sc
from strconvex import jsonio
from strconvex.bodies import _row_norms, grid_angle_error

SQ2 = math.sqrt(2.0)


class TestSupportEval:
    """Support value and support point of one direction."""

    def test_unit_ball(self):
        ball = sc.Ball([0, 0], 1.0)
        assert ball.support_value([0, 1]) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(ball.support_point([0, 1]), [0, 1], atol=1e-12)

    def test_shifted_ball(self):
        ball = sc.Ball([1, 0], 2.0)
        assert ball.support_value([1, 0]) == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(ball.support_point([1, 0]), [3, 0], atol=1e-12)

    def test_ellipse_axis_endpoint(self):
        e = sc.Ellipsoid([0, 0], [2, 1])
        assert e.support_value([1, 0]) == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(e.support_point([1, 0]), [2, 0], atol=1e-12)

    def test_hull_tie_breaks_lexicographically(self):
        h = sc.PointHull([[0, 0], [1, 0], [0, 1]])
        p = np.array([1, 1]) / SQ2
        assert h.support_value(p) == pytest.approx(1 / SQ2, abs=1e-12)
        # (0,1) and (1,0) tie; lexicographically smallest wins
        assert np.allclose(h.support_point(p), [0, 1])

    def test_direction_must_be_unit(self):
        with pytest.raises(ValueError):
            sc.as_direction([1, 1])

    def test_empty_hull_rejected(self):
        with pytest.raises(sc.EmptyBodyError):
            sc.PointHull(np.zeros((0, 2)))

    def test_hulls_of_one_array_in_two_shapes_differ(self):
        # four points in the plane and two in R^4 hold the same bytes
        planar, spatial = (sc.PointHull(np.arange(8.0).reshape(shape))
                           for shape in ((4, 2), (2, 4)))
        assert planar != spatial
        assert hash(planar) != hash(spatial)
        assert planar == sc.PointHull(np.arange(8.0).reshape(4, 2))
        assert hash(planar) == hash(sc.PointHull(np.arange(8.0).reshape(4, 2)))


def _kernel_bodies(d: int, rng) -> dict:
    """One body of every type whose support values the row kernels compute."""
    turn = np.linalg.qr(rng.standard_normal((d, d)))[0]
    bodies = {
        "ball": sc.Ball(rng.uniform(-1.0, 1.0, d), 1.3),
        "ellipsoid": sc.Ellipsoid(rng.uniform(-1.0, 1.0, d), np.linspace(2.0, 0.5, d), turn),
        **{f"hull_{m}": sc.PointHull(rng.uniform(-1.0, 1.0, (m, d))) for m in (1, 4, 31, 32, 200)},
    }
    bodies["sum"] = sc.MinkowskiSum([bodies["ellipsoid"], bodies["hull_4"], bodies["ball"]])
    bodies["complement"] = sc.ComplementBody(bodies["ellipsoid"], 5.0)
    if d == 2:
        bodies["lens"] = sc.lens([-0.6, 0.1], [0.5, -0.2], 1.0)
    return bodies


class TestRowKernels:
    """The oracles add the squares of short rows, and take the maxima of few
    vertex products, one column at a time; each returns numpy's row
    reduction bit for bit."""

    @pytest.mark.parametrize("d", range(2, 13))
    def test_row_norms_match_numpy(self, d):
        # the column sums copy numpy's own summation order (in order below 8
        # terms, pairwise from 8), checked on numpy 2.4.6: a failure here
        # means numpy changed that order, not that a support value is wrong
        rng = np.random.default_rng(d)
        X = rng.uniform(-1.0, 1.0, (3000, d)) * 10.0 ** rng.uniform(-150.0, 150.0, (3000, 1))
        # entries of unlike magnitude within a row, and zero rows of both signs
        X[:1000] = rng.choice([-1.0, 1.0], (1000, d)) * 10.0 ** rng.uniform(-150.0, 150.0,
                                                                              (1000, d))
        X[1000], X[1001], X[1002, ::2], X[1003, 1::2] = 0.0, -0.0, -0.0, 0.0
        for layout in (X, np.asfortranarray(X), X[::-3]):
            want = np.linalg.norm(layout, axis=1)
            assert _row_norms(layout).tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_support_values_match_the_row_reductions(self, d):
        rng = np.random.default_rng(100 + d)
        scale = 10.0 ** rng.uniform(-3.0, 3.0, (500, 1))
        P = np.concatenate([sc.default_grid(d, 4096), scale * rng.standard_normal((500, d))])
        for name, body in _kernel_bodies(d, rng).items():
            got, want = body.support_values(P), reference_support_values(body, P)
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("d", [2, 3, 40])
    def test_unrotated_ellipsoid_skips_the_identity(self, d):
        rng = np.random.default_rng(200 + d)
        center, axes = rng.uniform(-1.0, 1.0, d), np.sort(rng.uniform(0.5, 2.0, d))[::-1]
        plain, eye = sc.Ellipsoid(center, axes), sc.Ellipsoid(center, axes, np.eye(d))
        # the identity stays the rotation of its value and of its JSON
        assert plain == eye and hash(plain) == hash(eye)
        assert np.array_equal(plain.rotation, np.eye(d))
        assert jsonio.body_to_dict(plain) == jsonio.body_to_dict(eye)
        P = np.concatenate([sc.default_grid(d, 2000), rng.standard_normal((300, d))])
        assert np.array_equal(plain.support_values(P), eye.support_values(P))
        assert np.array_equal(plain.support_points(P), eye.support_points(P))


class TestContains:
    def test_ball_inside(self):
        assert sc.Ball([0, 0], 1.0).contains([0.5, 0.5], tol=1e-9)

    def test_ball_outside(self):
        assert not sc.Ball([0, 0], 1.0).contains([1.1, 0], tol=1e-9)

    def test_ellipse_boundary(self):
        assert sc.Ellipsoid([0, 0], [2, 1]).contains([0, 1], tol=1e-9)

    def test_hull_grid_membership(self):
        sq = sc.PointHull([[-1, -1], [1, -1], [1, 1], [-1, 1]])
        assert sq.contains([0.9, 0.9], tol=1e-9)
        assert not sq.contains([1.05, 0], tol=1e-9)

    def test_ellipse_rejects_twice_tol_past_long_vertex(self):
        # a gauge test with slack tol/a_min accepted this point, 0.002 outside
        tol = 1e-3
        e = sc.Ellipsoid([0, 0], [3, 0.5])
        assert not e.contains([3.0 + 2.0 * tol, 0.0], tol=tol)
        assert e.contains([3.0 + 0.5 * tol, 0.0], tol=tol)

    @pytest.mark.parametrize("body", [
        sc.Ellipsoid([0.3, -0.2], [3.0, 0.5], [[0.6, -0.8], [0.8, 0.6]]),
        sc.Ellipsoid([0.1, 0.2, -0.3], [2.0, 1.5, 0.25],
                     [[0.36, -0.48, 0.8], [0.8, 0.6, 0.0], [-0.48, 0.64, 0.6]]),
    ], ids=["ellipse_6to1", "ellipsoid_8to1"])
    def test_ellipsoid_decides_distance_within_tol(self, body):
        # a point moved along the outward normal at a boundary point lies
        # exactly that far from the body
        rng = np.random.default_rng(11)
        P = rng.standard_normal((200, body.dim))
        P /= np.linalg.norm(P, axis=1)[:, None]
        X = body.support_points(P)
        for tol in (1e-3, 1e-6):
            for p, x in zip(P, X):
                assert body.contains(x + 0.5 * tol * p, tol=tol)
                assert not body.contains(x + 2.0 * tol * p, tol=tol)

    @pytest.mark.parametrize("body, x", [
        (sc.Ball([0, 0], 1.0), [0.0, 0.95]),
        # 0.05 from the boundary, accepted by a shrunken gauge test
        (sc.Ellipsoid([0, 0], [3, 0.5]), [0.0, 0.45]),
        (sc.PointHull([[-1, -1], [1, -1], [1, 1], [-1, 1]]), [0.0, 0.95]),
        (sc.MinkowskiSum([sc.Ball([0, 0], 0.5), sc.Ball([0, 0], 0.5)]), [0.0, 0.95]),
        # 0.034 from the boundary, accepted by the inside-ray test
        (sc.lens([0, 0], [1, 0], 1.0), [0.5, 0.1]),
    ], ids=["ball", "ellipsoid", "point_hull", "minkowski_sum", "arc_polygon"])
    def test_negative_tol_rejected(self, body, x):
        assert body.contains(x, tol=0.0)
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            body.contains(x, tol=-0.1)


class TestPointHullSupportPoints:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_per_row_tie_break(self, dim):
        rng = np.random.default_rng(dim)
        for n in (1, 2, 7, 40, 300):
            pts = rng.uniform(-2.0, 2.0, (n, dim))
            for points in (pts, np.round(pts), np.round(3.0 * pts) / 3.0):
                body = sc.PointHull(points)
                # the signed axes tie along the flat faces of rounded sets
                P = np.vstack([rng.standard_normal((200, dim)), np.eye(dim), -np.eye(dim)])
                expect = loop_hull_support_points(body.points, P)
                assert np.array_equal(body.support_points(P), expect)

    def test_square_face_takes_lexicographic_minimum(self):
        sq = sc.PointHull([[1, 1], [-1, 1], [1, -1], [-1, -1], [0, 1], [1, 1]])
        got = sq.support_points(np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [-1.0, 0.0]]))
        assert got.tolist() == [[-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, -1.0]]


class TestBoundaryDistance:
    def test_ball_center(self):
        assert sc.boundary_distance(sc.Ball([0, 0], 1.0), [0, 0]) == pytest.approx(1.0, abs=1e-6)

    def test_ball_offcenter(self):
        assert sc.boundary_distance(sc.Ball([0, 0], 1.0), [0.5, 0]) == pytest.approx(0.5, abs=1e-6)

    def test_ellipse_center(self):
        assert sc.boundary_distance(sc.Ellipsoid([0, 0], [2, 1]), [0, 0]) == pytest.approx(1.0, abs=1e-6)

    def test_outside_raises(self):
        with pytest.raises(sc.OutsideBodyError):
            sc.boundary_distance(sc.Ball([0, 0], 1.0), [2, 0])


class TestMinkowski:
    def test_radii_add(self):
        parts = [sc.Ball([0, 0], 1.0), sc.Ball([0, 0], 2.0)]
        for p in sc.angle_grid(16):
            assert sc.MinkowskiSum(parts).support_value(p) == pytest.approx(3.0, abs=1e-12)

    def test_translation_cancels(self):
        parts = [sc.Ball([1, 0], 1.0), sc.PointHull([[-1, 0]])]
        assert sc.MinkowskiSum(parts).support_value([1, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_ellipse_plus_ball(self):
        for r in (0.5, 1.0, 2.0):
            parts = [sc.Ellipsoid([0, 0], [2, 1]), sc.Ball([0, 0], r)]
            assert sc.MinkowskiSum(parts).support_value([0, 1]) == pytest.approx(1 + r, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(sc.EmptyInputError):
            sc.MinkowskiSum([])

    def test_matches_brute_force_on_point_hulls(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            A = rng.standard_normal((6, 2))
            B = rng.standard_normal((5, 2))
            parts = [sc.PointHull(A), sc.PointHull(B)]
            sums = (A[:, None, :] + B[None, :, :]).reshape(-1, 2)
            p = rng.standard_normal(2)
            p /= np.linalg.norm(p)
            brute = float(np.max(sums @ p))
            assert sc.MinkowskiSum(parts).support_value(p) == pytest.approx(brute, abs=1e-6)


def _random_bodies(rng, n):
    out = []
    for _ in range(n):
        kind = rng.integers(3)
        if kind == 0:
            out.append(sc.Ball(rng.uniform(-2, 2, 2), rng.uniform(0.2, 3.0)))
        elif kind == 1:
            axes = np.sort(rng.uniform(0.3, 3.0, 2))[::-1]
            t = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
            out.append(sc.Ellipsoid(rng.uniform(-2, 2, 2), axes, rot))
        else:
            out.append(sc.PointHull(rng.uniform(-2, 2, (rng.integers(1, 9), 2))))
    return out


class TestInvariants:
    def test_positive_homogeneity(self):
        rng = np.random.default_rng(0)
        for body in _random_bodies(rng, 12):
            P = rng.standard_normal((64, 2))
            s = body.support_values(P)
            for lam in (0.5, 2.0, 10.0):
                scaled = body.support_values(lam * P)
                assert np.max(np.abs(scaled - lam * s)) <= 1e-10 * (1 + np.abs(s).max())

    def test_subadditivity(self):
        rng = np.random.default_rng(1)
        for body in _random_bodies(rng, 12):
            P = rng.standard_normal((64, 2))
            Q = rng.standard_normal((64, 2))
            lhs = body.support_values(P + Q)
            rhs = body.support_values(P) + body.support_values(Q)
            assert np.all(lhs <= rhs + 1e-10)

    def test_support_point_consistency(self):
        rng = np.random.default_rng(2)
        for body in _random_bodies(rng, 12):
            for p in sc.angle_grid(16):
                point = body.support_point(p)
                assert abs(float(p @ point) - body.support_value(p)) <= 1e-9
                assert body.contains(point, tol=1e-9)


class TestGrids:
    def test_angle_grid_units(self):
        g = sc.angle_grid(128)
        assert np.allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-14)

    def test_sphere_grid_units_and_determinism(self):
        g1 = sc.sphere_grid(500, 3)
        g2 = sc.sphere_grid(500, 3)
        assert np.array_equal(g1, g2)
        assert np.allclose(np.linalg.norm(g1, axis=1), 1.0, atol=1e-12)
        # one read-only grid per (n, dim, seed)
        assert g1 is g2
        assert not g1.flags.writeable
        with pytest.raises(ValueError):
            g1[0, 0] = 0.0

    @pytest.mark.parametrize("dim", [3, 4, 5, 8, 32])
    @pytest.mark.parametrize("seed", [0, 1, 5])
    @pytest.mark.parametrize("n", [8, 410, 20000])
    def test_sphere_grid_matches_scipy(self, dim, seed, n):
        # the grid at seed s is the seed-0 grid times an orthogonal matrix iff
        # the products of the first 64 rows with every row agree, since those
        # rows span the space or are the whole grid
        from scipy.stats import ortho_group

        g, g0 = sc.sphere_grid(n, dim, seed), sc.sphere_grid(n, dim, 0)
        assert g.shape == (n, dim)
        assert np.max(np.abs(np.linalg.norm(g, axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(g[:64] @ g.T - g0[:64] @ g0.T)) <= 1e-12
        # and that matrix is scipy's Haar-random orthogonal draw from the
        # same generator: unturn the seed-0 grid, turn it by seed s
        q0, qs = (ortho_group.rvs(dim, random_state=np.random.default_rng(s)) for s in (0, seed))
        assert np.max(np.abs(g - g0 @ q0 @ qs.T)) <= 1e-13

    def test_sphere_grid_dimension_limit(self):
        # dim = 1 has no sphere to cover; above it there is no cap
        with pytest.raises(ValueError, match="dim >= 2"):
            sc.sphere_grid(64, 1)
        for dim in (33, 64):
            g = sc.sphere_grid(64, dim)
            assert g.shape == (64, dim)
            assert np.max(np.abs(np.linalg.norm(g, axis=1) - 1.0)) <= 1e-12

    def test_sphere_grid_covers_the_sphere_at_its_spacing(self):
        # the covering radius is the largest angle from a Delaunay facet's
        # circumcentre, the facet normal of the hull, to its vertices
        from scipy.spatial import ConvexHull

        g = sc.sphere_grid()
        hull = ConvexHull(g)
        cos = np.einsum("ij,ij->i", hull.equations[:, :3], g[hull.simplices[:, 0]])
        assert np.arccos(np.min(cos)) <= sc.bodies.sphere_grid_angle(20000, 3)

    @pytest.mark.parametrize("n, dim", [(0, 3), (-4, 3), (410.5, 3), (math.nan, 3),
                                        (64, 1), (64, 2.5)])
    def test_sphere_grid_rejects_bad_arguments(self, n, dim):
        with pytest.raises(ValueError, match="whole"):
            sc.sphere_grid(n, dim)

    def test_no_scipy_at_run_time(self):
        code = (
            "import json, sys\n"
            "import strconvex as sc\n"
            "ball = sc.Ball([0.1, -0.2, 0.3], 1.2)\n"
            "ellipsoid = sc.Ellipsoid([0.0, 0.0, 0.0], [2.0, 1.5, 1.0])\n"
            "total = sc.MinkowskiSum([ellipsoid, ball])\n"
            "sc.min_strong_radius(ball)\n"
            "sc.check_strong_convexity(ellipsoid, 4.0)\n"
            "sc.modulus_curve(ellipsoid, [0.5], 64)\n"
            "total.diameter()\n"
            "total.contains([0.5, 0.5, 0.5], tol=1e-9)\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []

    def test_grid_error_scale(self):
        # supporting a unit ball on a grid loses at most the stated bound
        g = sc.angle_grid(256)
        ball = sc.Ball([0, 0], 1.0)
        worst = 0.0
        for t in np.linspace(0, 2 * np.pi, 33):
            x = np.array([np.cos(t), np.sin(t)])
            slack = np.min(ball.support_values(g) - g @ x)
            worst = max(worst, -slack if slack < 0 else 0.0)
        assert worst <= grid_angle_error(2.0, 256)


class TestCurvatureRadii:
    def test_ball_constant(self):
        radii = support_curvature_radii(sc.Ball([0.3, -0.2], 1.7), 1024)
        assert np.allclose(radii, 1.7, atol=1e-4)

    def test_ellipse_extremes(self):
        radii = support_curvature_radii(sc.Ellipsoid([0, 0], [2, 1]), 4096)
        assert radii.max() == pytest.approx(4.0, rel=1e-4)
        assert radii.min() == pytest.approx(0.5, rel=1e-4)
