import numpy as np
import pytest

import strconvex as sc
from strconvex.strongconv import GapFunction

from oracles import support_polygon


class TestGapFunction:
    def test_unit_disk_at_matching_radius_vanishes(self):
        g = GapFunction(sc.Ball([0, 0], 1.0), 1.0)
        for p in sc.angle_grid(32):
            assert g.value(p) == pytest.approx(0.0, abs=1e-14)

    def test_unit_disk_radius_two(self):
        g = GapFunction(sc.Ball([0, 0], 1.0), 2.0)
        assert g.value([1, 0]) == pytest.approx(1.0, abs=1e-14)

    def test_singleton(self):
        x = np.array([0.4, -0.7])
        g = GapFunction(sc.PointHull([x]), 3.0)
        for p in sc.angle_grid(16):
            assert g.value(p) == pytest.approx(3.0 - float(p @ x), abs=1e-12)

    def test_zero_direction(self):
        g = GapFunction(sc.Ball([0.3, 0.1], 1.0), 1.0)
        assert g.value([0, 0]) == 0.0

    def test_homogeneity(self):
        g = GapFunction(sc.Ellipsoid([0.2, -0.1], [2, 1]), 4.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.standard_normal(2)
            base = g.value(p)
            for lam in (0.5, 2.0, 10.0):
                assert abs(g.value(lam * p) - lam * base) <= 1e-10 * (1 + abs(base))


class TestCheckStrongConvexity:
    def test_disk_at_own_radius(self):
        v = sc.check_strong_convexity(sc.Ball([0, 0], 1.0), 1.0)
        assert v.is_convex and v.witness is None

    def test_disk_below_radius_has_witness(self):
        v = sc.check_strong_convexity(sc.Ball([0, 0], 1.0), 0.9)
        assert not v.is_convex
        p1, p2, violation = v.witness
        assert violation > v.tol
        # replay the witness: midpoint convexity is indeed violated
        g = GapFunction(sc.Ball([0, 0], 1.0), 0.9)
        replay = g.value(0.5 * (p1 + p2)) - 0.5 * (g.value(p1) + g.value(p2))
        assert replay == pytest.approx(violation, rel=1e-12)

    def test_ellipse_at_curvature_radius(self):
        e = sc.Ellipsoid([0, 0], [2, 1])
        assert sc.check_strong_convexity(e, 4.0).is_convex
        assert not sc.check_strong_convexity(e, 3.9).is_convex

    def test_up_closedness_on_radius(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            axes = np.sort(rng.uniform(0.5, 2.0, 2))[::-1]
            e = sc.Ellipsoid(rng.uniform(-1, 1, 2), axes)
            R = float(axes[0] ** 2 / axes[1])
            assert sc.check_strong_convexity(e, R * 1.0001).is_convex
            for mult in (1.1, 2.0, 10.0):
                assert sc.check_strong_convexity(e, mult * R).is_convex

    def test_disk_intersections_pass_at_construction_radius(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            centers = rng.uniform(-0.3, 0.3, (rng.integers(2, 5), 2))
            R = rng.uniform(0.8, 1.6)
            D = sc.disk_intersection(centers, R)
            assert sc.check_strong_convexity(D, R).is_convex

    def test_three_dimensional_ball(self):
        b3 = sc.Ball([0, 0, 0], 1.0)
        assert sc.check_strong_convexity(b3, 1.0).is_convex
        assert not sc.check_strong_convexity(b3, 0.9).is_convex


    @pytest.mark.parametrize("R", [0.0, -1.0, float("nan")])
    def test_radius_must_be_positive(self, R):
        with pytest.raises(ValueError):
            sc.check_strong_convexity(sc.Ball([0, 0], 1.0), R)


class TestMinStrongRadius:
    @pytest.mark.parametrize("tol", [0.0, -0.01, float("nan")])
    def test_tol_must_be_positive(self, tol):
        with pytest.raises(ValueError):
            sc.min_strong_radius(sc.Ball([0, 0], 1.0), tol=tol)

    def test_unit_disk(self):
        r, (lo, hi) = sc.min_strong_radius(sc.Ball([0, 0], 1.0), tol=0.005)
        assert r == pytest.approx(1.0, rel=0.005)
        assert hi - lo <= 0.005 * hi

    def test_ellipse(self):
        r, _ = sc.min_strong_radius(sc.Ellipsoid([0, 0], [2, 1]), tol=0.005)
        assert r == pytest.approx(4.0, rel=0.02)

    def test_lens_boundary_arc_radius(self):
        L = sc.lens([-0.6, 0], [0.6, 0], 1.0)
        r, _ = sc.min_strong_radius(L, tol=0.005)
        assert r == pytest.approx(1.0, rel=0.01)

    def test_square_rejected(self):
        sq = sc.PointHull([[-1, -1], [1, -1], [1, 1], [-1, 1]])
        with pytest.raises(sc.NotUniformlyConvexError):
            sc.min_strong_radius(sq, tol=0.01)


class TestComplementBody:
    def test_ball_complement_is_reflected_center(self):
        c = np.array([0.7, -0.2])
        B = sc.complement_body(sc.Ball(c, 1.5), 1.5)
        for p in sc.angle_grid(64):
            assert B.support_value(p) == pytest.approx(float(p @ (-c)), abs=1e-12)

    def test_singleton_complement_is_ball(self):
        x = np.array([0.3, 0.4])
        B = sc.complement_body(sc.PointHull([x]), 2.0)
        for p in sc.angle_grid(64):
            assert B.support_value(p) == pytest.approx(2.0 - float(p @ x), abs=1e-12)

    def test_rejects_nonconvex_gap(self):
        with pytest.raises(sc.NotStronglyConvexError):
            sc.complement_body(sc.Ball([0, 0], 1.0), 0.9)

    def test_support_points_not_exposed(self):
        B = sc.complement_body(sc.Ball([0, 0], 1.0), 1.0)
        with pytest.raises(NotImplementedError):
            B.support_point([1, 0])

    def test_decomposition_identity_bitwise(self):
        body = sc.Ellipsoid([0, 0], [2, 1])
        R = 4.0
        B = sc.complement_body(body, R)
        P = sc.angle_grid(4096)
        lhs = B.support_values(P)
        rhs = R * np.linalg.norm(P, axis=1) - body.support_values(P)
        assert np.array_equal(lhs, rhs)

    def test_ellipse_sum_reconstructs_ball(self):
        # A + B sampled via support points of A and the supporting-line polygon of B
        body = sc.Ellipsoid([0, 0], [2, 1])
        R = 4.0
        B = sc.complement_body(body, R)
        grid = sc.angle_grid(2048)
        a_pts = body.support_points(grid)
        b_pts = support_polygon(grid, B.support_values(grid))
        sums = a_pts + b_pts
        radii = np.linalg.norm(sums, axis=1)
        assert np.max(np.abs(radii - R)) <= 1e-3


class TestSupportingBall:
    def test_disk_equality_at_own_direction(self):
        body = sc.Ball([0, 0], 1.0)
        grid = sc.angle_grid(512)
        for p in sc.angle_grid(8):
            assert sc.supporting_ball_check(body, 1.0, p, tol=1e-9, grid=grid)
            # equality at q = p: support touches the shifted ball
            center = body.support_point(p) - 1.0 * p
            assert body.support_value(p) == pytest.approx(float(p @ center) + 1.0, abs=1e-9)

    def test_ellipse_at_minimal_radius(self):
        e = sc.Ellipsoid([0, 0], [2, 1])
        assert sc.supporting_ball_check(e, 4.0, [0, 1], tol=1e-8)

    def test_ellipse_below_minimal_radius_fails(self):
        e = sc.Ellipsoid([0, 0], [2, 1])
        assert not sc.supporting_ball_check(e, 3.5, [0, 1], tol=1e-8)

    def test_all_directions_at_certified_radius(self):
        e = sc.Ellipsoid([0, 0], [2, 1])
        for p in sc.angle_grid(64):
            assert sc.supporting_ball_check(e, 4.0, p, tol=1e-8)


class TestLocalLensCheck:
    def test_disk_at_own_radius(self):
        assert sc.local_lens_check(sc.Ball([0, 0], 1.0), 1.0, 0.5)

    def test_disk_below_radius(self):
        assert not sc.local_lens_check(sc.Ball([0, 0], 1.0), 0.8, 0.5)

    def test_witness_for_failed_criterion_radius(self):
        # the criterion fails at R = 0.9 for the unit disk, and so does the
        # lens inclusion: some short lens pokes outside
        assert not sc.check_strong_convexity(sc.Ball([0, 0], 1.0), 0.9).is_convex
        assert not sc.local_lens_check(sc.Ball([0, 0], 1.0), 0.9, 0.5)

    def test_ellipse_at_minimal_radius(self):
        assert sc.local_lens_check(sc.Ellipsoid([0, 0], [2, 1]), 4.0, 0.1)

    def test_planar_only(self):
        with pytest.raises(ValueError):
            sc.local_lens_check(sc.Ball([0, 0, 0], 1.0), 1.0, 0.5)
