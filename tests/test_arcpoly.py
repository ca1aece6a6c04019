import math
import warnings

import numpy as np
import pytest

import strconvex as sc
from strconvex.arcpoly import Arc, Seg, _dedupe, _hull_vertices, clip_with_disk
from strconvex.seb import smallest_enclosing_circle

from oracles import (
    full_input_disk_intersection,
    full_input_r_hull,
    greedy_dedupe,
    loop_arc_support_points,
    loop_offset,
    oracle_hull_boundary,
    oracle_hull_membership,
    piecewise_boundary_distance,
    ray_cast_contains,
    reference_support_values,
    sampled_center_oracle,
    scipy_hull_vertices,
)


class TestLens:
    def test_standard_lens_geometry(self):
        L = sc.lens([-0.6, 0], [0.6, 0], 1.0)
        centers = sorted(tuple(np.round(a.center, 9)) for a in L.arcs())
        assert centers == [(0.0, -0.8), (0.0, 0.8)]
        # half-thickness at the midpoint: 1 - sqrt(1 - 0.36) = 0.2
        assert L.support_value([0, 1]) == pytest.approx(0.2, abs=1e-12)

    def test_too_far_apart(self):
        with pytest.raises(sc.TooFarApartError):
            sc.lens([-0.6, 0], [0.6, 0], 0.6)

    def test_degenerate_singleton(self):
        L = sc.lens([0.3, 0.4], [0.3, 0.4], 1.0)
        assert L.is_singleton
        assert np.allclose(L.singleton_point, [0.3, 0.4])

    def test_contains_chord(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.uniform(-1, 1, 2)
            b = rng.uniform(-1, 1, 2)
            R = np.linalg.norm(a - b) * rng.uniform(0.51, 3.0) + 0.1
            if np.linalg.norm(a - b) >= 2 * R or np.linalg.norm(a - b) < 1e-9:
                continue
            L = sc.lens(a, b, R)
            for t in np.linspace(0, 1, 9):
                assert L.contains((1 - t) * a + t * b, tol=1e-9)

    def test_nesting_in_radius(self):
        # smaller radius arcs bulge more: lens(R) inside lens(R') for R' < R
        a, b = np.array([-0.5, 0.1]), np.array([0.7, 0.3])
        big = sc.lens(a, b, 2.0)
        small = sc.lens(a, b, 0.9)
        for x in big.boundary_samples(128):
            assert small.contains(x, tol=1e-9)


class TestDiskIntersection:
    def test_two_disk_vertices(self):
        D = sc.disk_intersection(np.array([[-0.6, 0], [0.6, 0]]), 1.0)
        vs = sorted(tuple(np.round(v, 9)) for v in D.vertices())
        assert vs == [(-0.0, -0.8), (0.0, 0.8)]

    def test_single_center_is_disk(self):
        D = sc.disk_intersection(np.array([[0.5, -0.25]]), 1.5)
        for p in sc.angle_grid(32):
            expect = float(p @ [0.5, -0.25]) + 1.5
            assert D.support_value(p) == pytest.approx(expect, abs=1e-12)

    def test_empty_when_far(self):
        assert sc.disk_intersection(np.array([[0, 0], [3.0, 0]]), 1.0) is None

    def test_tangent_gives_singleton(self):
        D = sc.disk_intersection(np.array([[-1.0, 0], [1.0, 0]]), 1.0)
        assert D is not None and D.is_singleton
        assert np.allclose(D.singleton_point, [0, 0], atol=1e-6)

    def test_all_arcs_have_radius_exactly_R(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = rng.integers(2, 6)
            centers = rng.uniform(-0.5, 0.5, (n, 2))
            R = rng.uniform(0.8, 2.0)
            D = sc.disk_intersection(centers, R)
            assert D is not None
            if D.is_singleton:
                continue
            for piece in D.pieces:
                assert isinstance(piece, Arc)
                assert piece.radius == R

    def test_contains_equals_per_ball_membership(self):
        rng = np.random.default_rng(13)
        centers = rng.uniform(-0.4, 0.4, (4, 2))
        R = 1.0
        D = sc.disk_intersection(centers, R)
        pts = rng.uniform(-1.6, 1.6, (1000, 2))
        dmax = np.sqrt(((pts[:, None, :] - centers[None, :, :]) ** 2).sum(-1)).max(axis=1)
        for x, dm in zip(pts, dmax):
            if abs(dm - R) < 1e-7:
                continue
            assert D.contains(x, tol=1e-9) == (dm <= R)

    def test_support_grid_contains_agrees(self):
        rng = np.random.default_rng(14)
        centers = rng.uniform(-0.3, 0.3, (3, 2))
        R = 1.0
        D = sc.disk_intersection(centers, R)
        grid = sc.angle_grid(4096)
        s = D.support_values(grid)
        band = 1e-5
        pts = rng.uniform(-1.5, 1.5, (1000, 2))
        dmax = np.sqrt(((pts[:, None, :] - centers[None, :, :]) ** 2).sum(-1)).max(axis=1)
        for x, dm in zip(pts, dmax):
            if abs(dm - R) < band:
                continue
            sampled = bool(np.max(grid @ x - s) <= band)
            assert sampled == (dm <= R)


class TestRHull:
    def test_two_points_equals_lens(self):
        a, b = np.array([-0.6, 0.0]), np.array([0.6, 0.0])
        H = sc.r_hull(np.array([a, b]), 1.0)
        L = sc.lens(a, b, 1.0)
        assert sc.hausdorff_distance(H, L) <= 1e-9

    def test_single_point(self):
        H = sc.r_hull(np.array([[1.0, 2.0]]), 1.0)
        assert H.is_singleton and np.allclose(H.singleton_point, [1, 2])

    def test_no_enclosing_ball(self):
        with pytest.raises(sc.NoEnclosingBallError):
            sc.r_hull(np.array([[-1.0, -1.0], [1.0, 1.0]]), 0.5)

    def test_cocircular_points_give_full_disk(self):
        # all points on one circle of radius R: the kernel collapses to the center
        t = np.linspace(0, 2 * np.pi, 7, endpoint=False)
        pts = np.stack([np.cos(t), np.sin(t)], axis=1)
        H = sc.r_hull(pts, 1.0)
        D = sc.ArcPolygon.full_disk([0, 0], 1.0)
        assert sc.hausdorff_distance(H, D) <= 1e-6

    def test_random_points_match_center_sampling_oracle(self):
        rng = np.random.default_rng(42)
        pts = rng.random((10, 2))
        R = 2.0
        H = sc.r_hull(pts, R)
        centers = sampled_center_oracle(pts, R, 10_000, seed=0)
        # hull boundary must be admissible for the oracle
        for x in H.boundary_samples(256):
            assert oracle_hull_membership(x, centers, R, tol=2e-2)
        # oracle boundary must be close to the hull
        for x in oracle_hull_boundary(centers, R, 360):
            assert H.contains(x, tol=2e-2)

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(3)
        pts = rng.random((8, 2)) * 2.0
        _, r_seb = smallest_enclosing_circle(pts)
        big_r, small_r = 3.0 * r_seb, 1.2 * r_seb
        H_big = sc.r_hull(pts, big_r)
        H_small = sc.r_hull(pts, small_r)
        for v in H_big.vertices():
            assert H_small.contains(v, tol=1e-9)
        for x in H_big.boundary_samples(128):
            assert H_small.contains(x, tol=1e-9)

    def test_monotone_in_points(self):
        rng = np.random.default_rng(4)
        Q = rng.random((12, 2))
        P = Q[:6]
        R = 2.5
        H_P = sc.r_hull(P, R)
        H_Q = sc.r_hull(Q, R)
        for x in H_P.boundary_samples(128):
            assert H_Q.contains(x, tol=1e-9)

    def test_idempotent_on_own_boundary(self):
        rng = np.random.default_rng(6)
        pts = rng.random((9, 2))
        R = 1.8
        H = sc.r_hull(pts, R)
        H2 = sc.r_hull(H.boundary_samples(512), R)
        assert sc.hausdorff_distance(H, H2) <= 1e-6

    def test_hull_points_contained(self):
        rng = np.random.default_rng(8)
        pts = rng.random((7, 2))
        H = sc.r_hull(pts, 1.5)
        for x in pts:
            assert H.contains(x, tol=1e-9)


class TestOffset:
    def test_singleton_offset_is_disk(self):
        D = sc.offset(sc.ArcPolygon.singleton([1.0, -2.0]), 0.75)
        for p in sc.angle_grid(16):
            expect = float(p @ [1.0, -2.0]) + 0.75
            assert D.support_value(p) == pytest.approx(expect, abs=1e-12)

    def test_disk_offset_grows_radius(self):
        D = sc.offset(sc.ArcPolygon.full_disk([0, 0], 2.0), 1.0)
        assert D.support_value([0, 1]) == pytest.approx(3.0, abs=1e-12)

    def test_lens_offset_support_additivity(self):
        L = sc.lens([-0.6, 0], [0.6, 0], 1.0)
        off = sc.offset(L, 1.0)
        assert off.support_value([0, 1]) == pytest.approx(1.2, abs=1e-12)
        # support additivity in every direction
        for p in sc.angle_grid(64):
            expect = L.support_value(p) + 1.0
            assert off.support_value(p) == pytest.approx(expect, abs=1e-12)

    def test_zero_offset_identity(self):
        L = sc.lens([-0.3, 0], [0.3, 0.1], 0.8)
        assert sc.offset(L, 0.0) is L


class TestArcSupport:
    def test_lens_vertex_direction(self):
        L = sc.lens([-0.6, 0], [0.6, 0], 1.0)
        assert L.support_value([1, 0]) == pytest.approx(0.6, abs=1e-12)
        assert np.allclose(L.support_point([1, 0]), [0.6, 0], atol=1e-12)

    def test_support_point_on_arc(self):
        L = sc.lens([-0.6, 0], [0.6, 0], 1.0)
        assert np.allclose(L.support_point([0, -1]), [0, -0.2], atol=1e-12)

    def test_matches_dense_boundary_max(self):
        rng = np.random.default_rng(9)
        centers = rng.uniform(-0.3, 0.3, (3, 2))
        D = sc.disk_intersection(centers, 1.0)
        samples = D.boundary_samples(4000)
        for p in sc.angle_grid(32):
            brute = float(np.max(samples @ p))
            assert D.support_value(p) == pytest.approx(brute, abs=1e-5)


def _half_disk():
    """Upper half of the unit disk: two arcs and a flat side on the x-axis."""
    arcs = [Arc((0.0, 0.0), 1.0, 0.0, math.pi / 2), Arc((0.0, 0.0), 1.0, math.pi / 2, math.pi)]
    return sc.ArcPolygon(arcs + [Seg((-1.0, 0.0), (1.0, 0.0))])


def _arc_polygons(rng):
    """Lenses, R-hulls of random points, their offsets, full disks and a half disk."""
    out = [sc.lens([-0.6, 0], [0.6, 0], 1.0), sc.ArcPolygon.full_disk([0.2, -0.1], 0.7),
           _half_disk(), sc.offset(_half_disk(), 0.3)]
    for _ in range(6):
        a, b = rng.uniform(-1, 1, (2, 2))
        L = sc.lens(a, b, float(np.linalg.norm(b - a)) * rng.uniform(0.55, 3.0))
        H = sc.r_hull(rng.uniform(-1, 1, (int(rng.integers(3, 12)), 2)), rng.uniform(1.6, 4.0))
        out += [L, H, sc.offset(L, rng.uniform(0.1, 1.0)), sc.offset(H, rng.uniform(0.1, 1.0))]
    return out


def _piece_directions(ap):
    """Directions of the outer normals at every piece end, where candidates tie."""
    angles = []
    for piece in ap.pieces:
        if isinstance(piece, Arc):
            angles += [piece.start_angle, piece.end_angle]
        else:
            angles.append(piece.normal_angle)
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


class TestSupportPoints:
    def test_matches_per_row_tie_break(self):
        rng = np.random.default_rng(4)
        for ap in _arc_polygons(rng):
            P = np.vstack([sc.angle_grid(256), 3.0 * rng.standard_normal((100, 2)),
                           _piece_directions(ap)])
            expect = loop_arc_support_points(ap, P)
            got = ap.support_points(P)
            assert np.all(np.abs(got - expect) <= 4e-15 * (1.0 + np.abs(expect)))

    def test_flat_side_tie_goes_to_smallest_x(self):
        got = _half_disk().support_points(np.array([[0.0, -1.0], [0.0, 2.0], [1.0, 0.0]]))
        assert np.allclose(got, [[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_zero_direction_takes_smallest_vertex(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sc.ArcPolygon.full_disk([0.0, 0.0], 1.0).support_points(np.zeros((1, 2)))
        assert np.allclose(got, [[-1.0, 0.0]], atol=1e-15)

    def test_singleton(self):
        pt = sc.ArcPolygon.singleton([0.3, -0.4])
        assert pt.support_points(np.eye(2)).tolist() == [[0.3, -0.4], [0.3, -0.4]]


def _reach(ap):
    """A bound on |x| over the boundary: |c| + r over the arcs, |v| over the vertices."""
    return max([math.hypot(*a.center) + a.radius for a in ap.arcs()]
               + np.hypot(*ap.vertices().T).tolist())


def _assert_reference_support_values(ap, P):
    # The reference takes the largest vertex product and arc value whose
    # range holds the direction; the table reads one row.  Each sums products
    # of size up to |p| reach, and a vertex is the end of one piece there and
    # the start of the next here, which agree to rounding: 8 ulps of |p| (1 + reach).
    bound = 8.0 * np.finfo(float).eps * np.linalg.norm(P, axis=1) * (1.0 + _reach(ap))
    assert np.all(np.abs(ap.support_values(P) - reference_support_values(ap, P)) <= bound)


class TestSupportValues:
    def test_match_the_reference_within_rounding(self):
        rng = np.random.default_rng(102)
        scale = 10.0 ** rng.uniform(-3.0, 3.0, (500, 1))
        P = np.concatenate([sc.default_grid(2, 4096), scale * rng.standard_normal((500, 2))])
        for ap in [sc.lens([-0.6, 0.1], [0.5, -0.2], 1.0)] + _arc_polygons(rng):
            _assert_reference_support_values(ap, np.vstack([P, _piece_directions(ap)]))

    def test_zero_direction_reads_zero(self):
        assert sc.lens([-0.6, 0.1], [0.5, -0.2], 1.0).support_values(np.zeros((2, 2))).tolist() \
            == [0.0, 0.0]


class TestBoundarySamples:
    @pytest.mark.parametrize("n", [64, 512])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_exactly_n_points_on_the_boundary(self, n, seed):
        H = sc.r_hull(np.random.default_rng(seed).random((9, 2)), 1.8)
        S = H.boundary_samples(n)
        assert S.shape == (n, 2)
        scale = float(np.max(np.abs(S)))
        assert max(H.boundary_distance_exact(x) for x in S) <= 1e-12 * scale
        assert np.array_equal(S[0], H.pieces[0].start_point)

    def test_every_piece_starts_a_run_of_samples(self):
        P = sc.ArcPolygon([Seg((0.0, 0.0), (3.0, 0.0)), Seg((3.0, 0.0), (0.0, 4.0)),
                           Seg((0.0, 4.0), (0.0, 0.0))])
        # 9 points beyond the three vertices, by largest remainder of 3:5:4
        S = P.boundary_samples(12)
        assert S.shape == (12, 2)
        assert [tuple(S[i]) for i in (0, 3, 8)] == [(0.0, 0.0), (3.0, 0.0), (0.0, 4.0)]
        assert np.allclose(S[:3, 1], 0.0) and np.allclose(S[8:, 0], 0.0)

    def test_fewer_points_than_pieces_raise(self):
        D = sc.ArcPolygon.full_disk([0.0, 0.0], 1.0)
        assert len(D.boundary_samples(len(D.pieces))) == len(D.pieces)
        with pytest.raises(ValueError):
            D.boundary_samples(len(D.pieces) - 1)


class TestClip:
    def test_clip_disjoint_returns_none(self):
        D = sc.ArcPolygon.full_disk([0, 0], 1.0)
        assert clip_with_disk(D, [5.0, 0.0], 1.0) is None

    def test_clip_superset_returns_same(self):
        D = sc.ArcPolygon.full_disk([0, 0], 1.0)
        out = clip_with_disk(D, [0.1, 0.0], 5.0)
        assert out is D

    def test_clip_contains_small_disk(self):
        big = sc.ArcPolygon.full_disk([0, 0], 10.0)
        out = clip_with_disk(big, [1.0, 1.0], 0.5)
        assert sc.hausdorff_distance(out, sc.ArcPolygon.full_disk([1, 1], 0.5)) <= 1e-9

    def test_clip_that_removes_whole_pieces_cuts(self):
        # boundary samples of an R-hull, started at the leftmost sample: later
        # disks pass through kernel vertices and remove whole pieces
        S = sc.r_hull(np.random.default_rng(6).random((9, 2)), 1.8).boundary_samples(512)
        rng = np.random.default_rng(0)
        orders = [np.roll(S, -int(np.argmin(S[:, 0])), axis=0)]
        orders += [np.roll(S, int(k), axis=0) for k in rng.integers(0, len(S), 2)]
        orders += [rng.permutation(S) for _ in range(2)]
        kernels = []
        for k, C in enumerate([S] + orders):
            # the full-input path clips once per sample: three orders suffice
            full = [full_input_disk_intersection(C, 1.8)] if k in (0, 1, 5) else []
            for K in [sc.disk_intersection(C, 1.8)] + full:
                B = K.boundary_samples(2048)
                dist = np.sqrt(((B[:, None, :] - C[None, :, :]) ** 2).sum(-1)).max(axis=1)
                assert dist.max() <= 1.8 + 1e-12
                kernels.append(K)
        for K in kernels[1:]:
            assert sc.hausdorff_distance(K, kernels[0]) <= 1e-12


class TestHullVertices:
    def test_matches_qhull_on_random_and_rounded_sets(self):
        rng = np.random.default_rng(12)
        for n in (3, 4, 7, 20, 100, 500):
            for _ in range(4):
                pts = rng.uniform(-2.0, 2.0, (n, 2))
                for points in (pts, np.round(pts), np.round(3.0 * pts) / 3.0):
                    if np.linalg.matrix_rank(points - points[0]) < 2:
                        continue
                    assert np.array_equal(_hull_vertices(points), scipy_hull_vertices(points))

    def test_matches_qhull_on_integer_grids(self):
        rng = np.random.default_rng(13)
        for n in (5, 12, 40, 200):
            for _ in range(5):
                points = rng.integers(0, 6, (n, 2)).astype(float)
                if np.linalg.matrix_rank(points - points[0]) < 2:
                    continue
                assert np.array_equal(_hull_vertices(points), scipy_hull_vertices(points))

    def test_exact_duplicates_keep_first_occurrence(self):
        rng = np.random.default_rng(14)
        pts = rng.random((30, 2))
        dup = np.vstack([pts, pts[rng.integers(0, 30, 20)], pts[:5]])
        points = dup[rng.permutation(len(dup))]
        got = _hull_vertices(points)
        assert np.array_equal(got, scipy_hull_vertices(points))
        assert len(np.unique(got, axis=0)) == len(got)

    def test_near_duplicates_reduce_to_qhull_vertices(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            pts = rng.random((25, 2))
            expect = scipy_hull_vertices(pts)
            near = expect + 1e-14 * rng.standard_normal(expect.shape)
            points = np.vstack([pts, near])[rng.permutation(len(pts) + len(near))]
            got = _dedupe(_hull_vertices(points))
            assert len(got) == len(expect)
            gap = np.sqrt(((got[:, None, :] - expect[None, :, :]) ** 2).sum(-1))
            assert gap.min(axis=1).max() <= 1e-12 and gap.min(axis=0).max() <= 1e-12

    def test_points_on_edges_are_dropped(self):
        t = np.linspace(-1.0, 1.0, 9)[1:-1]
        one = np.ones_like(t)
        edges = np.concatenate([np.stack([t, -one], 1), np.stack([one, t], 1),
                                np.stack([t, one], 1), np.stack([-one, t], 1)])
        corners = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
        points = np.vstack([edges[:10], corners[:2], edges[10:], [[0.1, 0.2]], corners[2:]])
        assert np.array_equal(_hull_vertices(points), corners)

    def test_degenerate_sets(self):
        p = np.array([[0.3, -0.7]])
        assert np.array_equal(_hull_vertices(np.repeat(p, 6, axis=0)), p)
        assert np.array_equal(_hull_vertices(p), p)
        two = np.array([[1.0, 2.0], [-1.0, 0.5]])
        assert np.array_equal(_hull_vertices(two), two)
        assert np.array_equal(_hull_vertices(two[::-1]), two[::-1])
        assert np.array_equal(_hull_vertices(np.vstack([two, two])), two)
        line = np.array([[0.5, 0.5], [0.0, 0.0], [2.0, 2.0], [1.0, 1.0], [-1.0, -1.0]])
        assert np.array_equal(_hull_vertices(line), line[[2, 4]])

    def test_input_order_is_kept(self):
        rng = np.random.default_rng(16)
        t = rng.permutation(np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False))
        ring = np.stack([np.cos(t), np.sin(t)], axis=1)
        points = np.vstack([0.5 * rng.uniform(-1, 1, (60, 2)), ring])[rng.permutation(100)]
        on_ring = np.abs(np.linalg.norm(points, axis=1) - 1.0) < 1e-12
        assert np.array_equal(_hull_vertices(points), points[on_ring])


class TestDedupe:
    """_dedupe over hull-cycle neighbours against the greedy loop it replaced."""

    @staticmethod
    def _check(points):
        """Compare with the greedy loop; return the hull vertices, the row of
        each kept one among them, and the near pairs (i < j) of rows."""
        verts = _hull_vertices(points)
        got = _dedupe(verts)
        assert np.array_equal(got, greedy_dedupe(verts))
        rows = [int(np.flatnonzero(np.all(verts == g, axis=1))[0]) for g in got]
        assert rows == sorted(set(rows)), "input order is kept"
        gap = np.hypot(*(verts[:, None, :] - verts[None, :, :]).transpose(2, 0, 1))
        return verts, rows, list(zip(*np.nonzero(np.triu(gap <= 1e-12, k=1))))

    @pytest.mark.parametrize("n", [64, 512])
    @pytest.mark.parametrize("seed", range(4))
    def test_r_hull_boundary_samples(self, n, seed):
        rng = np.random.default_rng(seed)
        S = sc.r_hull(rng.random((9, 2)), 1.8).boundary_samples(n)
        m = len(S)
        _, _, pairs = self._check(S[rng.permutation(m)])
        assert pairs == []
        # isolated near repeats 1e-14 along the boundary, so that both points
        # of most pairs stay hull vertices
        k = rng.choice(m, 8, replace=False)
        t = np.roll(S, -1, axis=0)[k] - np.roll(S, 1, axis=0)[k]
        near = S[k] + 1e-14 * t / np.linalg.norm(t, axis=1)[:, None]
        _, rows, pairs = self._check(np.vstack([S, near])[rng.permutation(m + 8)])
        assert pairs
        for i, j in pairs:
            assert i in rows and j not in rows, "the earlier of a near pair stays"

    def test_cluster_of_three_mutually_near_points(self):
        t = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        ring = np.stack([np.cos(t), np.sin(t)], axis=1)
        # a cap at (0, 1) whose three points are all hull vertices
        cluster = np.array([[0.0, 1.0], [3e-13, 1.0 - 2e-14], [-3e-13, 1.0 - 2e-14]])
        sets = [np.vstack([ring[:3], cluster[1:], ring[4:], cluster[:1]]),
                np.vstack([cluster[::-1], ring[4:], ring[:3]])]
        # turned a quarter (exactly), the cap straddles the angle pi about the mean
        for points in sets + [np.stack([-p[:, 1], p[:, 0]], axis=1) for p in sets]:
            verts, rows, pairs = self._check(points)
            assert len(verts) == 14 and len(rows) == 12 and len(pairs) == 3
            first = min(i for i, _ in pairs)
            assert first in rows and not {j for _, j in pairs} & set(rows)


def _point_set(kind, n):
    """Square, disk and thin-annulus ("circle") samples with an antipodal pair
    on the enclosing circle."""
    rng = np.random.default_rng([("square", "disk", "circle").index(kind), n])
    if kind == "square":
        pts = rng.uniform(-1.0, 1.0, (n, 2))
        pts[:2] = [[-1.0, -1.0], [1.0, 1.0]]
        return pts
    t = rng.uniform(0.0, 2.0 * np.pi, n)
    rad = np.sqrt(rng.uniform(0.0, 1.0, n)) if kind == "disk" else rng.uniform(0.98, 1.0, n)
    pts = np.stack([rad * np.cos(t), rad * np.sin(t)], axis=1)
    pts[:2] = [[1.0, 0.0], [-1.0, 0.0]]
    return pts


def _hull_path_sets():
    """Criterion 6's 50 sets at 1.5x their enclosing radius, and square, disk
    and circle sets at twice it."""
    out = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        pts = rng.random((int(rng.integers(5, 21)), 2))
        out.append((pts, 1.5 * smallest_enclosing_circle(pts)[1]))
    for kind in ("square", "disk", "circle"):
        for n in (20, 60, 200):
            pts = _point_set(kind, n)
            out.append((pts, 2.0 * smallest_enclosing_circle(pts)[1]))
    return out


class TestHullPathAgainstFullInput:
    def test_same_kernels_and_hulls(self):
        grid = sc.angle_grid(4096)
        for pts, R in _hull_path_sets():
            pairs = ((sc.disk_intersection(pts, R), full_input_disk_intersection(pts, R)),
                     (sc.r_hull(pts, R), full_input_r_hull(pts, R)))
            for got, expect in pairs:
                assert len(got.pieces) == len(expect.pieces)
                s = expect.support_values(grid)
                assert np.all(np.abs(got.support_values(grid) - s) <= 1e-12 * (1.0 + np.abs(s)))


def _kernel_vertex_hull(pts, R):
    """The hull as the intersection of the R-disks about the kernel's vertices."""
    return sc.disk_intersection(sc.disk_intersection(pts, R).vertices(), R)


class TestHullReadOffKernel:
    """r_hull reads its arcs off the kernel's vertices and their normal cones."""

    GRID = sc.angle_grid(512)

    def _check(self, pts, R, want):
        H = sc.r_hull(pts, R)
        assert all(isinstance(p, Arc) and p.radius == R for p in H.pieces)
        assert sc.hausdorff_distance(H, want, self.GRID) <= 1e-12
        for x in pts:
            assert H.contains(x)
        return H

    @pytest.mark.parametrize("seed", range(4))
    def test_random_sets_match_the_kernel_vertex_intersection(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            R = rng.uniform(0.8, 3.0)
            pts = rng.uniform(-0.5, 0.5, (rng.integers(3, 60), 2)) * R
            want = _kernel_vertex_hull(pts, R)
            assert len(self._check(pts, R, want).pieces) == len(want.pieces)

    def test_collinear_triple(self):
        pts = np.array([[0.0, 0.0], [0.3, 0.1], [0.6, 0.2]])
        self._check(pts, 1.0, _kernel_vertex_hull(pts, 1.0))

    def test_points_on_a_common_circle(self):
        t = np.array([0.1, 1.3, 2.0, 4.0, 5.5])
        pts = 0.5 * np.stack([np.cos(t), np.sin(t)], axis=1) + [0.2, -0.1]
        self._check(pts, 0.7, _kernel_vertex_hull(pts, 0.7))

    def test_pair_a_billionth_apart_is_their_lens(self):
        # the intersection of the disks about the kernel's two vertices rounds
        # to a single point here, which holds only one of the two points
        pts = np.array([[0.2, 0.1], [0.2 + 1e-9, 0.1]])
        H = self._check(pts, 1.0, sc.lens(pts[0], pts[1], 1.0))
        assert len(H.pieces) == 2


def _pairs(rng, n, gap):
    """n random pairs in [-1, 1]^2, gap apart in random directions."""
    a = rng.uniform(-1.0, 1.0, (n, 2))
    t = rng.uniform(0.0, 2.0 * math.pi, n)
    return a, a + gap * np.stack([np.cos(t), np.sin(t)], axis=1)


class TestNearPairs:
    """R-hulls of two points a rounding apart, whose thin lens corners turn
    by nearly pi and whose kernel arcs lie on circles nearly one."""

    @pytest.mark.parametrize("gap", [1e-9, 1e-8])
    def test_thin_hulls_keep_their_corner_cones(self, gap):
        rng = np.random.default_rng(int(-math.log10(gap)))
        for a, b in zip(*_pairs(rng, 100, gap)):
            H = sc.r_hull([a, b], 1.0)
            assert sc.hausdorff_distance(H, sc.lens(a, b, 1.0)) <= gap
            if H.is_singleton:
                continue
            assert H._normal_cones()[-1].sum() == pytest.approx(2.0 * math.pi, abs=1e-12)
            n = np.array([-(b - a)[1], (b - a)[0]]) / gap
            for x in (a + n, a - n, 2.0 * a - b - 0.5 * n):
                assert not H.contains(x)
            sc.offset(H, 0.5)

    def test_arcs_of_nearby_circles_stay_apart(self):
        pts = np.array([[-0.966944728943, 0.626540478401], [-0.966944720408, 0.626540473189]])
        rng = np.random.default_rng(8)
        for a, b in [pts] + list(zip(*_pairs(rng, 100, 1e-8))):
            H = sc.r_hull([a, b], 100.0)
            assert sc.hausdorff_distance(H, sc.lens(a, b, 100.0)) <= 1e-8

    @pytest.mark.parametrize("R", [1.0, 100.0])
    def test_collapsed_pairs_are_points_within_their_gap(self, R):
        rng = np.random.default_rng(int(R))
        assert sc.r_hull([[0.3, -0.2], [0.3 + 1e-10, -0.2]], 1.0).is_singleton
        for gap in np.geomspace(2e-12, 1e-6, 25):
            for t in (0.3, 1.9, 3.5, 5.1):
                a = rng.uniform(-1.0, 1.0, 2)
                b = a + gap * np.array([math.cos(t), math.sin(t)])
                H = sc.r_hull([a, b], R)
                assert sc.hausdorff_distance(H, sc.lens(a, b, R)) <= gap


class TestKernelBand:
    def test_enclosing_radius_within_1e9_gives_the_enclosing_centre(self):
        # the diameter pair sets the enclosing circle: centre (0.2, 0.1), radius 1
        pts = np.array([[-0.8, 0.1], [0.3, 0.5], [1.2, 0.1], [0.2, -0.6]])
        c_seb, r_seb = smallest_enclosing_circle(pts)
        assert np.allclose(c_seb, [0.2, 0.1], atol=1e-15) and r_seb == pytest.approx(1.0)
        for R in r_seb - np.array([1e-12, 1e-10, 9e-10]):
            K = sc.disk_intersection(pts, R)
            assert K.is_singleton and np.array_equal(K.singleton_point, c_seb)
            assert sc.r_hull(pts, R)._key() == sc.ArcPolygon.full_disk(c_seb, R)._key()
        assert sc.disk_intersection(pts, r_seb - 2e-9) is None
        with pytest.raises(sc.NoEnclosingBallError):
            sc.r_hull(pts, r_seb - 2e-9)


class TestRadiusDomain:
    @pytest.mark.parametrize("R", [0.0, -1.0, math.nan, math.inf])
    def test_constructions_reject_the_radius(self, R):
        pts = np.array([[0.0, 0.0], [0.5, 0.2], [0.1, 0.6]])
        for build in (lambda: sc.lens(pts[0], pts[1], R), lambda: sc.disk_intersection(pts, R),
                      lambda: sc.r_hull(pts, R)):
            with pytest.raises(ValueError):
                build()

    @pytest.mark.parametrize("r", [-0.5, math.nan, math.inf])
    def test_offset_rejects_the_distance(self, r):
        with pytest.raises(ValueError):
            sc.offset(sc.lens([-0.6, 0], [0.6, 0], 1.0), r)


class TestPointDomain:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_constructions_reject_non_finite_points(self, bad):
        pts = np.array([[0.0, 0.0], [0.5, 0.2], [0.1, 0.6], [0.3, 0.3]])
        for row, col in ((0, 0), (3, 1)):
            bent = pts.copy()
            bent[row, col] = bad
            for build in (sc.disk_intersection, sc.r_hull):
                with pytest.raises(ValueError, match="non-finite"):
                    build(bent, 2.0)


class TestHausdorff:
    def test_three_dimensional_balls_are_their_centres_apart(self):
        a = sc.Ball([0.0, 0.0, 0.0], 1.5)
        b = sc.Ball([0.3, -0.4, 1.2], 1.5)
        assert sc.hausdorff_distance(a, b) == pytest.approx(1.3, abs=1e-3)
        assert sc.hausdorff_distance(a, b) <= 1.3 + 1e-12

    def test_dimensions_must_agree(self):
        with pytest.raises(ValueError):
            sc.hausdorff_distance(sc.Ball([0.0, 0.0], 1.0), sc.Ball([0.0, 0.0, 0.0], 1.0))


def _mixed_body():
    """A rectangle whose top side is an arc, meeting the vertical sides at corners."""
    return sc.ArcPolygon([Seg((-1.0, -1.0), (1.0, -1.0)), Seg((1.0, -1.0), (1.0, 0.0)),
                          Arc((0.0, -1.0), math.sqrt(2.0), math.pi / 4, 3 * math.pi / 4),
                          Seg((-1.0, 0.0), (-1.0, -1.0))])


def _normal_cone_bodies():
    """Criterion 6's hulls at 1.1 and 1.5 r_seb and their kernels, lenses, a
    full disk, a half disk, an all-segment triangle, a mixed arc/segment body,
    and an offset of each."""
    bodies = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        pts = rng.random((int(rng.integers(5, 21)), 2))
        r_seb = smallest_enclosing_circle(pts)[1]
        for R in (1.1 * r_seb, 1.5 * r_seb):
            bodies += [sc.r_hull(pts, R), sc.disk_intersection(pts, R)]
    rng = np.random.default_rng(100)
    bodies.append(sc.lens([-0.6, 0], [0.6, 0], 1.0))
    for _ in range(5):
        a, b = rng.uniform(-1, 1, (2, 2))
        bodies.append(sc.lens(a, b, float(np.linalg.norm(b - a)) * rng.uniform(0.55, 3.0)))
    triangle = sc.ArcPolygon([Seg((0.0, 0.0), (2.0, 0.3)), Seg((2.0, 0.3), (0.7, 1.6)),
                              Seg((0.7, 1.6), (0.0, 0.0))])
    bodies += [sc.ArcPolygon.full_disk([0.2, -0.1], 0.7), _half_disk(), triangle, _mixed_body()]
    return bodies + [sc.offset(b, float(rng.uniform(0.05, 1.0))) for b in bodies]


@pytest.fixture(scope="module")
def cone_cases():
    """Each body with its boundary_samples(100) and 20 random points of its
    bounding box grown by a tenth on every side."""
    rng = np.random.default_rng(17)
    cases = []
    for body in _normal_cone_bodies():
        B = body.boundary_samples(100)
        lo, hi = B.min(axis=0), B.max(axis=0)
        lo, hi = lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo)
        cases.append((body, np.vstack([B, lo + (hi - lo) * rng.random((20, 2))])))
    return cases


class TestNormalConeTable:
    TOLS = (0.0, 1e-9, 2e-2)

    def test_contains_matches_the_ray_cast(self, cone_cases):
        assert len(cone_cases) == 420
        for body, X in cone_cases:
            got = np.array([[body.contains(x, tol) for x in X] for tol in self.TOLS])
            assert np.array_equal(got, ray_cast_contains(body, X, self.TOLS))

    def test_boundary_distance_matches_the_per_piece_distance(self, cone_cases):
        for body, X in cone_cases:
            expect = piecewise_boundary_distance(body, X)
            got = np.array([body.boundary_distance_exact(x) for x in X])
            assert np.all(np.abs(got - expect) <= 1e-13 * (1.0 + expect))

    def test_offset_matches_the_per_vertex_caps(self, cone_cases):
        for body, _ in cone_cases:
            for r in (0.05, 0.7):
                assert sc.offset(body, r)._key() == loop_offset(body, r)._key()

    def test_spans_make_one_counter_clockwise_turn(self, cone_cases):
        for body, _ in cone_cases:
            assert abs(body._normal_cones()[-1].sum() - 2.0 * math.pi) <= 1e-12

    def test_support_values_match_the_reference(self, cone_cases):
        P = np.vstack([sc.angle_grid(256),
                       3.0 * np.random.default_rng(18).standard_normal((64, 2))])
        for body, _ in cone_cases:
            _assert_reference_support_values(body, np.vstack([P, _piece_directions(body)]))

    def test_support_points_match_the_per_row_tie_break(self, cone_cases):
        for body, _ in cone_cases:
            P = np.vstack([sc.angle_grid(32), _piece_directions(body)])
            expect = loop_arc_support_points(body, P)
            got = body.support_points(P)
            assert np.all(np.abs(got - expect) <= 4e-15 * (1.0 + np.abs(expect)))

    def test_clockwise_or_reflex_boundaries_raise(self):
        L = sc.lens([-0.6, 0.0], [0.6, 0.0], 1.0)
        clockwise = sc.ArcPolygon([Arc(p.center, p.radius, p.end_angle, p.start_angle)
                                   for p in L.pieces[::-1]])
        corners = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (1.0, 0.5), (0.0, 2.0)]
        dart = sc.ArcPolygon([Seg(p, q) for p, q in zip(corners, corners[1:] + corners[:1])])
        queries = (lambda body: body.support_values(np.eye(2)),
                   lambda body: body.support_points(np.eye(2)),
                   lambda body: body.contains([0.5, 0.5]), lambda body: sc.offset(body, 0.1))
        for body in (clockwise, dart):
            for query in queries:
                with pytest.raises(sc.GeometryError, match="counter-clockwise"):
                    query(body)

    def test_singleton_distance_is_the_point_distance(self):
        pt = sc.ArcPolygon.singleton([0.3, -0.4])
        assert pt.boundary_distance_exact([0.6, 0.0]) == pytest.approx(0.5, abs=1e-15)
        assert pt.contains([0.3, -0.4]) and not pt.contains([0.3, -0.4 + 1e-9])


class TestSmallestEnclosingCircle:
    def test_two_points(self):
        c, r = smallest_enclosing_circle(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert np.allclose(c, [1, 0]) and r == pytest.approx(1.0, abs=1e-12)

    def test_random_sets_valid_and_tight(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            pts = rng.standard_normal((rng.integers(1, 40), 2))
            c, r = smallest_enclosing_circle(pts)
            d = np.linalg.norm(pts - c, axis=1)
            assert d.max() <= r * (1 + 1e-9) + 1e-12
            # minimality: some point is (nearly) on the circle
            assert d.max() >= r - 1e-9
