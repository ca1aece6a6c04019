"""The pruned chord search and depth kernel against the dense all-pairs oracles.

The kernels skip blocks of points that cannot change the answer, so they must
return what the full scans in tests/oracles.py return: the same crossings, in
the same order, and the same per-point minima and radial extents up to
rounding.
"""
import math
import tracemalloc

import numpy as np
import pytest

import strconvex as sc
from strconvex.bodies import steiner_point
from strconvex.modulus import (
    BoundaryParam,
    _chord_crossings,
    _chords_of_length,
    _min_gaps,
    _companions,
    _radial_extents,
    _section_planes,
)
from oracles import (
    bisect_companions,
    dense_chord_crossings,
    dense_chords_of_length,
    dense_min_gaps,
    dense_radial_extents,
)

RESOLUTIONS = (16, 17, 33, 257, 1000, 2047, 4096)
EPS_FRACTIONS = (0.05, 0.2, 0.5, 0.9)


def _bodies():
    rng = np.random.default_rng(7)
    return {
        "ball": sc.Ball([0.3, -0.2], 1.2),
        "ellipse_6to1": sc.Ellipsoid([0.1, 0.5], [3.0, 0.5]),
        "lens": sc.lens([-0.6, 0.1], [0.6, 0.3], 1.0),
        "point_hull": sc.PointHull(rng.uniform(-1.0, 1.0, (12, 2))),
        "ellipse_plus_ball": sc.MinkowskiSum([sc.Ellipsoid([0.0, 0.0], [2.0, 1.0]),
                                              sc.Ball([0.4, 0.2], 0.5)]),
        "disk_intersection": sc.disk_intersection(rng.uniform(-0.3, 0.3, (3, 2)), 1.0),
    }


BODIES = _bodies()


def _shuffled_interior(param, count, seed):
    """Points strewn inside the body in random order, so blocks are not local."""
    rng = np.random.default_rng(seed)
    pick = rng.integers(0, param.n, count)
    shrink = rng.uniform(0.0, 1.0, (count, 1))
    return param.origin + shrink * (param.points[pick] - param.origin)


@pytest.mark.parametrize("name", sorted(BODIES))
def test_kernels_match_dense_oracle(name):
    body = BODIES[name]
    for n in RESOLUTIONS:
        param = BoundaryParam(body, n)
        tol = 1e-14 * (1.0 + param.diameter)
        for frac in EPS_FRACTIONS:
            eps = frac * param.diameter
            where = f"{name} n={n} eps={frac}*diam"
            anchors, segs = _chord_crossings(param.points, eps)
            want_anchors, want_segs = dense_chord_crossings(param.points, eps)
            assert np.array_equal(anchors, want_anchors), where
            assert np.array_equal(segs, want_segs), where

            # where bisection found the chord the closed form finds the same
            # point; only crossings without a float64 root are dropped
            comps = _companions(param.points, anchors, segs, eps)
            rooted = ~np.isnan(comps[:, 0])
            bisected = bisect_companions(param.points, anchors, segs, eps)
            good = np.abs(np.linalg.norm(param.points[anchors] - bisected, axis=1) - eps) <= tol
            assert np.all(rooted[good]), where
            assert np.max(np.abs(comps[good] - bisected[good]), initial=0.0) <= tol, where
            found = _chords_of_length(param.points, eps)
            if found is None:
                assert not np.any(rooted), where
                continue
            a_pts, comps = found
            assert np.array_equal(a_pts, param.points[anchors[rooted]]), where
            lengths = np.linalg.norm(a_pts - comps, axis=1)
            assert np.max(np.abs(lengths - eps)) <= 1e-12 * (1.0 + param.diameter), where

            queries = np.concatenate([0.5 * (a_pts + comps),
                                      _shuffled_interior(param, 200, n)])
            got = param.inscribed_radii(queries)
            want = dense_min_gaps(queries, param.grid, param.support)
            assert got.shape == want.shape, where
            assert np.all(np.isfinite(got)), where
            assert np.max(np.abs(got - want)) <= tol, where


def test_three_dimensional_sections_match_dense_oracle():
    body = sc.Ellipsoid([0.0, 0.0, 0.0], [2.0, 1.5, 1.0])
    grid = sc.default_grid(3)
    support = body.support_values(grid)
    rng = np.random.default_rng(3)
    for _ in range(2):
        u, v = np.linalg.qr(rng.standard_normal((3, 2)))[0].T
        t = np.linspace(0.0, 2.0 * np.pi, 300, endpoint=False)
        rays = np.outer(np.cos(t), u) + np.outer(np.sin(t), v)
        points = body.support_points(rays)
        for eps in (0.3, 1.5):
            anchors, segs = _chord_crossings(points, eps)
            want_anchors, want_segs = dense_chord_crossings(points, eps)
            assert np.array_equal(anchors, want_anchors)
            assert np.array_equal(segs, want_segs)
            a_pts, comps = _chords_of_length(points, eps)
            mids = 0.5 * (a_pts + comps)
            got = _min_gaps(mids, grid, support)
            want = dense_min_gaps(mids, grid, support)
            assert np.max(np.abs(got - want)) <= 1e-14 * (1.0 + 4.0)  # diameter 4


def _assert_radial_matches_dense(got, grid, numer, rays, where):
    want = dense_radial_extents(grid, numer, rays)
    assert got.shape == want.shape, where
    assert np.all(want > 0.0), where
    assert np.max(np.abs(got - want) / want) <= 1e-14, where


THIN_TRIANGLE = sc.PointHull([[0.0, 0.0], [10.0, 0.0], [0.0, 0.3]])


@pytest.mark.parametrize("name", sorted(BODIES) + ["thin_triangle"])
def test_planar_radial_extents_match_dense_oracle(name):
    body = THIN_TRIANGLE if name == "thin_triangle" else BODIES[name]
    for n in RESOLUTIONS:
        param = BoundaryParam(body, n)
        numer = param.support - param.grid @ param.origin
        if name == "thin_triangle":
            # numerators reach from about 0.075 to 5.2, so the scaled
            # directions are far from unit length
            assert numer.max() > 10.0 * numer.min()
        _assert_radial_matches_dense(param.radial, param.grid, numer, param.grid,
                                     f"{name} n={n}")


SOLIDS = {
    "ellipsoid": sc.Ellipsoid([0.2, -0.1, 0.3], [2.0, 1.5, 1.0]),
    "ball": sc.Ball([-0.3, 0.4, 0.1], 1.2),
    "ellipsoid_plus_ball": sc.MinkowskiSum([sc.Ellipsoid([0.0, 0.0, 0.0], [2.0, 1.5, 1.0]),
                                            sc.Ball([0.1, 0.2, -0.2], 0.5)]),
}


def _section_rays(u, v, count):
    t = np.arange(count) * (2.0 * np.pi / count)
    return np.outer(np.cos(t), u) + np.outer(np.sin(t), v)


@pytest.mark.parametrize("name", sorted(SOLIDS))
def test_section_radial_extents_match_dense_oracle(name):
    body = SOLIDS[name]
    grid = sc.default_grid(3)
    origin = steiner_point(body)
    numer = body.support_values(grid) - grid @ origin
    for u, v in _section_planes(body, grid, origin, 8, 0):
        for count in (256, 512):
            rays = _section_rays(u, v, count)
            _assert_radial_matches_dense(_radial_extents(grid, numer, rays), grid, numer, rays,
                                         f"{name} rays={count}")


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_memory_stays_below_dense_code():
    param = BoundaryParam(BODIES["ellipse_6to1"], 4096)
    eps = 0.2 * param.diameter
    a_pts, comps = _chords_of_length(param.points, eps)
    mids = 0.5 * (a_pts + comps)
    chord_peak = _peak_bytes(_chords_of_length, param.points, eps)
    dense_chord_peak = _peak_bytes(dense_chords_of_length, param.points, eps)
    assert chord_peak <= min(dense_chord_peak, 19e6), (chord_peak, dense_chord_peak)
    depth_peak = _peak_bytes(param.inscribed_radii, mids)
    dense_depth_peak = _peak_bytes(dense_min_gaps, mids, param.grid, param.support)
    assert depth_peak <= min(dense_depth_peak, 25e6), (depth_peak, dense_depth_peak)


def test_radial_memory_stays_below_dense_code():
    body = SOLIDS["ellipsoid"]
    grid = sc.default_grid(3)
    numer = body.support_values(grid) - grid @ steiner_point(body)
    u, v = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 2)))[0].T
    rays = _section_rays(u, v, 512)
    peak = _peak_bytes(_radial_extents, grid, numer, rays)
    dense_peak = _peak_bytes(dense_radial_extents, grid, numer, rays)
    assert peak <= min(dense_peak, 25e6), (peak, dense_peak)


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@pytest.mark.parametrize("body, eps", [
    # a 2:1 ellipse where bisection ran to a segment end: chord 0.7754 at eps 0.7701
    (sc.Ellipsoid([-0.7319166055056705, -0.19377402710574154],
                  [2.450463696325935, 1.2252318481629676], _rotation(0.6391734894425349)),
     0.7701457331310082),
    # a lens where it did the same: chord 0.2281 at eps 0.2277
    (sc.lens([-0.4500612641879239, 0.31486602975118516],
             [0.5312130734241027, 0.4865916408216384], 1.0914242107247178),
     0.22769993892971668),
], ids=["ellipse_2to1", "lens"])
def test_every_chord_has_the_requested_length(body, eps):
    param = BoundaryParam(body, 2048)
    a_pts, comps = _chords_of_length(param.points, eps)
    err = np.abs(np.linalg.norm(a_pts - comps, axis=1) - eps)
    assert np.max(err) <= 1e-12 * (1.0 + param.diameter)
