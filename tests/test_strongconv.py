import gc
import math
import weakref

import numpy as np
import pytest

import strconvex as sc
from strconvex import strongconv
from strconvex.bodies import grid_angle_error
from strconvex.modulus import BoundaryParam
from strconvex.strongconv import GapFunction, _tangent_bases

import oracles
from oracles import (
    LpDisc,
    bisect_min_radius,
    ellipsoid_min_radius,
    lp_disc_min_radius,
    sampled_local_lens_check,
    stacked_planar_direction_pairs,
    support_polygon,
)


def _rotation_2d(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _rotated_cube():
    c, s = math.cos(0.7), math.sin(0.7)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    c, s = math.cos(0.4), math.sin(0.4)
    rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    corners = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], float)
    return sc.PointHull(corners @ (rz @ rx).T)


FLAT_BODIES = {
    "square": sc.PointHull([[-1, -1], [1, -1], [1, 1], [-1, 1]]),
    "triangle": sc.PointHull([[0, 0], [1, 0], [0.3, 0.8]]),
    "ball_plus_segment": sc.MinkowskiSum([sc.Ball([0, 0], 1.0),
                                          sc.PointHull([[-0.7, 0.2], [0.7, -0.2]])]),
    "rotated_cube": _rotated_cube(),
}


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

    def test_infinite_radius_rejected(self):
        # at R = inf every violation would be inf - inf = NaN, which refutes nothing
        sq = sc.PointHull([[-1, -1], [1, -1], [1, 1], [-1, 1]])
        with pytest.raises(ValueError):
            sc.check_strong_convexity(sq, float("inf"))


BRACKET_BODIES = {
    "unit_ball": sc.Ball([0, 0], 1.0),
    "ellipse_rotated": sc.Ellipsoid([0.3, -0.2], [2, 1], [[np.cos(0.7), -np.sin(0.7)],
                                                          [np.sin(0.7), np.cos(0.7)]]),
    "lens": sc.lens([-0.6, 0], [0.6, 0], 1.0),
    "ellipse_plus_ball": sc.MinkowskiSum([sc.Ellipsoid([0, 0], [1.5, 1]),
                                          sc.Ball([0.2, 0.1], 0.5)]),
    "ball_3d": sc.Ball([0.1, -0.2, 0.3], 1.2),
    "ellipsoid_3d": sc.Ellipsoid([0, 0, 0], [2, 1.5, 1]),
}


class TestMinStrongRadius:
    def test_unit_disk(self):
        r, (lo, hi) = sc.min_strong_radius(sc.Ball([0, 0], 1.0))
        assert r == pytest.approx(1.0, rel=0.005)
        assert hi - lo <= 0.005 * hi

    def test_ellipse(self):
        r, _ = sc.min_strong_radius(sc.Ellipsoid([0, 0], [2, 1]))
        assert r == pytest.approx(4.0, rel=0.02)

    def test_lens_boundary_arc_radius(self):
        L = sc.lens([-0.6, 0], [0.6, 0], 1.0)
        r, _ = sc.min_strong_radius(L)
        assert r == pytest.approx(1.0, rel=0.01)

    def test_square_rejected(self):
        sq = sc.PointHull([[-1, -1], [1, -1], [1, 1], [-1, 1]])
        with pytest.raises(sc.NotUniformlyConvexError):
            sc.min_strong_radius(sq)

    @pytest.mark.xfail(strict=True, reason="FOUND in CHANGES.md: R_min changes under "
                       "translation in d = 2 and 3; b rounds at about u |c|")
    def test_translation_leaves_the_minimal_radius(self):
        # a translation leaves R_min; measured 1.0539e-6 and 1.2755e-3 away
        # from the origin, 1.0000e-6 and 1.0000e-3 at it
        got, want = [], []
        for center, r in (([1e3, 0.0, 0.0], 1e-6), ([1e6, 0.0], 1e-3)):
            got.append(sc.min_strong_radius(sc.Ball(center, r))[0])
            want.append(pytest.approx(sc.min_strong_radius(sc.Ball(np.zeros(len(center)), r))[0],
                                      rel=1e-3))
        assert got == want

    @pytest.mark.parametrize("name", list(BRACKET_BODIES))
    def test_bracket_is_certified_and_inside_the_bisection_bracket(self, name):
        # both ends of the bracket are certified by the check itself
        body = BRACKET_BODIES[name]
        r, (lo, hi) = sc.min_strong_radius(body)
        assert lo < hi == r
        assert sc.check_strong_convexity(body, hi).is_convex
        assert not sc.check_strong_convexity(body, lo).is_convex
        ref_lo, ref_hi = bisect_min_radius(body, tol=0.005)
        assert ref_lo < r <= ref_hi


# the bodies of the radius_mixed benchmark at seed 1, with the repr of
# min_strong_radius on each, or its error
BENCHMARK_RADII = [
    ("ball", sc.Ball([-0.39361034141671003, -0.09300422103869699], 1.1582751372901798),
     "(1.1582750977441953, (1.1582750977441951, 1.1582750977441953))"),
    ("ellipse_2to1",
     sc.Ellipsoid([-0.7319166055056705, -0.19377402710574154],
                  [2.450463696325935, 1.2252318481629676], _rotation_2d(0.6391734894425349)),
     "(4.899723121960455, (4.899723121960454, 4.899723121960455))"),
    ("ellipse_3to1",
     sc.Ellipsoid([-0.6786959824497463, 0.9398508264322651],
                  [1.7768912040453708, 0.5922970680151236], _rotation_2d(1.6212772771056914)),
     "(5.32836084598815, (5.328360845988149, 5.32836084598815))"),
    ("ellipse_4to1",
     sc.Ellipsoid([0.24697951107500082, 0.553366228684596],
                  [1.6158656124707704, 0.4039664031176926], _rotation_2d(1.9258066672145242)),
     "(6.459113705538466, (6.459113705538465, 6.459113705538466))"),
    ("ellipse_6to1",
     sc.Ellipsoid([-0.9208142466715943, 0.057178526520043294],
                  [2.4172977047909026, 0.40288295079848374], _rotation_2d(1.4430462352029658)),
     "(14.491290976141467, (14.491290976141466, 14.491290976141467))"),
    ("ellipse_plus_ball",
     sc.MinkowskiSum([
         sc.Ellipsoid([-0.029618051136729884, 0.9614743996024773],
                      [2.4486494471372438, 1.2243247235686219], _rotation_2d(3.0211351748859294)),
         sc.Ball([0.4495798815470673, 0.08245371109486843], 0.3935494356031456)]),
     "(5.289591710756826, (5.2895917107568255, 5.289591710756826))"),
    ("lens",
     sc.lens([0.09918737534611899, -0.9448817735138633],
             [0.45287427835005684, 0.26118202094591636], 0.9693305795890302),
     "(0.969330452247402, (0.9693304522474019, 0.969330452247402))"),
    ("ball_plus_segment",
     sc.MinkowskiSum([
         sc.Ball([0.7052656769613135, 0.18588203620856802], 0.9040389790948893),
         sc.PointHull(0.5311747895749378 * np.array([[-1.0, 0.0], [1.0, 0.0]])
                      @ _rotation_2d(2.0147918647084526).T)]),
     "NotUniformlyConvexError: pair thresholds double per halving of the gap "
     "(growth 0.974 >= 0.85); body is not uniformly convex"),
    ("square",
     sc.PointHull(1.3274591760723646 * np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
                  @ _rotation_2d(1.6906270793881555).T
                  + [-0.34053656700181567, 0.5768574068568086]),
     "NotUniformlyConvexError: pair thresholds double per halving of the gap "
     "(growth 0.987 >= 0.85); body is not uniformly convex"),
    ("ball_3d",
     sc.Ball([0.01899176304301875, 0.021777768933066044, 0.5060604154043558],
             1.3879170647219863),
     "(1.3879170173355362, (1.387917017335536, 1.3879170173355362))"),
    ("ellipsoid_3d",
     sc.Ellipsoid([-0.7041559284300869, 0.639253438238554, 0.3665738120065143],
                  [2.0, 1.5, 1.0]),
     "(3.998961355599875, (3.9989613555998744, 3.998961355599875))"),
]


@pytest.mark.parametrize("body, want", [case[1:] for case in BENCHMARK_RADII],
                         ids=[case[0] for case in BENCHMARK_RADII])
def test_benchmark_minimal_radii_are_pinned(body, want):
    got = _attempt(sc.min_strong_radius, body)
    assert (repr(got) if isinstance(got, tuple) else f"{type(got).__name__}: {got}") == want


class TestGrowthGate:
    """The minimal radius reads the growth of the per-scale maxima of the pair
    table: settled (second order) gives R_min, doubling (flat) is rejected,
    anything between is undecided."""

    @pytest.mark.parametrize("aspect", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_ellipse_reaches_closed_form(self, aspect, theta):
        axes = [1.7, 1.7 / aspect]
        body = sc.Ellipsoid([0.3, -0.2], axes, _rotation_2d(theta))
        r, _ = sc.min_strong_radius(body)
        assert r == pytest.approx(ellipsoid_min_radius(axes), rel=0.01)
        assert r <= ellipsoid_min_radius(axes)

    @pytest.mark.parametrize("body, want, seed, rel", [
        pytest.param(sc.Ellipsoid([0.0, 0.0, 0.0], [2.0, 1.5, 1.0]),
                     ellipsoid_min_radius([2.0, 1.5, 1.0]), seed, 0.01,
                     id="ellipsoid_3d" + (f"_seed{seed}" if seed else ""))
        for seed in range(12)
    ] + [
        pytest.param(sc.Ball(np.zeros(dim), 1.0), 1.0, 0, 1e-6, id=f"ball_{dim}d")
        for dim in (4, 8, 16, 24, 33, 40)
    ])
    def test_solid_reaches_closed_form(self, body, want, seed, rel):
        r, _ = sc.min_strong_radius(body, seed=seed)
        assert r == pytest.approx(want, rel=rel)

    def test_ellipsoid_check_below_closed_form_has_witness(self):
        body = sc.Ellipsoid([0, 0, 0], [2.0, 1.5, 1.0])
        v = sc.check_strong_convexity(body, 0.97 * 4.0)
        assert not v.is_convex
        p1, p2, violation = v.witness
        replay = GapFunction(body, 0.97 * 4.0)
        assert (replay.value(0.5 * (p1 + p2))
                - 0.5 * (replay.value(p1) + replay.value(p2))) == pytest.approx(violation,
                                                                                rel=1e-6)

    @pytest.mark.parametrize("body", list(FLAT_BODIES.values()), ids=list(FLAT_BODIES))
    def test_flat_bodies_rejected(self, body):
        with pytest.raises(sc.NotUniformlyConvexError):
            sc.min_strong_radius(body)

    @pytest.mark.parametrize("body, errors", [
        (FLAT_BODIES["square"], sc.NotUniformlyConvexError),
        (sc.PointHull([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)]),
         sc.NotUniformlyConvexError),
        # the growth of the rotated cube reads 0.78, undecided, at 500 pairs and
        # seed 0 and at 8000 and seed 1; the rounding test still finds curvature
        (_rotated_cube(), (sc.NotUniformlyConvexError, sc.NotStronglyConvexError)),
    ], ids=["square", "cube", "rotated_cube"])
    def test_flat_verdict_does_not_depend_on_the_pair_count_or_seed(self, body, errors):
        # with 10-20 bases per scale no base pair straddles a corner; the
        # cascade pairs do, and the rounding test reads them too
        for n_pairs in (100, 200, 500, 1000, 2000, 4096, 8000):
            for seed in range(3):
                with pytest.raises(errors):
                    sc.min_strong_radius(body, n_pairs=n_pairs, seed=seed)

    @pytest.mark.parametrize("point", [[0.3, 0.2], [0.3, 0.2, 0.1], [0.0, 0.0]])
    def test_point_has_no_curvature_to_measure(self, point):
        # its thresholds are rounding noise (or exactly 0 at the origin)
        with pytest.raises(sc.OutOfDomainError):
            sc.min_strong_radius(sc.PointHull([point]))

    @pytest.mark.parametrize("body", [
        sc.PointHull([[1.0, -2.0, 0.5]]),
        sc.PointHull([[0.3, 0.2, 0.1]]),
        sc.PointHull([[0.3, 0.2, 0.1, 0.4]]),
        sc.Ball([1.0, 0.0, 0.0], 1e-12),
        sc.Ball([1e3, 0.0, 0.0], 1e-8),
    ], ids=["point_3d", "point_3d_small", "point_4d", "tiny_ball", "far_small_ball"])
    def test_unmeasurable_curvature_does_not_depend_on_the_seed(self, body):
        # b at the fine scales is rounding, so the growth alone would read
        # anything by chance
        for seed in range(16):
            with pytest.raises(sc.OutOfDomainError):
                sc.min_strong_radius(body, seed=seed)

    def test_high_dimensional_table_memory_is_bounded(self):
        # the Hessian stencil of 1 + 2 (d - 1)^2 points per base is evaluated
        # in chunks of bases
        import tracemalloc

        body = sc.Ellipsoid(np.zeros(24), np.linspace(3.0, 1.0, 24))
        tracemalloc.start()
        try:
            sc.min_strong_radius(body)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("p", [1.5, 1.8])
    def test_lp_disc_below_two_reaches_closed_form(self, p):
        r, _ = sc.min_strong_radius(LpDisc(p, 1.3))
        assert r == pytest.approx(lp_disc_min_radius(p, 1.3), rel=0.01)

    @pytest.mark.parametrize("p", [3, 4])
    def test_lp_disc_above_two_is_undecided(self, p):
        # the modulus has order p: thresholds grow by 2^((p-2)/(p-1)) per halving
        with pytest.raises(sc.NotStronglyConvexError, match="alpha") as info:
            sc.min_strong_radius(LpDisc(p))
        alpha = float(info.value.args[0].split("alpha = ")[1].split(";")[0])
        assert alpha == pytest.approx(p, rel=0.05)

    def test_tangent_bases_are_orthonormal_and_tangent(self):
        P = sc.sphere_grid(64, 4, seed=0)
        P = np.concatenate([P, np.eye(4), -np.eye(4)])
        E = _tangent_bases(P)
        assert E.shape == (len(P), 3, 4)
        gram = np.einsum("nid,njd->nij", E, E)
        assert np.allclose(gram, np.eye(3), atol=1e-14)
        assert np.max(np.abs(np.einsum("nid,nd->ni", E, P))) <= 1e-14


GATE_BODIES = {
    **FLAT_BODIES,
    "lp3": LpDisc(3),
    "lp4": LpDisc(4),
    "point": sc.PointHull([[0.3, -0.4]]),
    "disc": sc.Ball([0.2, 0.1], 1.0),
    "ellipse_2to1": sc.Ellipsoid([0, 0], [2, 1]),
    "lens": sc.lens([-0.6, 0], [0.6, 0], 1.0),
    "ellipsoid_3d": sc.Ellipsoid([0, 0, 0], [2, 1.5, 1]),
    # R_min is mostly rounding: 1e-8 R_min lies below a point's rounding floor
    "small_far_ball": sc.Ball([1e3, 0, 0], 1e-6),
}


def _attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except sc.StrConvexError as exc:
        return exc


class TestOneGate:
    """check_strong_convexity and complement_body read the gate that
    min_strong_radius reads."""

    @pytest.mark.parametrize("n_pairs", [1000, 2000, 4096])
    @pytest.mark.parametrize("name", list(GATE_BODIES))
    def test_check_and_complement_agree_with_the_minimal_radius(self, name, n_pairs):
        body = GATE_BODIES[name]
        decided = _attempt(sc.min_strong_radius, body, n_pairs=n_pairs)
        largest = float(np.max(strongconv._pair_table(body, n_pairs, 0)[4]))
        radii = [10.0, 100.0, 1e3, 1e4, 1e6]
        if isinstance(decided, sc.OutOfDomainError):
            # a point's thresholds are rounding (below about 1e-10); the
            # fixed radii all lie above them
            assert largest < 1e-9
        else:
            radii += [0.5 * largest, float(np.nextafter(largest, 0.0)), largest,
                      2.0 * largest]
        smax = strongconv._pair_table(body, n_pairs, 0)[6]
        floor_dominates = (isinstance(decided, tuple) and strongconv._REL_TOL * decided[0]
                           < strongconv._point_noise(smax, body.dim))
        assert floor_dominates == (name == "small_far_ball")
        for R in radii:
            got = _attempt(sc.check_strong_convexity, body, R, n_pairs=n_pairs)
            summand = _attempt(sc.complement_body, body, R, n_pairs=n_pairs)
            if isinstance(got, sc.ConvexityVerdict) and got.witness is not None:
                p1, p2, violation = got.witness
                f = GapFunction(body, R).values(np.stack([p1, p2, 0.5 * (p1 + p2)]))
                assert f[2] - 0.5 * (f[0] + f[1]) == pytest.approx(violation, rel=1e-6)
                assert isinstance(summand, sc.NotStronglyConvexError)
            if isinstance(decided, tuple):
                # where 1e-8 R_min is below the rounding of a point's b, the
                # check accepts the low end of the bracket too
                low_end_accepted = floor_dominates and R == decided[1][0]
                assert got.is_convex == (R >= decided[0] or low_end_accepted)
            elif isinstance(decided, sc.OutOfDomainError):
                assert got.is_convex
            elif not isinstance(got, sc.ConvexityVerdict):
                # flat or undecided: a witness, or the same error as the minimum
                assert (type(got), str(got)) == (type(decided), str(decided))
                assert (type(summand), str(summand)) == (type(decided), str(decided))
            else:
                assert not got.is_convex
            if isinstance(got, sc.ConvexityVerdict) and got.is_convex:
                assert isinstance(summand, sc.ComplementBody)

    @pytest.mark.parametrize("R", [4.7e-11, 1e-12, 1.0])
    @pytest.mark.parametrize("point", [[0.3, -0.4], [0.3, -0.4, 0.2]], ids=["2d", "3d"])
    def test_no_radius_refutes_a_point(self, point, R):
        # a point is an intersection of balls of every radius; its b is
        # rounding, below 2 (d + 5) eps max|s|, although at 4.7e-11 and 1e-12
        # its thresholds lie above R
        body = sc.PointHull([point])
        verdict = sc.check_strong_convexity(body, R)
        assert verdict.is_convex and verdict.witness is None
        assert verdict.tol >= strongconv._REL_TOL * R
        assert isinstance(sc.complement_body(body, R), sc.ComplementBody)

    def test_a_small_ball_is_still_refuted_below_its_radius(self):
        verdict = sc.check_strong_convexity(sc.Ball([0, 0], 1e-3), 0.5e-3)
        assert not verdict.is_convex and verdict.witness[2] > verdict.tol

    @pytest.mark.parametrize("call", [
        lambda body: sc.min_strong_radius(body),
        lambda body: sc.check_strong_convexity(body, 1e4),
        lambda body: sc.complement_body(body, 1e4),
        lambda body: sc.complement_body(body, 1.0),
    ], ids=["min_strong_radius", "check", "complement", "complement_witness"])
    @pytest.mark.parametrize("body", [FLAT_BODIES["square"], LpDisc(3)],
                             ids=["square", "lp3"])
    def test_a_kept_error_does_not_keep_the_table_alive(self, monkeypatch, body, call):
        # a caller that keeps the errors of many flat bodies must not keep
        # their tables through the frames of the tracebacks
        refs = []
        build = strongconv._build_pair_table

        def watched(*args):
            table = build(*args)
            refs.extend(weakref.ref(arr) for arr in table[:5])
            return table

        monkeypatch.setattr(strongconv, "_build_pair_table", watched)
        with pytest.raises(sc.StrConvexError) as info:
            call(body)
        assert info.value.__traceback__ is not None and len(refs) == 5
        strongconv._last_table = None
        gc.collect()
        assert all(ref() is None for ref in refs)


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


class _Keyless(sc.ConvexBody):
    """An ellipse through a ConvexBody subclass that defines no _key."""

    dim = 2

    def __init__(self):
        self.inner = sc.Ellipsoid([0.3, -0.2], [2.0, 1.0])

    def support_values(self, P):
        return self.inner.support_values(P)


@pytest.fixture
def builds(monkeypatch):
    """The bodies of every pair table built during the test; no table is kept
    when it starts (conftest)."""
    built = []
    direction_pairs = strongconv._direction_pairs

    def counted(body, n_pairs, seed):
        built.append(body)
        return direction_pairs(body, n_pairs, seed)

    monkeypatch.setattr(strongconv, "_direction_pairs", counted)
    return built


def _decide_then_check(body, radii, cold):
    """The minimal radius and the checks at radii from a cleared memo, each
    call from a cleared one when cold; errors as (type, message)."""
    out = []
    strongconv._last_table = None
    for fn, args in [(sc.min_strong_radius, ())] + [(sc.check_strong_convexity, (R,))
                                                     for R in radii]:
        if cold:
            strongconv._last_table = None
        try:
            got = fn(body, *args)
        except sc.StrConvexError as exc:
            got = (type(exc), str(exc))
        if isinstance(got, sc.ConvexityVerdict):
            witness = got.witness and (got.witness[0].tobytes(), got.witness[1].tobytes(),
                                       got.witness[2])
            got = (got.is_convex, witness, got.samples_tested, got.tol, got.R)
        out.append(got)
    return out


MEMO_BODIES = {
    "ellipse_2d": (sc.Ellipsoid([0.3, -0.2], [2, 1], _rotation_2d(0.7)), [4.0, 3.6]),
    "ellipsoid_3d": (sc.Ellipsoid([0.1, 0.0, -0.2], [2.0, 1.5, 1.0]), [4.0, 3.6]),
    "lens": (sc.lens([-0.6, 0], [0.6, 0], 1.0), [1.0, 0.9]),
    "ellipse_plus_ball": (sc.MinkowskiSum([sc.Ellipsoid([0, 0], [1.5, 1]),
                                           sc.Ball([0.2, 0.1], 0.5)]), [2.75, 2.5]),
    "ball_40d": (sc.Ball(np.zeros(40), 1.0), [1.0, 0.9]),
    "square": (sc.PointHull([[-1, -1], [1, -1], [1, 1], [-1, 1]]), [2.0, 1e4]),
    "ball_plus_segment": (sc.MinkowskiSum([sc.Ball([0, 0], 1.0),
                                           sc.PointHull([[-0.7, 0.2], [0.7, -0.2]])]),
                          [2.0, 1e4]),
    "complement": (sc.ComplementBody(sc.Ellipsoid([0, 0], [2, 1]), 5.0), [4.5, 4.0]),
}


class TestPairTableMemo:
    """Consecutive calls on one body share the last pair table built."""

    def test_minimal_radius_then_checks_build_once(self, builds):
        body = sc.Ellipsoid([0.3, -0.2], [2.0, 1.0])
        r, _ = sc.min_strong_radius(body)
        assert sc.check_strong_convexity(body, r).is_convex
        assert not sc.check_strong_convexity(body, 0.9 * r).is_convex
        sc.complement_body(body, r)
        assert len(builds) == 1

    def test_equal_body_reuses_the_table(self, builds):
        sc.min_strong_radius(sc.Ellipsoid([0, 0, 0], [2.0, 1.5, 1.0]))
        sc.check_strong_convexity(sc.Ellipsoid([0, 0, 0], [2.0, 1.5, 1.0]), 4.0)
        # whole numbers of another type are the same n_pairs
        sc.check_strong_convexity(sc.Ellipsoid([0, 0, 0], [2.0, 1.5, 1.0]), 4.0,
                                  n_pairs=np.int64(4096))
        sc.check_strong_convexity(sc.Ellipsoid([0, 0, 0], [2.0, 1.5, 1.0]), 4.0,
                                  n_pairs=4096.0)
        assert len(builds) == 1

    def test_another_body_pair_count_or_seed_rebuilds(self, builds):
        body = sc.Ellipsoid([0, 0, 0], [2.0, 1.5, 1.0])
        calls = [(body, 4096, 0), (body, 4096, 1), (body, 2048, 1),
                 (sc.Ellipsoid([0, 0, 0], [2.0, 1.5, 1.5]), 2048, 1),
                 (sc.Ball([0, 0, 0], 1.0), 2048, 1),
                 # a point hull's bytes do not hold its shape: 4 x 2 against 2 x 4
                 (sc.PointHull(np.arange(8.0).reshape(4, 2)), 4096, 0),
                 (sc.PointHull(np.arange(8.0).reshape(2, 4)), 4096, 0)]
        for b, n_pairs, seed in calls:
            sc.check_strong_convexity(b, 4.0, n_pairs=n_pairs, seed=seed)
        assert builds == [b for b, _, _ in calls]

    @pytest.mark.parametrize("body, n_builds", [
        (sc.Ellipsoid([0.3, -0.2], [2.0, 1.0]), 1),
        (sc.Ellipsoid([0.0, 0.0, 0.0], [2.0, 1.5, 1.0]), 2),
    ], ids=["2d", "3d"])
    def test_a_planar_table_serves_every_seed(self, builds, body, n_builds):
        # the seed turns a solid's sphere grid; planar bases are uniform angles
        r, _ = sc.min_strong_radius(body, seed=0)
        sc.check_strong_convexity(body, r, seed=1)
        assert len(builds) == n_builds

    @pytest.mark.parametrize("make", [
        lambda: LpDisc(1.5, 1.3),
        _Keyless,
        lambda: sc.MinkowskiSum([_Keyless(), sc.Ball([0, 0], 0.5)]),
    ], ids=["lp_disc", "keyless", "sum_with_keyless"])
    def test_bodies_without_a_value_are_rebuilt(self, builds, make):
        body = make()
        first = _decide_then_check(body, [4.0, 3.0], cold=False)
        assert len(builds) == 3
        assert _decide_then_check(body, [4.0, 3.0], cold=False) == first
        assert len(builds) == 6

    def test_keyless_body_gives_the_answers_of_its_ellipse(self, builds):
        body = _Keyless()
        assert (_decide_then_check(body, [4.0, 3.9], cold=False)
                == _decide_then_check(body.inner, [4.0, 3.9], cold=True))

    def test_writes_cannot_change_the_next_verdict(self, builds):
        body = sc.Ellipsoid([0, 0], [2.0, 1.0])
        first = sc.check_strong_convexity(body, 3.6)
        p1, p2 = first.witness[0].copy(), first.witness[1].copy()
        first.witness[0][:] = 0.0
        first.witness[1][:] = 0.0
        for arr in strongconv._pair_table(body, 4096, 0):
            with pytest.raises(ValueError):
                arr[...] = 0.0
        again = sc.check_strong_convexity(body, 3.6)
        assert np.array_equal(again.witness[0], p1)
        assert np.array_equal(again.witness[1], p2)
        assert again.witness[2] == first.witness[2]
        assert len(builds) == 1

    def test_kept_table_is_dropped_before_the_next_build(self, monkeypatch):
        kept = weakref.ref(strongconv._pair_table(sc.Ellipsoid([0, 0], [2.0, 1.0]), 4096, 0)[0])
        alive = []
        direction_pairs = strongconv._direction_pairs

        def probe(body, n_pairs, seed):
            alive.append(kept() is not None)
            return direction_pairs(body, n_pairs, seed)

        monkeypatch.setattr(strongconv, "_direction_pairs", probe)
        sc.check_strong_convexity(sc.Ball([0, 0], 1.0), 1.0)
        assert alive == [False]

    @pytest.mark.parametrize("name", list(MEMO_BODIES))
    def test_warm_memo_gives_the_cold_answers(self, builds, name):
        body, radii = MEMO_BODIES[name]
        cold = _decide_then_check(body, radii, cold=True)
        assert len(builds) == 1 + len(radii)
        builds.clear()
        assert _decide_then_check(body, radii, cold=False) == cold
        assert len(builds) == 1

    @pytest.mark.parametrize("n_pairs", [0, -5, 2.5, float("nan"), float("inf"), True,
                                         "4096", None])
    def test_bad_pair_count_is_rejected_before_any_table(self, builds, n_pairs):
        body = sc.Ellipsoid([0, 0], [2.0, 1.0])
        for call in (lambda: sc.min_strong_radius(body, n_pairs=n_pairs),
                     lambda: sc.check_strong_convexity(body, 4.0, n_pairs=n_pairs),
                     lambda: sc.complement_body(body, 4.0, n_pairs=n_pairs)):
            with pytest.raises(ValueError, match="n_pairs must be a positive whole number"):
                call()
        assert builds == []


class TestSupportingBall:
    # each verdict of the one-radius check, read as R >= supporting_ball_radius
    def test_disk_reads_one_at_every_direction(self):
        # the eight directions are rows of default_grid(2), where the
        # numerator and denominator both round to about 0 at q = p
        body = sc.Ball([0, 0], 1.0)
        for p in sc.angle_grid(8):
            radius, q = sc.supporting_ball_radius(body, p)
            assert 1.0 - 1e-12 <= radius <= 1.0, p
            assert abs(float(np.linalg.norm(q)) - 1.0) <= 1e-15

    @pytest.mark.parametrize("center, scale", [
        ([1e3, -700.0], 1.0), ([1e6, 1e6], 1.0), ([0, 0], 1.0 - 9e-13), ([0, 0], 1.0 + 9e-13),
    ], ids=["far", "farther", "short_p", "long_p"])
    def test_rounding_never_lifts_the_disk_above_one(self, center, scale):
        # far from the origin the rounding of s(q) - (x_p, q) grows with |s|,
        # and as_direction lets |p| miss 1 by 1e-12, as much as 1 - (p, q) at
        # the grid rows next to p: the reads stay at or below 1 all the same
        body = sc.Ball(center, 1.0)
        for p in sc.angle_grid(64):
            radius, _ = sc.supporting_ball_radius(body, scale * p)
            assert 1.0 - 1e-8 <= radius <= 1.0, (p, radius)

    def test_ellipse_at_minimal_radius(self):
        e = sc.Ellipsoid([0, 0], [2, 1])
        assert 4.0 >= sc.supporting_ball_radius(e, [0, 1])[0]

    def test_ellipse_below_minimal_radius_fails(self):
        e = sc.Ellipsoid([0, 0], [2, 1])
        assert not 3.5 >= sc.supporting_ball_radius(e, [0, 1])[0]

    def test_all_directions_at_certified_radius(self):
        e = sc.Ellipsoid([0, 0], [2, 1])
        for p in sc.angle_grid(64):
            assert 4.0 >= sc.supporting_ball_radius(e, p)[0]

    @pytest.mark.parametrize("R, tol, message", [
        (-1.0, 1e-9, "radius"), (0.0, 1e-9, "radius"), (math.inf, 1e-9, "radius"),
        (math.nan, 1e-9, "radius"), (1.0, -1.0, "tol"), (1.0, math.nan, "tol"),
    ])
    def test_bad_radius_or_tol_is_rejected(self, R, tol, message):
        # the reference one-radius check, with the messages of
        # check_strong_convexity and contains
        want = {"radius": "radius must be positive and finite",
                "tol": "tol must be nonnegative"}[message]
        with pytest.raises(ValueError, match=want):
            oracles.supporting_ball_check(sc.Ball([0, 0], 1.0), R, [1, 0], tol=tol)

    @pytest.mark.parametrize("body, p, message", [
        (sc.Ball([0, 0], 1.0), [1.0, 0.0, 0.0], "p has 3 coordinates, the body's dimension is 2"),
        (sc.Ball([0, 0, 0], 1.0), [0.6, 0.8], "p has 2 coordinates, the body's dimension is 3"),
        (sc.Ball([0, 0], 1.0), [1.0, 1.0], "unit norm"),
        (sc.Ball([0, 0], 1.0), [0.0, 0.0], "unit norm"),
        (sc.Ball([0, 0], 1.0), [math.nan, 1.0], "non-finite"),
        (sc.Ball([0, 0], 1.0), [1.0], "dimension >= 2"),
    ], ids=["3_for_2", "2_for_3", "non_unit", "zero", "nan", "one_coordinate"])
    def test_bad_direction_is_rejected(self, body, p, message):
        with pytest.raises(ValueError, match=message):
            sc.supporting_ball_radius(body, p)


class TestLensRadius:
    # each verdict of the one-radius lens check, read as R >= lens_radius
    def test_disk_at_own_radius(self):
        assert 1.0 >= sc.lens_radius(sc.Ball([0, 0], 1.0), 0.5)[0]

    def test_disk_below_radius(self):
        assert not 0.8 >= sc.lens_radius(sc.Ball([0, 0], 1.0), 0.5)[0]

    def test_witness_for_failed_criterion_radius(self):
        # the criterion fails at R = 0.9 for the unit disk, and so does the
        # lens inclusion: some short lens pokes outside
        assert not sc.check_strong_convexity(sc.Ball([0, 0], 1.0), 0.9).is_convex
        radius, witness = sc.lens_radius(sc.Ball([0, 0], 1.0), 0.5)
        assert not 0.9 >= radius and witness is not None

    def test_ellipse_at_minimal_radius(self):
        assert 4.0 >= sc.lens_radius(sc.Ellipsoid([0, 0], [2, 1]), 0.1)[0]

    def test_planar_only(self):
        with pytest.raises(ValueError, match="planar"):
            sc.lens_radius(sc.Ball([0, 0, 0], 1.0), 0.5)

    @pytest.mark.parametrize("eps0", [0.0, -0.1, 2.0, 2.5, math.nan, math.inf, -math.inf])
    def test_eps0_outside_zero_to_the_diameter(self, eps0):
        # the unit disc's boundary model has diameter 2.0 exactly
        assert BoundaryParam(sc.Ball([0, 0], 1.0), strongconv._LENS_RESOLUTION).diameter == 2.0
        with pytest.raises(ValueError, match="eps0"):
            sc.lens_radius(sc.Ball([0, 0], 1.0), eps0)

    @pytest.mark.parametrize("eps0", [0.0, -0.1, 2.0, 2.5])
    def test_eps0_outside_zero_to_2R(self, eps0):
        for check in (oracles.local_lens_check, sampled_local_lens_check):
            with pytest.raises(ValueError, match="eps0"):
                check(sc.Ball([0, 0], 1.0), 1.0, eps0)

    def test_degenerate_chords_are_skipped(self, monkeypatch):
        # chords shorter than 1e-12 carry no lens and must not decide the
        # verdict; at R = 0.8 the lens of a chord of length 0.25 on the unit
        # circle pokes out of it
        points = sc.angle_grid(2048)
        a, b = points[::200], np.roll(points, -80, axis=0)[::200]
        mixed = (np.vstack([a, a]), np.vstack([a + 1e-13, b]))
        for ends, want in (((a, a + 1e-13), True), (mixed, False)):
            def chords(*args, ends=ends):
                return ends

            monkeypatch.setattr(strongconv, "_chords_of_length", chords)
            monkeypatch.setattr(oracles, "_chords_of_length", chords)
            radius, witness = sc.lens_radius(sc.Ball([0, 0], 1.0), 0.5)
            assert (0.8 >= radius) is want
            assert (witness is None) is want
            for check in (oracles.local_lens_check, sampled_local_lens_check):
                assert check(sc.Ball([0, 0], 1.0), 0.8, 0.5) is want
        assert radius > 0.8 and np.any(np.all(witness[0] == a, axis=1))

    def test_arc_values_match_the_exact_lens(self):
        # the reference's closed-form arc values on each run against the
        # ArcPolygon lens, on chords of every length up to nearly 2R and down
        # to 1e-12
        rng = np.random.default_rng(35)
        R, n = 1.3, strongconv._LENS_RESOLUTION
        grid = sc.angle_grid(n)
        length = np.concatenate([
            rng.uniform(0.0, 2.0 * R, 160),
            2.0 * R * (1.0 - 10.0 ** rng.uniform(-12.0, -3.0, 20)),
            10.0 ** rng.uniform(-12.0, -10.0, 20),
        ])
        t = rng.uniform(0.0, 2.0 * np.pi, len(length))
        a = rng.uniform(-2.0, 2.0, (len(length), 2))
        b = a + length[:, None] * np.stack([np.cos(t), np.sin(t)], axis=1)
        exact = np.array([sc.lens(p, q, R).support_values(grid) for p, q in zip(a, b)])
        covered = np.zeros(exact.shape, dtype=bool)
        for c, runs, inside in oracles._lens_arcs(a, b, R, n):
            got = c[:, :1] * grid[runs, 0] + c[:, 1:] * grid[runs, 1] + R
            want = np.take_along_axis(exact, runs, axis=1)
            assert np.all(np.abs(got - want)[inside] <= 1e-12 * (1.0 + np.abs(want[inside])))
            np.put_along_axis(covered, runs, inside | np.take_along_axis(covered, runs, 1), 1)
        # off both runs the lens's support is a chord end's
        ends = np.maximum(a @ grid.T, b @ grid.T)
        assert np.all(np.abs(exact - ends)[~covered] <= 1e-12 * (1.0 + np.abs(ends[~covered])))

    def test_root_inverts_the_exact_lens(self):
        # with s(g) the support of the exact R*-lens, R- is R* at every grid
        # direction g of an arc's normal cone; the inner 95 % of the cone,
        # since at its edge R- is a double root that magnifies the rounding of s
        rng = np.random.default_rng(36)
        grid = sc.angle_grid(strongconv._LENS_RESOLUTION)
        for _ in range(200):
            R = 10.0 ** rng.uniform(-1.0, 1.0)
            length, turn = rng.uniform(0.01, 1.9) * R, rng.uniform(0.0, 2.0 * np.pi)
            a = rng.uniform(-2.0, 2.0, 2)
            b = a + length * np.array([np.cos(turn), np.sin(turn)])
            g = grid[np.abs(grid @ (b - a)) < 0.95 * length * length / (2.0 * R)]
            top = sc.lens(a, b, R).support_values(g)
            got = strongconv._lens_root(a, b, np.vstack([g.T, top]))
            assert len(g) and np.all(np.abs(got - R) <= 1e-9 * R), (R, length)
            # no lens pokes out past a top |d| / 2 or more above the midpoint
            far = g @ (0.5 * (a + b)) + 0.5 * length * rng.uniform(1.0, 3.0, len(g))
            assert np.all(strongconv._lens_root(a, b, np.vstack([g.T, far])) == -np.inf)


# planar bodies with their minimal radii, for the lens check against its
# sampled reference
LENS_BODIES = {
    "disc": (sc.Ball([0.2, -0.1], 1.0), 1.0),
    "ellipse_2to1": (sc.Ellipsoid([0.3, 0.1], [2.0, 1.0], _rotation_2d(0.6)), 4.0),
    "ellipse_4to1": (sc.Ellipsoid([-0.2, 0.4], [2.0, 0.5], _rotation_2d(1.1)), 8.0),
    "ellipse_plus_ball": (sc.MinkowskiSum([sc.Ellipsoid([0.0, 0.0], [1.5, 1.0], _rotation_2d(0.3)),
                                           sc.Ball([0.1, 0.0], 0.5)]), 2.75),
    "lens": (sc.lens([0.0, 0.0], [1.0, 0.3], 1.0), 1.0),
}


@pytest.mark.parametrize("name", sorted(LENS_BODIES))
def test_chord_ends_stay_within_the_grid_support(name):
    # the lens check leaves the chord ends' support out: both ends lie on the
    # boundary polyline, so on every grid direction it is the grid support
    # up to rounding
    body, _ = LENS_BODIES[name]
    param = BoundaryParam(body, strongconv._LENS_RESOLUTION)
    for frac in (0.1, 0.3):
        a, b = strongconv._lens_chords(param, frac * param.diameter)
        assert len(a) >= 100
        ends = np.maximum(a @ param.grid.T, b @ param.grid.T)
        assert np.max(ends - param.support) <= 1e-14 * (1.0 + param.diameter), (name, frac)


@pytest.mark.parametrize("name", sorted(LENS_BODIES))
def test_lens_check_rejects_wherever_the_sampled_check_does(name):
    # the lens radius reads every grid direction of each lens where the
    # sampled check tested 64 boundary points, so it is at least as strict;
    # well away from the minimal radius the two agree
    body, r_min = LENS_BODIES[name]
    diam = body.diameter(sc.angle_grid(2048))
    for frac in (0.1, 0.3):
        radius = sc.lens_radius(body, frac * diam)[0]
        for scale in (0.9, 0.97, 1.0, 1.03, 1.1):
            R, eps0 = scale * r_min, frac * diam
            got = R >= radius
            want = sampled_local_lens_check(body, R, eps0)
            where = (name, scale, frac, got, want)
            assert want or not got, where
            if scale in (0.9, 1.1):
                assert got == want, where


# the five LENS_BODIES at eps0 = 0.1 and 0.3 diam, and the unit disc at
# eps0 = 0.1 and 0.5, as (body, eps0, minimal radius or None)
LENS_CASES = {
    **{f"{name}-{frac}": (body, frac * body.diameter(sc.angle_grid(2048)), r_min)
       for name, (body, r_min) in LENS_BODIES.items() for frac in (0.1, 0.3)},
    "unit_disc-0.1": (sc.Ball([0.0, 0.0], 1.0), 0.1, None),
    "unit_disc-0.5": (sc.Ball([0.0, 0.0], 1.0), 0.5, None),
}


@pytest.mark.parametrize("name", sorted(LENS_CASES))
def test_lens_radius_is_where_the_one_radius_check_turns(name):
    body, eps0, _ = LENS_CASES[name]
    radius, _ = sc.lens_radius(body, eps0)
    assert oracles.local_lens_check(body, radius * (1.0 + 1e-9), eps0)
    assert not oracles.local_lens_check(body, radius * (1.0 - 1e-9), eps0)


@pytest.mark.parametrize("name", sorted(LENS_CASES))
def test_lens_witness_replays_through_the_exact_lens(name):
    # just below the radius, the witness chord's exact lens pokes out past the
    # body's own support by more than the tol
    body, eps0, _ = LENS_CASES[name]
    radius, (a, b, g) = sc.lens_radius(body, eps0)
    param = BoundaryParam(body, strongconv._LENS_RESOLUTION)
    tol = strongconv._LENS_TOL * grid_angle_error(param.diameter, param.n)
    poke = sc.lens(a, b, 0.999 * radius).support_values(g[None])[0]
    assert poke > body.support_values(g[None])[0] + tol


@pytest.mark.parametrize("name", sorted(LENS_CASES))
def test_lens_radius_runs_miss_no_direction(name):
    # the two runs per chord hold the largest root over every grid direction
    body, eps0, _ = LENS_CASES[name]
    param = BoundaryParam(body, strongconv._LENS_RESOLUTION)
    tol = strongconv._LENS_TOL * grid_angle_error(param.diameter, param.n)
    a, b = strongconv._lens_chords(param, eps0)
    columns = np.vstack([param.grid.T, param.support + tol])[:, None]
    dense = strongconv._lens_root(a[:, None], b[:, None], columns)
    assert sc.lens_radius(body, eps0)[0] == np.max(dense)


@pytest.mark.parametrize("name", sorted(n for n, case in LENS_CASES.items() if case[2]))
def test_lens_radius_is_a_lower_end_of_the_minimal_radius(name):
    # a route to R_min from below: the tol keeps the radius a little under it
    body, eps0, r_min = LENS_CASES[name]
    radius, _ = sc.lens_radius(body, eps0)
    assert 0.98 * r_min <= radius <= r_min * (1.0 + 1e-9)


@pytest.mark.parametrize("n_pairs", [1, 80, 81, 500, 4096, 8000])
def test_planar_direction_pairs_match_the_stacked_ones(n_pairs):
    # written column by column into preallocated arrays, they must equal the
    # stack of cos and sin along a last axis bit for bit, and so must the table
    body = sc.Ellipsoid([0.1, -0.2], [2.0, 1.0])
    base, _, P2, _, _ = strongconv._direction_pairs(body, n_pairs, 0)
    n_base = max(8, -(-n_pairs // len(strongconv._GAP_SCALES)))
    want_base, want_P2 = stacked_planar_direction_pairs(
        n_base, np.array(strongconv._GAP_SCALES)[:, None])
    for got, want in ((base, want_base), (P2, want_P2)):
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


TABLE_BODIES = {
    **{name: body for name, (body, _) in LENS_BODIES.items()},
    "square": FLAT_BODIES["square"],
    "point": sc.PointHull([[0.3, -0.4]]),
    "ball_plus_segment": FLAT_BODIES["ball_plus_segment"],
    "lp_disc": LpDisc(1.5, 1.3),
}
TABLE_SOLIDS = {
    "ball_3d": sc.Ball([0.0, 0.0, 0.0], 1.0),
    "ellipsoid_3d": sc.Ellipsoid([0.0, 0.0, 0.0], [2.0, 1.5, 1.0]),
    "rotated_cube": FLAT_BODIES["rotated_cube"],
}


@pytest.mark.parametrize("name, n_pairs, seed", [
    *((name, n_pairs, 0) for name in sorted(TABLE_BODIES)
      for n_pairs in (1, 79, 80, 81, 4096, 4097)),
    *((name, 4096, seed) for name in sorted(TABLE_SOLIDS) for seed in range(3)),
])
def test_pair_table_keeps_the_bits_of_the_unframed_build(name, n_pairs, seed):
    # the planar frame built once per pair count, the stacked support
    # directions and the cascade's preallocated (p, t) frame must give every
    # table array of the build that made them afresh, bit for bit
    body = {**TABLE_BODIES, **TABLE_SOLIDS}[name]
    got = strongconv._build_pair_table(body, n_pairs, seed)
    want = oracles.build_pair_table(body, n_pairs, seed)
    assert len(got) == len(want) == 7
    for k, (g, w) in enumerate(zip(got, want)):
        assert g.dtype == w.dtype and np.array_equal(g, w), (name, n_pairs, seed, k)


def test_planar_frame_is_built_once_per_pair_count_and_read_only():
    frame = strongconv._direction_pairs(sc.Ellipsoid([0.3, -0.2], [2.0, 1.0]), 4096, 0)
    # another planar body and seed read the same frame
    again = strongconv._direction_pairs(sc.Ball([0.0, 0.0], 1.0), 4096, 1)
    assert all(x is y for x, y in zip(frame, again))
    other = strongconv._direction_pairs(sc.Ball([0.0, 0.0], 1.0), 2048, 0)
    assert len(other[0]) == 205 and len(frame[0]) == 410
    assert all(x is not y for x, y in zip(frame, other))
    for arr in (*frame, *other):
        with pytest.raises(ValueError):
            arr[...] = 0.0
    # a solid's frame is built per call
    solid = sc.Ball([0.0, 0.0, 0.0], 1.0)
    first, second = (strongconv._direction_pairs(solid, 4096, 0) for _ in range(2))
    assert all(x is not y and np.array_equal(x, y) for x, y in zip(first, second))


@pytest.mark.parametrize("name", sorted(LENS_BODIES))
def test_supporting_ball_radius_is_where_the_one_radius_check_turns(name):
    # the reference check at tol = 1e-12 holds each ball exactly from the
    # radius up, at 32 directions and radii 0.1 % to 10 % either side of it
    body, _ = LENS_BODIES[name]
    for p in sc.angle_grid(32):
        radius, _ = sc.supporting_ball_radius(body, p)
        for factor in (0.9, 0.99, 0.999, 1.001, 1.01, 1.1):
            R = factor * radius
            assert (R >= radius) == oracles.supporting_ball_check(body, R, p, tol=1e-12), \
                (name, p, factor)


@pytest.mark.parametrize("name", sorted(LENS_BODIES))
def test_supporting_ball_radius_is_a_lower_end_of_the_minimal_radius(name):
    # every supporting ball at R_min holds the body, and the flattest
    # direction's ball needs nearly all of it; rounding never lifts a read
    # above R_min, and each returned row q refutes 0.999 x the radius from
    # support values alone
    body, r_min = LENS_BODIES[name]
    largest = 0.0
    for p in sc.angle_grid(256):
        radius, q = sc.supporting_ball_radius(body, p)
        excess = body.support_value(q) - body.support_point(p) @ q - 0.999 * radius * (1.0 - p @ q)
        assert excess > 0.0, (name, p, excess)
        largest = max(largest, radius)
    assert r_min * (1.0 - 1e-3) <= largest <= r_min, largest


def test_supporting_ball_radius_of_the_ellipsoid_at_its_flat_pole():
    # at e3 the 2:1.5:1 ellipsoid's ball needs about its minimal radius, 4
    radius, q = sc.supporting_ball_radius(sc.Ellipsoid([0, 0, 0], [2.0, 1.5, 1.0]), [0, 0, 1.0])
    assert 3.9 < radius <= 4.0 * (1.0 + 1e-9)
    assert q.shape == (3,)


def test_supporting_ball_radius_of_a_point_is_zero():
    # a point is an intersection of balls of every radius; rounding alone
    # reads about -1e-15 before the floor
    assert sc.supporting_ball_radius(sc.PointHull([[0.3, -0.4]]), [0.6, 0.8]) == (0.0, None)
