import inspect
import math
import warnings

import numpy as np
import pytest

import strconvex as sc
from strconvex import modulus
from strconvex.modulus import BoundaryParam, default_fit_window
from oracles import ellipse_minor_chord_modulus

# Brute-force chord-scan oracle value for the (2,1)-ellipse at eps = 0.1
# (tests/oracles.py::ellipse_chord_modulus with n_anchor=4000, n_dense=200000).
ELLIPSE_DELTA_01 = 3.1259306572e-4


class TestBallModulus:
    def test_unit_ball_at_one(self):
        assert sc.ball_modulus(1.0, 1.0) == pytest.approx(1.0 - math.sqrt(3) / 2, abs=1e-15)

    def test_zero_chord(self):
        assert sc.ball_modulus(1.0, 0.0) == 0.0

    def test_scaled(self):
        assert sc.ball_modulus(2.0, 2.0) == pytest.approx(2.0 - math.sqrt(3), abs=1e-15)

    def test_domain(self):
        with pytest.raises(sc.OutOfDomainError):
            sc.ball_modulus(1.0, 2.0)
        with pytest.raises(sc.OutOfDomainError):
            sc.ball_modulus(1.0, -0.1)

    def test_small_eps_second_order(self):
        for r in (0.5, 1.0, 3.0):
            eps = r / 100
            assert sc.ball_modulus(r, eps) == pytest.approx(eps**2 / (8 * r), rel=1e-4)


class TestLensModulusBound:
    def test_matches_ball_formula(self):
        assert sc.ball_modulus(1.0, 1.0) == pytest.approx(0.1339746, abs=1e-7)

    def test_zero(self):
        assert sc.ball_modulus(1.0, 0.0) == 0.0

    def test_large_radius(self):
        assert sc.ball_modulus(4.0, 0.4) == pytest.approx(4 - math.sqrt(16 - 0.04), abs=1e-10)

    def test_domain(self):
        with pytest.raises(sc.OutOfDomainError):
            sc.ball_modulus(1.0, 2.0)


class TestEstimateModulus:
    """The modulus at one eps is a one-sample curve."""

    def test_unit_disk_matches_closed_form(self):
        curve = sc.modulus_curve(sc.Ball([0, 0], 1.0), [1.0], 2048)
        assert curve.delta[0] == pytest.approx(0.13397, abs=1e-3)

    def test_square_chord_along_edge(self):
        sq = sc.PointHull([[-1, -1], [1, -1], [1, 1], [-1, 1]])
        curve = sc.modulus_curve(sq, [0.5], 2048)
        assert abs(curve.delta[0]) <= curve.error_bound[0]

    def test_ellipse_small_chord_matches_oracle(self):
        e = sc.Ellipsoid([0, 0], [2, 1])
        curve = sc.modulus_curve(e, [0.1], 4096)
        assert curve.delta[0] == pytest.approx(ELLIPSE_DELTA_01, abs=5e-6)

    def test_errors(self):
        b = sc.Ball([0, 0], 1.0)
        with pytest.raises(sc.OutOfDomainError):
            sc.modulus_curve(b, [2.5], 512)
        with pytest.raises(ValueError):
            sc.modulus_curve(b, [0.5], 8)

    def test_ball_within_error_bound_across_eps(self):
        for r in (0.5, 2.0):
            body = sc.Ball([0.1, -0.3], r)
            mults = (0.1, 0.5, 1.0, 1.5)
            curve = sc.modulus_curve(body, [mult * r for mult in mults], 2048)
            for mult, delta, bound in zip(mults, curve.delta, curve.error_bound):
                assert abs(delta - sc.ball_modulus(r, mult * r)) <= bound

    def test_lens_respects_strong_convexity_lower_bound(self):
        L = sc.lens([-0.6, 0], [0.6, 0], 1.0)
        curve = sc.modulus_curve(L, [0.2, 0.5, 0.9], 2048)
        for eps, delta, bound in zip(curve.eps, curve.delta, curve.error_bound):
            assert delta >= sc.ball_modulus(1.0, eps) - bound

    def test_disk_intersection_respects_lower_bound(self):
        rng = np.random.default_rng(21)
        centers = rng.uniform(-0.3, 0.3, (3, 2))
        D = sc.disk_intersection(centers, 1.0)
        diam = D.diameter()
        curve = sc.modulus_curve(D, [0.3 * diam, 0.6 * diam], 2048)
        for eps, delta, bound in zip(curve.eps, curve.delta, curve.error_bound):
            assert delta >= sc.ball_modulus(1.0, eps) - bound

    def test_ratio_monotonicity(self):
        e = sc.Ellipsoid([0, 0], [2, 1])
        curve = sc.modulus_curve(e, np.linspace(0.1, 1.6, 12), 2048)
        ratio = curve.delta / curve.eps
        slack = 2.0 * curve.error_bound / curve.eps
        assert np.all(np.diff(ratio) >= -(slack[1:] + slack[:-1]))

    def test_three_dimensional_ball(self):
        curve = sc.modulus_curve(sc.Ball([0, 0, 0], 1.0), [0.5], 512)
        assert abs(curve.delta[0] - sc.ball_modulus(1.0, 0.5)) <= curve.error_bound[0]


class TestOneModulusModel:
    """One curve model in every dimension: the warning names the caller's line."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_near_diameter_warning_names_the_calling_line(self, dim):
        ball = sc.Ball(np.zeros(dim), 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = inspect.currentframe().f_lineno + 1
            sc.modulus_curve(ball, [1.95], 128)
            sc.modulus_curve(ball, [0.5, 1.95], 128)
        assert [(w.filename, w.lineno) for w in caught] == [(__file__, line), (__file__, line + 1)]


class TestSectionedCurve:
    """A 3-D curve builds its sections once and must equal one-sample curves."""

    BODIES = {
        "ellipsoid": sc.Ellipsoid([0.2, -0.1, 0.3], [2.0, 1.5, 1.0]),
        "ellipsoid_plus_ball": sc.MinkowskiSum([sc.Ellipsoid([0, 0, 0], [2.0, 1.5, 1.0]),
                                                sc.Ball([0.1, 0.2, -0.2], 0.5)]),
    }

    @pytest.mark.parametrize("name", sorted(BODIES))
    def test_curve_equals_pointwise(self, name):
        body = self.BODIES[name]
        eps = np.array([0.2, 0.5, 1.1])
        curve = sc.modulus_curve(body, eps, 256)
        pointwise = [sc.modulus_curve(body, [e], 256) for e in eps]
        want_delta = np.array([c.delta[0] for c in pointwise])
        assert np.all(want_delta > 0.0)
        assert np.max(np.abs(curve.delta - want_delta) / want_delta) <= 1e-14
        assert np.array_equal(curve.error_bound, [c.error_bound[0] for c in pointwise])

    def test_turned_ellipsoid_stays_near_the_pole_chord(self):
        # The least depth is read off the sphere grid's directions, so it
        # overshoots by the grid's sagitta at the flattest point, which
        # depends on how the body sits in the grid.  The pole chord's depth
        # d_pole bounds the true delta from above.
        eps = np.array([0.1, 0.2, 0.3]) * 4.0
        d_pole = 1.0 - np.sqrt(1.0 - eps**2 / 16.0)
        for seed in range(12):
            q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
            turn = np.eye(3) if seed == 0 else q * np.sign(np.diag(r))
            body = sc.Ellipsoid([0.1, -0.2, 0.3], [2.0, 1.5, 1.0], turn)
            curve = sc.modulus_curve(body, eps, 256)
            assert np.all(curve.delta <= 1.07 * d_pole), seed

    @pytest.mark.parametrize("bad", [0.0, -0.1, 4.0, 5.0])
    def test_curve_rejects_eps_outside_domain(self, bad):
        body = self.BODIES["ellipsoid"]  # diameter 4
        with pytest.raises(sc.OutOfDomainError):
            sc.modulus_curve(body, sorted([0.5, bad]), 64)

    def test_curve_warns_near_diameter(self):
        ball = sc.Ball([0.1, 0.0, -0.2], 1.0)
        with pytest.warns(UserWarning, match="near the diameter"):
            curve = sc.modulus_curve(ball, [0.5, 0.97 * 2.0], 128)
        assert len(curve.samples) == 2


class TestCurveArguments:
    """A curve checks its resolution and eps grid before it builds a boundary model."""

    ELLIPSOID = sc.Ellipsoid([0.0, 0.0, 0.0], [2.0, 1.5, 1.0])

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("resolution", [64.5, 256.9, math.nan, math.inf])
    def test_non_integral_resolution_raises(self, dim, resolution):
        body = self.ELLIPSOID if dim == 3 else sc.Ellipsoid([0.0, 0.0], [2.0, 1.0])
        with pytest.raises(ValueError, match="whole number"):
            sc.modulus_curve(body, [0.4], resolution)

    def test_boundary_param_rejects_non_integral_resolution(self):
        with pytest.raises(ValueError, match="whole number"):
            BoundaryParam(sc.Ball([0.0, 0.0], 1.0), 64.5)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_integral_float_resolution_is_that_integer(self, dim):
        body = self.ELLIPSOID if dim == 3 else sc.Ellipsoid([0.0, 0.0], [2.0, 1.0])
        got = sc.modulus_curve(body, [0.4, 0.8], 256.0)
        want = sc.modulus_curve(body, [0.4, 0.8], 256)
        assert np.array_equal(got.delta, want.delta)
        assert np.array_equal(got.error_bound, want.error_bound)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("eps", [[0.6, 0.3], [0.3, 0.3], [0.3, math.nan],
                                     [0.3, math.inf], [[0.3, 0.6]], 0.3])
    def test_bad_eps_raises_before_any_chord_search(self, monkeypatch, dim, eps):
        searched = []
        monkeypatch.setattr(modulus, "_chords_of_length", lambda *args: searched.append(args))
        with pytest.raises(ValueError, match="strictly increasing"):
            sc.modulus_curve(sc.Ball(np.zeros(dim), 1.0), eps, 64)
        assert searched == []


class TestFit:
    def _ball_curve(self, r, n=12, lo=0.01, hi=0.2):
        eps = np.linspace(lo, hi, n)
        return sc.ModulusCurve.from_arrays(
            eps, [sc.ball_modulus(r, float(t)) for t in eps], np.zeros(n))

    def test_exact_ball_curve_unit(self):
        fit = sc.fit_second_order(self._ball_curve(1.0), window=(0.01, 0.2))
        assert fit.C == pytest.approx(0.125, abs=1e-3)

    def test_exact_ball_curve_r2(self):
        eps = np.linspace(0.02, 0.4, 12)
        curve = sc.ModulusCurve.from_arrays(
            eps, [sc.ball_modulus(2.0, float(t)) for t in eps], np.zeros(12))
        fit = sc.fit_second_order(curve)
        assert fit.C == pytest.approx(1 / 16, abs=1e-3)

    def test_estimated_ellipse_curve(self):
        e = sc.Ellipsoid([0, 0], [2, 1])
        curve = sc.modulus_curve(e, np.linspace(0.08, 0.8, 10), 4096)
        fit = sc.fit_second_order(curve)
        assert fit.C == pytest.approx(1 / 32, rel=0.05)

    def test_exact_quadratic_recovers_constant(self):
        eps = np.linspace(0.05, 0.5, 10)
        C = 0.3172
        curve = sc.ModulusCurve.from_arrays(eps, C * eps**2, np.zeros(10))
        fit = sc.fit_second_order(curve, window=(0.05, 0.5))
        assert fit.C == pytest.approx(C, abs=1e-9)

    def test_quadratic_domination_on_window(self):
        for body in (sc.Ball([0, 0], 1.0), sc.Ellipsoid([0, 0], [2, 1])):
            curve = sc.modulus_curve(body, np.linspace(0.05, 0.9, 10), 2048)
            fit = sc.fit_second_order(curve)
            lo, hi = fit.window
            for s in curve.samples:
                if lo <= s.eps <= hi:
                    assert s.delta <= fit.C * s.eps**2 * 1.1

    def test_flat_body_raises(self):
        sq = sc.PointHull([[-1, -1], [1, -1], [1, 1], [-1, 1]])
        curve = sc.modulus_curve(sq, np.linspace(0.2, 1.0, 6), 1024)
        with pytest.raises(sc.NotUniformlyConvexError):
            sc.fit_second_order(curve)

    def test_window_needs_four_samples(self):
        curve = self._ball_curve(1.0, n=6)
        with pytest.raises(ValueError):
            sc.fit_second_order(curve, window=(0.0, 0.02))

    def test_default_window_scales_with_radius(self):
        curve = self._ball_curve(1.0)
        lo, hi = default_fit_window(curve)
        # implied curvature radius of the unit ball is 1
        assert lo == pytest.approx(0.02, rel=0.05)
        assert hi == pytest.approx(0.2, rel=0.05)


class TestCurveValidation:
    def test_eps_must_increase(self):
        with pytest.raises(ValueError):
            sc.ModulusCurve.from_arrays([0.2, 0.1], [0.01, 0.02], [0, 0])

    def test_delta_not_below_error_band(self):
        with pytest.raises(ValueError):
            sc.ModulusCurve.from_arrays([0.1, 0.2], [-0.05, 0.02], [1e-6, 1e-6])

    def test_nan_delta_or_bound_is_rejected(self):
        nan = float("nan")
        for delta, bound in (([nan, 0.02], [0.0, 0.0]), ([0.01, 0.02], [0.0, nan])):
            with pytest.raises(ValueError):
                sc.ModulusCurve.from_arrays([0.1, 0.2], delta, bound)


def _turned(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


# The six planar bodies of the modulus_planar benchmark at seed 1, from literals.
BENCHMARK_PLANAR_BODIES = {
    "ball": sc.Ball([-0.39361034141671003, -0.09300422103869699], 1.1582751372901798),
    "ellipse_2to1": sc.Ellipsoid([-0.7319166055056705, -0.19377402710574154],
                                 [2.450463696325935, 1.2252318481629676],
                                 _turned(0.6391734894425349)),
    "ellipse_4to1": sc.Ellipsoid([-0.475373319116301, 0.5007293452601052],
                                 [1.6441596127196338, 0.41103990317990846],
                                 _turned(0.8809300940911813)),
    "ellipse_plus_ball": sc.MinkowskiSum([
        sc.Ellipsoid([-0.029618051136729884, 0.9614743996024773],
                     [2.4486494471372438, 1.2243247235686219], _turned(3.0211351748859294)),
        sc.Ball([0.4495798815470673, 0.08245371109486843], 0.3935494356031456)]),
    "lens": sc.lens([0.09918737534611899, -0.9448817735138633],
                    [0.45287427835005684, 0.26118202094591636], 0.9693305795890302),
    "square": sc.PointHull([[-0.34053656700181567, 0.5768574068568086],
                            [-0.4992265794340788, 1.894797217353847],
                            [-1.817166389931117, 1.736107204921584],
                            [-1.658476377498854, 0.41816739442454554]]),
}

# repr of every delta at the benchmark's 8 eps, resolution 2048, as computed
# before the chord and depth kernels moved to coordinate columns (numpy 2.4.6,
# OpenBLAS, x86-64; another build may round the last digits differently)
PINNED_PLANAR_DELTAS = {
    "ball": ["0.0014499040508126892", "0.00426287673031811", "0.00857222800746138",
             "0.014391877143636655", "0.021745527779642115", "0.03066362124865818",
             "0.04118395076313619", "0.053352258545735776"],
    "ellipse_2to1": ["0.0015319363529286978", "0.0045091613492243", "0.009066366590800179",
                     "0.015222144949953664", "0.023001448725773477", "0.032435331795783506",
                     "0.04356085844335522", "0.056434835360892444"],
    "ellipse_4to1": ["0.0005139290488120896", "0.0015127269263952026", "0.0030415947860336634",
                     "0.00510677000012405", "0.007716531243916247", "0.01088108024743889",
                     "0.014612368888342664", "0.018927971564640378"],
    "ellipse_plus_ball": ["0.0019084380470745232", "0.005619870412293615",
                          "0.011298904085119688", "0.018979171521615434",
                          "0.028684569198357934", "0.040467712568656944",
                          "0.0543739242892185", "0.07047403718615186"],
    "lens": ["0.0005085510764413215", "0.001497718295799741", "0.0030078730545562704",
             "0.00504314116026483", "0.007606442529666468", "0.010700727204121088",
             "0.014334287145324698", "0.01851027348055434"],
    "square": ["-4.440892098500626e-16", "-2.220446049250313e-16", "-4.440892098500626e-16",
               "-4.440892098500626e-16", "-4.440892098500626e-16", "-4.440892098500626e-16",
               "-4.440892098500626e-16", "-4.440892098500626e-16"],
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_PLANAR_BODIES))
def test_benchmark_planar_moduli_are_pinned(name):
    body = BENCHMARK_PLANAR_BODIES[name]
    eps = np.linspace(0.1, 0.6, 8) * 0.5 * body.diameter()
    curve = sc.modulus_curve(body, eps, 2048)
    assert [repr(float(d)) for d in curve.delta] == PINNED_PLANAR_DELTAS[name]


def test_benchmark_sectioned_modulus_is_pinned():
    # the 2:1.5:1 ellipsoid of the radius_mixed predict case at seed 1
    body = sc.Ellipsoid([-0.7041559284300869, 0.639253438238554, 0.3665738120065143],
                        [2.0, 1.5, 1.0])
    eps = np.linspace(0.1, 0.6, 4) * 0.5 * body.diameter()
    curve = sc.modulus_curve(body, eps, 256)
    assert [repr(float(d)) for d in curve.delta] == [
        "0.0012510883461192002", "0.009155089639083291", "0.024632984356378285",
        "0.04810201939430803"]


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


# the grid bound fails above aspect 2: (delta - exact) / bound reads -1.1 to
# -1.8 at aspect 4 and -1.4 to -2.5 at aspect 6 over these eps, n and turns
BOUND_FAILS_ABOVE_ASPECT_2 = pytest.mark.xfail(
    strict=True, reason="the planar error bound is exceeded above aspect 2")


@pytest.mark.parametrize("theta", [0.0, 0.37])
@pytest.mark.parametrize("aspect", [1.0, 1.5, 2.0,
                                    pytest.param(4.0, marks=BOUND_FAILS_ABOVE_ASPECT_2),
                                    pytest.param(6.0, marks=BOUND_FAILS_ABOVE_ASPECT_2)])
def test_planar_modulus_of_ellipses_within_its_bound_of_the_minor_chord(aspect, theta):
    # an ellipse's modulus is the depth of the chord parallel to its major axis
    a = 2.0
    body = sc.Ellipsoid([0.3, -0.2], [a, a / aspect], _rotation(theta))
    eps = np.linspace(0.03, 0.6, 12) * 2.0 * a
    exact = np.array([ellipse_minor_chord_modulus(a, a / aspect, e) for e in eps])
    for n in (1024, 2048, 4096):
        curve = sc.modulus_curve(body, eps, n)
        worst = np.max(np.abs(curve.delta - exact) / curve.error_bound)
        assert worst <= 1.0, f"aspect {aspect} theta {theta} n={n}: {worst:.3f} x bound"
