import numpy as np
import pytest

import strconvex as sc
from strconvex.radius_theory import radius_map

from oracles import iterated_fixed_point


class TestChordRadius:
    def test_basic(self):
        assert sc.chord_radius(1.0, 0.25) == 1.0

    def test_quadratic_modulus(self):
        assert sc.chord_radius(0.1, 0.125 * 0.1**2) == pytest.approx(2.0, abs=1e-12)

    def test_ball_limit_doubles_radius(self):
        # the zero-step bound is asymptotically 2x loose on balls
        for r in (0.5, 1.0, 3.0):
            eps = r / 100
            ratio = sc.chord_radius(eps, sc.ball_modulus(r, eps)) / (2 * r)
            assert abs(ratio - 1.0) < 0.01

    def test_domain(self):
        with pytest.raises(sc.OutOfDomainError):
            sc.chord_radius(1.0, 0.5)
        with pytest.raises(sc.OutOfDomainError):
            sc.chord_radius(1.0, 0.0)


class TestZeroStepRadius:
    def test_values(self):
        assert sc.zero_step_radius(0.125) == 2.0
        assert sc.zero_step_radius(0.25) == 1.0
        assert sc.zero_step_radius(1 / 32) == 8.0

    def test_domain(self):
        with pytest.raises(sc.OutOfDomainError):
            sc.zero_step_radius(0.0)


class TestRefinedRho:
    def test_limit_matches_refine_map(self):
        # the arc radius eps/(2 sin phi) through the chord, at the asymptotic
        # bound sin phi = eps/(4R) + 2K eps, reproduces the refinement map value
        K, R = 0.125, 2.0
        eps = 1e-6
        rho = eps / (2 * (eps / (4 * R) + 2 * K * eps))
        assert rho == pytest.approx(sc.refine_radius(R, K), rel=1e-5)


class TestRefineRadius:
    def test_values(self):
        assert sc.refine_radius(2.0, 0.125) == pytest.approx(4 / 3, abs=1e-15)
        assert sc.refine_radius(10.0, 0.1) == pytest.approx(20 / 9, abs=1e-14)

    def test_near_fixed_point(self):
        K = 0.125
        R = 1 / (8 * K) + 1e-12
        assert sc.refine_radius(R, K) == pytest.approx(R, abs=1e-12)

    def test_precondition(self):
        with pytest.raises(sc.PreconditionError):
            sc.refine_radius(1.0, 0.125)

    def test_fixed_point_identity_exact(self):
        for K in (0.01, 0.05, 0.125, 0.25, 1.0, 3.7, 10.0):
            r = 1.0 / (8.0 * K)
            assert radius_map(r, K) == r

    def test_map_monotone_on_nonnegatives(self):
        rng = np.random.default_rng(0)
        for K in (0.01, 0.125, 1.0, 10.0):
            x = np.sort(rng.uniform(0.0, 10.0 / K, 200))
            vals = np.array([radius_map(float(t), K) for t in x])
            assert np.all(np.diff(vals) > 0.0)


class TestRadiusFixedPoint:
    def test_unit_limit(self):
        seq = sc.radius_fixed_point(2.0, 0.125, 1e-9)
        assert seq.converged and abs(seq.values[-1] - 1.0) <= 1e-9

    def test_half_limit(self):
        seq = sc.radius_fixed_point(5.0, 0.25, 1e-9)
        assert abs(seq.values[-1] - 0.5) <= 1e-9

    def test_ellipse_chain(self):
        seq = sc.radius_fixed_point(sc.zero_step_radius(1 / 32), 1 / 32, 1e-9)
        assert abs(seq.values[-1] - 4.0) <= 1e-9

    def test_monotone_and_above_limit(self):
        for K in (0.01, 0.125, 0.25, 1.0):
            limit = 1 / (8 * K)
            for mult in (1.01, 2.0, 10.0, 1000.0):
                seq = sc.radius_fixed_point(mult * limit, K, 1e-9)
                vals = np.array(seq.values)
                assert np.all(np.diff(vals) < 0.0)
                assert np.all(vals > limit)
                assert seq.converged

    def test_not_converged_carries_partial(self):
        with pytest.raises(sc.NotConvergedError) as err:
            sc.radius_fixed_point(100.0, 0.125, 1e-9, max_iter=3)
        partial = err.value.partial
        assert partial is not None and not partial.converged
        assert len(partial.values) == 4

    def test_precondition(self):
        with pytest.raises(sc.PreconditionError):
            sc.radius_fixed_point(0.9, 0.125, 1e-9)

    def test_domain(self):
        for K in (0.0, -1.0):
            with pytest.raises(sc.PreconditionError):
                sc.radius_fixed_point(2.0, K, 1e-9)
        for tol in (0.0, -1e-9):
            with pytest.raises(sc.OutOfDomainError):
                sc.radius_fixed_point(2.0, 0.125, tol)

    def test_start_within_tol_takes_no_step(self):
        for K in (0.01, 0.125, 3.7):
            limit = 1 / (8 * K)
            for tol in (1e-9 * limit, 1e-3 * limit):
                for frac in (0.01, 0.5, 0.99):
                    seq = sc.radius_fixed_point(limit + frac * tol, K, tol)
                    assert seq.converged and seq.values == (limit + frac * tol,)

    def test_relative_gate_reached(self):
        # the gate modulus_planar applies to every planar body
        rng = np.random.default_rng(3)
        for _ in range(200):
            K = 10 ** rng.uniform(-3, 2)
            limit = 1 / (8 * K)
            seq = sc.radius_fixed_point(limit * rng.uniform(1.001, 3.0), K, tol=1e-9 * limit)
            assert seq.converged and abs(seq.values[-1] - limit) <= 1e-9 * limit

    def test_matches_iterated_map(self):
        rng = np.random.default_rng(11)
        for _ in range(1500):
            K = 10 ** rng.uniform(-3, 2)
            limit = 1 / (8 * K)
            R0 = limit * (1 + 10 ** rng.uniform(-6, 4))
            tol = limit * 10 ** rng.uniform(-12, -1)
            values, converged = iterated_fixed_point(R0, K, tol)
            seq = sc.radius_fixed_point(R0, K, tol)
            assert seq.converged and converged
            assert len(seq.values) == len(values)
            assert np.allclose(seq.values, values, rtol=1e-12, atol=0.0)

    def test_not_converged_partial_matches_iterated_map(self):
        with pytest.raises(sc.NotConvergedError) as err:
            sc.radius_fixed_point(1e6, 1.0, 1e-14, max_iter=20)
        values, converged = iterated_fixed_point(1e6, 1.0, 1e-14, max_iter=20)
        assert not converged and not err.value.partial.converged
        assert np.allclose(err.value.partial.values, values, rtol=1e-12, atol=0.0)


class TestSharpRadius:
    def test_values(self):
        assert sc.sharp_radius(0.125) == 1.0
        assert sc.sharp_radius(1 / 32) == 4.0
        assert sc.sharp_radius(1.0) == 0.125

    def test_domain(self):
        with pytest.raises(sc.OutOfDomainError):
            sc.sharp_radius(0.0)


def _exact_ball_curve(r, lo=0.01, hi=0.2, n=15):
    eps = np.linspace(lo, hi, n) * r
    return sc.ModulusCurve.from_arrays(
        eps, [sc.ball_modulus(r, float(t)) for t in eps], np.zeros(n))


class TestSharpnessCheck:
    def test_unit_disk_at_own_radius_passes(self):
        rep = sc.sharpness_check(_exact_ball_curve(1.0), 1.0)
        assert not rep.contradiction
        assert rep.fitted_constant == pytest.approx(0.125, abs=1e-3)
        assert rep.pointwise_violations == 0

    def test_unit_disk_smaller_radius_contradicts(self):
        rep = sc.sharpness_check(_exact_ball_curve(1.0), 0.9)
        assert rep.contradiction
        assert rep.radius == 0.9
        assert rep.required_constant == pytest.approx(1 / 7.2, abs=1e-12)

    def test_ellipse_curve_contradicts_radius_below_four(self):
        e = sc.Ellipsoid([0, 0], [2, 1])
        curve = sc.modulus_curve(e, np.linspace(0.08, 0.8, 10), 4096)
        rep = sc.sharpness_check(curve, 3.9)
        assert rep.contradiction

    def test_pipeline_consistency_on_balls(self):
        # fitted C feeds the whole radius chain back to the ball radius
        for r in (0.5, 1.0, 3.0):
            fit = sc.fit_second_order(_exact_ball_curve(r))
            assert sc.sharp_radius(fit.C) == pytest.approx(r, rel=0.01)
            assert sc.zero_step_radius(fit.C) == pytest.approx(2 * r, rel=0.01)
            seq = sc.radius_fixed_point(2 * r, fit.C, tol=1e-9 * r)
            assert seq.values[-1] == pytest.approx(sc.sharp_radius(fit.C), abs=1e-8 * r)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
class TestNonFiniteArguments:
    """NaN and infinite arguments raise instead of reaching a number or a verdict."""

    def test_radius_functions_raise(self, bad):
        for call in (lambda: sc.ball_modulus(bad, 0.1), lambda: sc.ball_modulus(1.0, bad),
                     lambda: sc.zero_step_radius(bad), lambda: sc.sharp_radius(bad),
                     lambda: radius_map(bad, 1.0), lambda: radius_map(1.0, bad),
                     lambda: sc.refine_radius(1.0, bad)):
            with pytest.raises(sc.OutOfDomainError):
                call()
        with pytest.raises((sc.OutOfDomainError, sc.PreconditionError)):
            sc.refine_radius(bad, 1.0)

    def test_sharpness_check_raises(self, bad):
        curve = _exact_ball_curve(1.0)
        with pytest.raises(sc.OutOfDomainError):
            sc.sharpness_check(curve, bad)
        with pytest.raises(sc.OutOfDomainError):
            sc.sharpness_check(curve, 1.0, margin=bad)

    def test_curve_rejects_the_eps(self, bad):
        for eps in ([bad, 0.2], [0.1, bad], [0.1, bad, 0.3]):
            with pytest.raises(ValueError):
                sc.ModulusCurve.from_arrays(eps, [0.01] * len(eps), [0.0] * len(eps))
