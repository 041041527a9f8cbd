import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import ks_2samp, kstest

from spaceform_areas import (
    Geometry,
    JacobiParams,
    Scheme,
    SeriesControl,
    SimConfig,
    empirical_cf,
    girsanov_cf_estimator,
    sample_area,
    sample_planar_area,
    sample_radial_hyperbolic,
    sample_radial_spherical,
    sample_winding,
    stationary_spherical_density,
    SampleSet,
)
from spaceform_areas import simulate


class TestConfigValidation:
    def test_sim_config(self):
        with pytest.raises(ValueError):
            SimConfig(0.0, 1e-3, 10, 1)
        with pytest.raises(ValueError):
            SimConfig(1.0, 2.0, 10, 1)
        with pytest.raises(ValueError):
            SimConfig(1.0, 1e-3, 0, 1)
        with pytest.raises(ValueError):
            SimConfig(1.0, 1e-3, 10, -1)
        with pytest.raises(ValueError):
            SimConfig(1.0, 1e-3, 10, 1, scheme="euler_rho")

    def test_geometry(self):
        with pytest.raises(ValueError):
            Geometry("sphere", 1)
        with pytest.raises(ValueError):
            Geometry.cp(0)
        assert Geometry.ch(2).kind == "ch"

    def test_winding_domain(self):
        cfg = SimConfig(1.0, 1e-2, 16, 3)
        with pytest.raises(ValueError):
            sample_winding(Geometry.cp(2), 0.5, cfg)
        with pytest.raises(ValueError):
            sample_winding(Geometry.cp(1), 0.0, cfg)
        with pytest.raises(ValueError):
            sample_winding(Geometry.ch(1), -0.3, cfg)


class TestDeterminism:
    def test_area_byte_identical_across_threads(self):
        cfg = SimConfig(1.0, 5e-3, 9000, 2024)
        for geom in (Geometry.cp(1), Geometry.ch(2)):
            a1 = sample_area(geom, cfg, threads=1)
            a3 = sample_area(geom, cfg, threads=3)
            assert np.array_equal(a1.r_end, a3.r_end)
            assert np.array_equal(a1.theta_end, a3.theta_end)
            assert np.array_equal(a1.time_change, a3.time_change)

    def test_winding_byte_identical_across_threads(self):
        cfg = SimConfig(1.0, 5e-3, 9000, 7)
        w1 = sample_winding(Geometry.ch(1), 0.8, cfg, threads=1)
        w4 = sample_winding(Geometry.ch(1), 0.8, cfg, threads=4)
        assert np.array_equal(w1.phi_end, w4.phi_end)
        assert np.array_equal(w1.clock, w4.clock)

    def test_seed_changes_output(self):
        cfg1 = SimConfig(0.5, 5e-3, 256, 1)
        cfg2 = SimConfig(0.5, 5e-3, 256, 2)
        a = sample_area(Geometry.cp(1), cfg1)
        b = sample_area(Geometry.cp(1), cfg2)
        assert not np.array_equal(a.r_end, b.r_end)


class TestRadialSpherical:
    @pytest.mark.parametrize("scheme", [Scheme.EULER_RHO,
                                        Scheme.SEMI_IMPLICIT_R])
    def test_long_time_stationary_law(self, scheme):
        p = JacobiParams(1.0, 0.5)
        cfg = SimConfig(6.0, 2e-3, 4000, 99, scheme=scheme)
        res = sample_radial_spherical(p, 0.0, cfg)
        grid = np.linspace(1e-6, math.pi / 2 - 1e-6, 400)
        pdf = np.array([stationary_spherical_density(p, r) for r in grid])
        cdf_grid = np.concatenate(
            [[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))])
        cdf_grid /= cdf_grid[-1]
        stat = kstest(res.r_end, lambda x: np.interp(x, grid, cdf_grid))
        assert stat.pvalue > 0.01

    def test_range_and_clock(self):
        cfg = SimConfig(1.0, 1e-3, 2000, 5)
        res = sample_radial_spherical(JacobiParams(1.0, 0.7), 0.3, cfg,
                                      record_clock="tan2")
        assert np.all(res.r_end > 0) and np.all(res.r_end < math.pi / 2)
        assert np.all(res.clock > 0)

    def test_requires_trig_regime_and_bounds(self):
        cfg = SimConfig(1.0, 1e-2, 8, 1)
        with pytest.raises(ValueError):
            sample_radial_spherical(JacobiParams(-0.5, 0.0), 0.3, cfg)
        with pytest.raises(ValueError):
            sample_radial_spherical(JacobiParams(1.0, 0.0), 1.6, cfg)


def _cot_tan_residual(x, arg, b1, b2):
    return x - b1 / np.tan(x) + b2 * np.tan(x) - arg


class TestImplicitCotTanSolve:
    """x = arg + b1 cot x - b2 tan x, the implicit r-step of the CP area
    sampler and of the semi-implicit spherical sampler."""

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_converges_within_small_budget(self, lam, monkeypatch):
        # lanes drawn as the CP sampler steps them; a lane that reaches its
        # root early must stay there while the rest of the block converges
        monkeypatch.setattr(simulate, "_MAX_SOLVER_ITERS", 8)
        rng = np.random.default_rng(1602)
        dt, n, m = 1e-3, 1, 4096
        r = rng.uniform(0.0, math.pi / 2, m)
        arg = r + math.sqrt(dt) * rng.standard_normal(m)
        b1, b2 = (n - 0.5) * dt, (lam + 0.5) * dt
        x = simulate._implicit_cot_tan_solve(arg, b1, b2)
        assert np.all((x > 0.0) & (x < math.pi / 2))
        assert np.abs(_cot_tan_residual(x, arg, b1, b2)).max() <= 1e-12

    def test_exhausted_budget_raises(self, monkeypatch):
        monkeypatch.setattr(simulate, "_MAX_SOLVER_ITERS", 1)
        with pytest.raises(RuntimeError, match="largest residual"):
            simulate._implicit_cot_tan_solve(np.array([0.3, 1.2]), 5e-3, 5e-3)

    @given(x_star=st.lists(st.floats(1e-3, math.pi / 2 - 1e-3),
                           min_size=1, max_size=32),
           z=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=32),
           dt=st.floats(1e-5, 0.05),
           c1=st.floats(0.5, 3.5),
           c2=st.floats(0.5, 3.5))
    @settings(max_examples=80, deadline=None)
    def test_root_residual_and_range(self, x_star, z, dt, c1, c2):
        # b1 = (n - 1/2) dt and b2 = (lam + 1/2) dt as in the CP sampler
        # (alpha + 1/2, beta + 1/2 in the spherical one); the first lanes
        # are given an arg whose root is exactly x_star
        b1, b2 = c1 * dt, c2 * dt
        x_star = np.asarray(x_star)
        at_root = x_star - b1 / np.tan(x_star) + b2 * np.tan(x_star)
        stepped = x_star[0] + math.sqrt(dt) * np.asarray(z)
        arg = np.concatenate([at_root, stepped])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_MAX_SOLVER_ITERS", 8)
            x = simulate._implicit_cot_tan_solve(arg, b1, b2)
            alone = [simulate._implicit_cot_tan_solve(arg[i:i + 1], b1, b2)[0]
                     for i in range(arg.size)]
        assert np.all((x > 0.0) & (x < math.pi / 2))
        assert np.abs(_cot_tan_residual(x, arg, b1, b2)).max() <= 1e-12
        assert np.abs(x[:x_star.size] - x_star).max() <= 1e-12
        # a lane's root does not depend on the other lanes in its call
        np.testing.assert_array_equal(x, alone)


class TestRadialHyperbolic:
    def test_transience_lower_bound(self):
        # the semi-implicit step preserves r_{k+1} >= r_k + (n-1/2) dt + dW
        for n in (1, 2):
            cfg = SimConfig(2.0, 1e-3, 1000, 31)
            res = sample_radial_hyperbolic(n, 0.0, 0.0, cfg, track_bound=True)
            assert res.min_bound_slack >= -1e-9
            assert np.all(res.r_end > 0)

    def test_girsanov_tilt_pushes_outward(self):
        cfg = SimConfig(1.0, 1e-3, 4000, 11)
        r_plain = sample_radial_hyperbolic(1, 0.0, 0.0, cfg).r_end
        r_tilt = sample_radial_hyperbolic(1, 2.0, 0.0, cfg).r_end
        assert r_tilt.mean() > r_plain.mean()


class TestAreaSamplers:
    def test_ch_time_change_bounded_by_horizon(self):
        # tanh^2 <= 1, so the time change cannot exceed t
        cfg = SimConfig(2.0, 2e-3, 3000, 13)
        res = sample_area(Geometry.ch(1), cfg)
        assert np.all(res.time_change > 0)
        assert np.all(res.time_change <= cfg.horizon + 1e-12)

    def test_theta_symmetric_and_mean_zero(self):
        cfg = SimConfig(1.0, 2e-3, 20000, 17)
        res = sample_area(Geometry.cp(1), cfg)
        se = res.theta_end.std(ddof=1) / math.sqrt(len(res.theta_end))
        assert abs(res.theta_end.mean()) < 4 * se

    @pytest.mark.parametrize("geom", [Geometry.cp(1), Geometry.ch(1)])
    def test_conditional_vs_euler_coupling(self, geom):
        # the exact-Gaussian theta draw and the stepwise Euler coupling
        # must produce the same law
        cfg_a = SimConfig(1.0, 1e-3, 20000, 23)
        cfg_b = SimConfig(1.0, 1e-3, 20000, 24)
        a = sample_area(geom, cfg_a, theta_coupling="conditional")
        b = sample_area(geom, cfg_b, theta_coupling="euler")
        assert ks_2samp(a.theta_end, b.theta_end).pvalue > 0.01
        assert ks_2samp(a.r_end, b.r_end).pvalue > 0.01

    def test_rejects_bad_coupling(self):
        with pytest.raises(ValueError):
            sample_area(Geometry.cp(1), SimConfig(1.0, 1e-2, 8, 1),
                        theta_coupling="exact")


class TestGirsanov:
    def test_lambda_zero_exact(self):
        est = girsanov_cf_estimator(Geometry.cp(1), 0.0,
                                    SimConfig(1.0, 1e-2, 64, 1))
        assert est.value == 1.0 + 0j
        assert est.std_error == 0.0

    def test_ch_weights_bounded(self):
        est = girsanov_cf_estimator(Geometry.ch(1), 1.0,
                                    SimConfig(0.5, 1e-3, 4000, 3))
        assert 0.0 < est.value.real <= 1.0
        assert est.std_error > 0

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            girsanov_cf_estimator(Geometry.cp(1), -1.0,
                                  SimConfig(1.0, 1e-2, 8, 1))

    def test_ch_nan_weight_raises(self, monkeypatch):
        # a raised error, not an assert, so that python -O keeps the check
        monkeypatch.setattr(
            simulate, "sample_radial_hyperbolic",
            lambda *args, **kwargs: simulate.RadialSamples(
                np.array([0.5, math.nan]), np.zeros(2)))
        with pytest.raises(RuntimeError):
            girsanov_cf_estimator(Geometry.ch(1), 1.0,
                                  SimConfig(0.5, 1e-2, 2, 3))


class TestWinding:
    def test_clock_positive_no_caps(self):
        cfg = SimConfig(1.0, 5e-3, 5000, 41)
        for geom, r0 in ((Geometry.cp(1), 0.7), (Geometry.ch(1), 0.9)):
            w = sample_winding(geom, r0, cfg)
            assert np.all(w.clock > 0)
            assert w.cap_count == 0
            se = w.phi_end.std(ddof=1) / math.sqrt(len(w.phi_end))
            assert abs(w.phi_end.mean()) < 4 * se


class TestPlanar:
    def test_area_cf_matches_sech(self):
        cfg = SimConfig(1.0, 1e-3, 40000, 51)
        _, s = sample_planar_area(1.0, cfg)
        lam = 1.0
        est = empirical_cf(SampleSet(s), lam)
        target = 1.0 / math.cosh(lam)
        assert abs(est.value - target) < 3.0 * est.std_error

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            sample_planar_area(-1.0, SimConfig(1.0, 1e-2, 8, 1))
