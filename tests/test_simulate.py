import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import ks_2samp, kstest

from spaceform_areas import (
    Geometry,
    JacobiParams,
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


def _cp_area(cfg):
    a = sample_area(Geometry.cp(1), cfg)
    return a.r_end, a.theta_end, a.time_change


def _cp_area_euler(cfg):
    a = sample_area(Geometry.cp(2), cfg, theta_coupling="euler")
    return a.r_end, a.theta_end, a.time_change


def _cp_girsanov_cos_r(cfg):
    # the cos r_t whose (cos r_t)^{-lam} girsanov_cf_estimator averages
    return (simulate._cp_area_phi(1, 2.0, cfg, simulate._block_rngs(cfg))[3],)


def _winding(geom, r0):
    def run(cfg):
        w = sample_winding(geom, r0, cfg)
        return w.phi_end, w.clock
    return run


class TestStreamDiscipline:
    """The clock-time samplers step every block of a call in one sweep
    loop; a block draws from its stream only while it has a live lane, so
    each block's lanes are those of the block stepped alone."""

    @pytest.mark.parametrize("run", [
        _cp_area, _cp_area_euler, _cp_girsanov_cos_r,
        _winding(Geometry.cp(1), 0.7), _winding(Geometry.ch(1), 0.9),
    ], ids=["area", "area-euler", "girsanov-cos-r", "winding-cp1",
            "winding-ch1"])
    def test_blocks_match_blocks_run_alone(self, run):
        m, extra, seed = simulate.BLOCK_SIZE, 300, 2718
        fused = run(SimConfig(0.5, 5e-3, m + extra, seed))
        head = run(SimConfig(0.5, 5e-3, m, seed))
        # block 1 alone: a one-block call whose block index is shifted by
        # one, so that it draws from block 1's streams
        block_rng = simulate._block_rng
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_block_rng",
                       lambda s, i: block_rng(s, i + 1))
            tail = run(SimConfig(0.5, 5e-3, extra, seed))
        for f, h, t in zip(fused, head, tail):
            np.testing.assert_array_equal(f[:m], h)
            np.testing.assert_array_equal(f[m:], t)


class TestSweepCap:
    @pytest.mark.parametrize("run,fine_sweeps", [
        (lambda cfg: sample_area(Geometry.cp(1), cfg),
         0.005 / simulate.FINE_DT),
        (lambda cfg: sample_winding(Geometry.cp(1), 0.7, cfg), 0.0),
    ], ids=["area", "winding"])
    def test_stuck_sampler_raises_quickly(self, run, fine_sweeps,
                                          monkeypatch):
        # with no step floor and no dive allowance every clock-time step is
        # h = min(dtau * rate, 0) = 0, so a lane in clock-time mode never
        # advances tau
        monkeypatch.setattr(simulate, "_H_FLOOR", 0.0)
        monkeypatch.setattr(simulate, "_DIVE_STEPS", math.inf)
        sweeps = []
        fill = simulate._fill_normals
        monkeypatch.setattr(simulate, "_fill_normals",
                            lambda *a: sweeps.append(1) or fill(*a))
        cfg = SimConfig(0.5, 1e-2, 64, 5)
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="failed to reach horizon"):
            run(cfg)
        assert time.perf_counter() - t0 < 30.0
        # one block, so one draw per sweep; the cap is the headroom times
        # the fine stretch (0.005 at FINE_DT) plus horizon / dt
        assert len(sweeps) == math.ceil(
            simulate._SWEEP_HEADROOM * (fine_sweeps + cfg.horizon / cfg.dt))


def _uncapped_time_grid(horizon, dt):
    """The refined grid with its fine stretch at 1% of the horizon, for
    any horizon; _time_grid caps that stretch at 0.05."""
    t_fine = 0.01 * horizon
    n_fine = int(math.ceil(t_fine / simulate.FINE_DT))
    rest = horizon - t_fine
    n_full = int(rest / dt)
    rem = rest - n_full * dt
    steps = [t_fine / n_fine] * n_fine + [dt] * n_full
    if rem > 1e-12 * horizon:
        steps.append(rem)
    return np.asarray(steps)


class TestTimeGrid:
    @pytest.mark.parametrize("horizon", [0.5, 2.0, 5.0, 6.0, 50.0, 100.0])
    @pytest.mark.parametrize("dt", [1e-3, 0.01, 0.05])
    def test_fine_stretch_capped(self, horizon, dt):
        dts = simulate._time_grid(SimConfig(horizon, dt, 1, 1), True)
        n_fine = int(np.argmax(dts > simulate.FINE_DT))
        assert n_fine >= 1
        assert dts[:n_fine].max() <= simulate.FINE_DT
        assert dts[:n_fine].sum() == pytest.approx(
            min(0.01 * horizon, 0.05), rel=1e-12)
        assert dts.sum() == pytest.approx(horizon, rel=1e-12)

    @pytest.mark.parametrize("horizon", [0.25, 0.5, 1.0, 2.0, 3.7, 5.0])
    @pytest.mark.parametrize("dt", [1e-3, 2e-3, 0.01, 0.05])
    def test_grid_unchanged_up_to_t5(self, horizon, dt):
        # 0.01 t <= 0.05 there, so the cap leaves every step's bits alone
        dts = simulate._time_grid(SimConfig(horizon, dt, 1, 1), True)
        np.testing.assert_array_equal(dts, _uncapped_time_grid(horizon, dt))


class TestRadialSpherical:
    def test_long_time_stationary_law(self):
        p = JacobiParams(1.0, 0.5)
        cfg = SimConfig(6.0, 2e-3, 4000, 99)
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


def _coth_residual(x, arg, b):
    return x - b / np.tanh(x) - arg


class TestImplicitCothSolve:
    """x = arg + b coth x, the implicit r-step of the CH samplers."""

    def test_exhausted_budget_raises(self, monkeypatch):
        monkeypatch.setattr(simulate, "_MAX_SOLVER_ITERS", 1)
        with pytest.raises(RuntimeError, match="largest residual"):
            simulate._implicit_coth_solve(np.array([0.3, -3.0]), 0.5)

    @given(x_star=st.lists(st.floats(1e-3, 60.0), min_size=1, max_size=32),
           z=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=32),
           dt=st.floats(1e-5, 0.05),
           n=st.integers(1, 3),
           lam=st.floats(0.0, 2.0))
    @settings(max_examples=80, deadline=None)
    def test_root_residual_and_bound(self, x_star, z, dt, n, lam):
        # b = (n - 1/2) dt as in the CH samplers; the first lanes are given
        # an arg whose root is exactly x_star, the rest a sampler step
        b = (n - 0.5) * dt
        x_star = np.asarray(x_star)
        at_root = x_star - b / np.tanh(x_star)
        stepped = (x_star[0] + (lam + 0.5) * math.tanh(x_star[0]) * dt
                   + math.sqrt(dt) * np.asarray(z))
        arg = np.concatenate([at_root, stepped])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_MAX_SOLVER_ITERS", 8)
            x = simulate._implicit_coth_solve(arg, b)
            alone = [simulate._implicit_coth_solve(arg[i:i + 1], b)[0]
                     for i in range(arg.size)]
        assert np.abs(_coth_residual(x, arg, b)).max() <= 1e-12
        # coth >= 1, and the residual bounds the root's error since the
        # map x - b coth x has slope >= 1
        assert np.all(x >= arg + b - 1e-12)
        assert np.abs(x[:x_star.size] - x_star).max() <= 1e-12
        # lanes are not frozen once converged, so a lane may take one more
        # Newton step than it needs alone; its root agrees to tolerance
        assert np.abs(x - alone).max() <= 2e-12


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

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_far_start_is_drifted_gaussian(self, n, lam):
        # past _R_FAR the drift is n + lam to double precision, so a block
        # started at r0 = 25 is finished in one closed-form draw
        t = 2.0
        res = sample_radial_hyperbolic(n, lam, 25.0,
                                       SimConfig(t, 0.05, 3000, 57 + n))
        stat = kstest(res.r_end, "norm",
                      args=(25.0 + (n + lam) * t, math.sqrt(t)))
        assert stat.pvalue > 0.01

    def test_far_start_clock_is_horizon(self):
        # tanh^2 r == 1 past _R_FAR, so the whole horizon is on the clock
        t = 3.0
        dts = simulate._time_grid(SimConfig(t, 0.05, 64, 1), False)
        r, clock, _ = simulate._hyperbolic_block(
            2, 0.0, 25.0, dts, np.random.default_rng(3), 64, True, False)
        assert np.abs(clock - t).max() <= 1e-12
        assert np.all(r > simulate._R_FAR)

    def test_near_block_draws_one_normal_per_step(self):
        # no lane reaches _R_FAR by t = 1, so the block draws exactly what
        # it did before the closed-form finish existed
        m = 16
        dts = simulate._time_grid(SimConfig(1.0, 0.01, m, 1), True)
        rng = np.random.default_rng(9)
        r, _, _ = simulate._hyperbolic_block(
            2, 0.0, simulate.EPS_START, dts, rng, m, True, False)
        assert r.max() < simulate._R_FAR
        ref = np.random.default_rng(9)
        for _ in dts:
            ref.standard_normal(m)
        assert ref.standard_normal() == rng.standard_normal()

    def test_long_horizon_lower_bound(self):
        # the slack only grows once the block finishes in closed form, so
        # its minimum over the stepped part is the pathwise minimum
        cfg = SimConfig(50.0, 0.05, 512, 271)
        res = sample_radial_hyperbolic(2, 0.0, 0.0, cfg, track_bound=True)
        assert res.min_bound_slack >= -16.0 * np.finfo(float).eps / cfg.dt
        assert res.r_end.min() > simulate._R_FAR


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
