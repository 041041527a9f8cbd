import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from spaceform_areas import (
    Geometry,
    SimConfig,
    empirical_cf,
    girsanov_cf_estimator,
    sample_area,
    sample_planar_area,
    sample_radial_hyperbolic,
    sample_winding,
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

    @pytest.mark.parametrize("field,args", [
        ("paths", (0.1, 1e-2, 8.5, 1)),
        ("paths", (0.1, 1e-2, 8.0, 1)),
        ("paths", (0.1, 1e-2, True, 1)),
        ("master_seed", (0.1, 1e-2, 8, 1.5)),
        ("master_seed", (0.1, 1e-2, 8, 1.0)),
        ("master_seed", (0.1, 1e-2, 8, True)),
        ("master_seed", (0.1, 1e-2, 8, "1")),
    ], ids=["paths-8.5", "paths-8.0", "paths-True", "seed-1.5", "seed-1.0",
            "seed-True", "seed-str"])
    def test_sim_config_rejects_non_integer_counts(self, field, args):
        # a float count used to construct and then fail every sampler with
        # a TypeError; True used to sample as 1
        with pytest.raises(ValueError, match=field):
            SimConfig(*args)

    def test_sim_config_accepts_numpy_integers(self):
        cfg = SimConfig(0.1, 1e-2, np.int64(8), np.uint64(3))
        ref = sample_area(Geometry.cp(1), SimConfig(0.1, 1e-2, 8, 3))
        got = sample_area(Geometry.cp(1), cfg)
        assert np.array_equal(got.theta_end, ref.theta_end)

    def test_geometry(self):
        with pytest.raises(ValueError):
            Geometry("sphere", 1)
        with pytest.raises(ValueError):
            Geometry.cp(0)
        assert Geometry.ch(2).kind == "ch"
        assert Geometry.cp(np.int64(2)).n == 2
        assert Geometry.ch(np.uint8(1)).n == 1

    def test_sim_config_rejects_infinite_horizon(self):
        # an infinite horizon has no step count, so it fails here rather
        # than in every sampler
        for horizon in (math.inf, math.nan):
            with pytest.raises(ValueError, match="horizon"):
                SimConfig(horizon, 1e-2, 8, 1)

    @pytest.mark.parametrize("n", [1.5, 2.0, True, np.float64(1.0), "1"],
                             ids=["1.5", "2.0", "True", "float64", "str"])
    def test_geometry_rejects_non_integer_n(self, n):
        for kind in ("cp", "ch"):
            with pytest.raises(ValueError, match="n must be a positive int"):
                Geometry(kind, n)

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

    def test_ch_girsanov_byte_identical_across_threads(self):
        # girsanov_cf_estimator on CH^n steps three blocks of the tilted
        # radial sampler, on the pool at 3 threads; its mean barely sees
        # the block order, so the tilted endpoints are compared as well
        cfg = SimConfig(1.0, 1e-2, 2 * simulate.BLOCK_SIZE + 300, 99)
        g1, g3 = (girsanov_cf_estimator(Geometry.ch(1), 2.0, cfg,
                                        threads=threads)
                  for threads in (1, 3))
        assert g1.value.real.hex() == g3.value.real.hex()
        assert g1.std_error.hex() == g3.std_error.hex()
        r1, r3 = (sample_radial_hyperbolic(1, 2.0, 0.0, cfg,
                                           threads=threads).r_end
                  for threads in (1, 3))
        assert np.array_equal(r1, r3)

    def test_winding_byte_identical_across_threads(self):
        cfg = SimConfig(1.0, 5e-3, 9000, 7)
        w1 = sample_winding(Geometry.ch(1), 0.8, cfg, threads=1)
        w4 = sample_winding(Geometry.ch(1), 0.8, cfg, threads=4)
        assert np.array_equal(w1.phi_end, w4.phi_end)
        assert np.array_equal(w1.clock, w4.clock)

    @pytest.mark.parametrize("run", [
        lambda cfg, th: sample_area(Geometry.cp(1), cfg, threads=th),
        lambda cfg, th: sample_area(Geometry.ch(2), cfg, threads=th),
        lambda cfg, th: girsanov_cf_estimator(Geometry.cp(1), 1.5, cfg,
                                              threads=th),
        lambda cfg, th: girsanov_cf_estimator(Geometry.ch(1), 1.5, cfg,
                                              threads=th),
        lambda cfg, th: sample_radial_hyperbolic(1, 0.5, 0.0, cfg,
                                                 track_bound=True,
                                                 threads=th),
        lambda cfg, th: sample_winding(Geometry.cp(1), 0.7, cfg, threads=th),
        lambda cfg, th: sample_winding(Geometry.ch(1), 0.9, cfg, threads=th),
        lambda cfg, th: sample_planar_area(0.05, cfg, threads=th),
    ], ids=["area-cp", "area-ch", "girsanov-cp", "girsanov-ch", "radial",
            "winding-cp1", "winding-ch1", "planar"])
    def test_every_sampler_identical_at_1_2_4_threads(self, run):
        # nine blocks, the last one partial: at 2 and 4 threads the
        # clock-time samplers step them as two groups (4 + 5 blocks), the
        # fixed-grid ones as two and four groups
        cfg = SimConfig(0.05, 1e-2, 8 * simulate.BLOCK_SIZE + 300, 2025)
        ref = _fields(run(cfg, 1))
        for threads in (2, 4):
            for got, want in zip(_fields(run(cfg, threads)), ref,
                                 strict=True):
                np.testing.assert_array_equal(got, want)

    def test_seed_changes_output(self):
        cfg1 = SimConfig(0.5, 5e-3, 256, 1)
        cfg2 = SimConfig(0.5, 5e-3, 256, 2)
        a = sample_area(Geometry.cp(1), cfg1)
        b = sample_area(Geometry.cp(1), cfg2)
        assert not np.array_equal(a.r_end, b.r_end)


def _fields(result):
    """The values of a sampler's result, a tuple or a dataclass."""
    if isinstance(result, tuple):
        return result
    return tuple(vars(result).values())


def _cp_area(cfg):
    a = sample_area(Geometry.cp(1), cfg)
    return a.r_end, a.theta_end, a.time_change


def _cp2_area(cfg):
    a = sample_area(Geometry.cp(2), cfg)
    return a.r_end, a.theta_end, a.time_change


def _cp_girsanov_cos_r(cfg):
    # the cos r_t whose (cos r_t)^{-lam} girsanov_cf_estimator averages
    return (simulate._cp_area_phi(1, 2.0, cfg, simulate._block_rngs(cfg))[2],)


def _winding(geom, r0):
    def run(cfg):
        w = sample_winding(geom, r0, cfg)
        return w.phi_end, w.clock
    return run


class TestStreamDiscipline:
    """A clock-time sampler steps every block of a group in one sweep
    loop; a block draws from its stream only while it has a live lane, so
    each block's lanes are those of the block stepped alone."""

    @pytest.mark.parametrize("run", [
        _cp_area, _cp2_area, _cp_girsanov_cos_r,
        _winding(Geometry.cp(1), 0.7), _winding(Geometry.ch(1), 0.9),
    ], ids=["area", "area-cp2", "girsanov-cos-r", "winding-cp1",
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


class TestRunBlocks:
    @staticmethod
    def _run(monkeypatch, blocks, threads, sweep):
        """The block indices of each step call and the number of groups
        of a _run_blocks call over `blocks` blocks, the last one partial,
        each block's stream replaced by its index.  The first group runs
        on the calling thread, each other one is submitted to the pool."""
        monkeypatch.setattr(simulate, "_block_rng", lambda seed, i: i)
        submitted = []

        class Pool(ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                submitted.append(args)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", Pool)
        paths = blocks * simulate.BLOCK_SIZE - 100
        calls = []

        def step(sub, rngs):
            calls.append(rngs)
            stop = min(paths, (rngs[-1] + 1) * simulate.BLOCK_SIZE)
            assert sub.paths == stop - rngs[0] * simulate.BLOCK_SIZE
            return np.asarray(rngs), np.full(sub.paths, rngs[0])

        index, first = simulate._run_blocks(SimConfig(1.0, 0.1, paths, 5),
                                            step, threads, sweep)
        np.testing.assert_array_equal(index, np.arange(blocks))
        assert first.size == paths
        return calls, 1 + len(submitted)

    @pytest.mark.parametrize("blocks,threads,groups", [
        (1, 1, 1), (2, 2, 1), (7, 2, 1), (8, 2, 2), (9, 2, 2), (9, 4, 2),
        (16, 4, 4), (17, 3, 3), (3, 8, 1)])
    def test_clock_time_groups(self, monkeypatch, blocks, threads, groups):
        # one step call per group: contiguous, in block order, at most
        # `threads` of them and at least 4 blocks each when split
        calls, n_groups = self._run(monkeypatch, blocks, threads, True)
        assert n_groups == len(calls) == groups
        for call in calls:
            assert call == list(range(call[0], call[-1] + 1))
            assert groups == 1 or len(call) >= 4

    @pytest.mark.parametrize("blocks,threads,groups", [
        (1, 1, 1), (2, 2, 2), (4, 2, 2), (3, 8, 3), (9, 4, 4)])
    def test_fixed_grid_steps_block_by_block(self, monkeypatch, blocks,
                                             threads, groups):
        # levy-baseline's 4 blocks at 2 threads still split into 2 groups
        calls, n_groups = self._run(monkeypatch, blocks, threads, False)
        assert n_groups == groups
        assert sorted(calls) == [[i] for i in range(blocks)]

    @pytest.mark.parametrize("paths,threads,groups", [
        (8192, 2, [8192]), (8192, 4, [8192]),
        (9 * 4096, 2, [4 * 4096, 5 * 4096])])
    def test_cp_call_groups(self, monkeypatch, paths, threads, groups):
        # a 2-block CP call at 2 threads stays one group, as cp-area-cf's
        # calls in the short-horizon benchmark do
        seen = []
        cp_area_phi = simulate._cp_area_phi

        def record(n, lam, cfg, rngs):
            seen.append(cfg.paths)
            return cp_area_phi(n, lam, cfg, rngs)

        monkeypatch.setattr(simulate, "_cp_area_phi", record)
        sample_area(Geometry.cp(1), SimConfig(0.02, 1e-2, paths, 3),
                    threads=threads)
        assert sorted(seen) == groups

    @pytest.mark.parametrize("geom", [Geometry.cp(1), Geometry.ch(1)])
    def test_numpy_integer_paths_and_seed(self, geom):
        # numpy integers reach the Philox key as block indices and seed
        paths = 9 * simulate.BLOCK_SIZE
        ref = sample_area(geom, SimConfig(0.02, 1e-2, paths, 3))
        got = sample_area(geom, SimConfig(0.02, 1e-2, np.int64(paths),
                                          np.uint64(3)), threads=2)
        for g, r in zip(_fields(got), _fields(ref), strict=True):
            np.testing.assert_array_equal(g, r)


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


# The Newton solves of x = arg + b1 cot x - b2 tan x and x = arg + b coth x
# that the CP and CH samplers used before their closed-form steps, kept
# verbatim (with their iteration budget and residual tolerance) as the exact
# roots those steps are checked against.

_REF_MAX_ITERS = 60
_REF_TOL = 1e-12


def _reference_cot_tan_solve(arg, b1, b2):
    u_cap = 28.0
    lo = np.full_like(arg, -u_cap)
    hi = np.full_like(arg, u_cap)
    c = math.pi / 2.0 - arg
    x0 = np.where(arg < math.pi / 4.0,
                  0.5 * (arg + np.sqrt(arg * arg + 4.0 * b1)),
                  math.pi / 2.0 - 0.5 * (c + np.sqrt(c * c + 4.0 * b2)))
    np.clip(x0, 1e-12, math.pi / 2.0 - 1e-12, out=x0)
    u = np.clip(np.log(np.tan(x0)), -u_cap, u_cap)
    for _ in range(_REF_MAX_ITERS + 1):
        e = np.exp(u)
        einv = 1.0 / e
        h = np.arctan(e) - b1 * einv + b2 * e - arg
        live = np.abs(h) >= _REF_TOL
        if not live.any():
            return np.arctan(e)
        np.copyto(lo, u, where=h < 0)
        np.copyto(hi, u, where=h > 0)
        hp = e / (1.0 + e * e) + b1 * einv + b2 * e
        u_new = u - h / hp
        bad = (u_new <= lo) | (u_new >= hi)
        u_new = np.where(bad, 0.5 * (lo + hi), u_new)
        np.copyto(u, u_new, where=live)
    raise RuntimeError(
        f"implicit cot/tan solve not converged after "
        f"{_REF_MAX_ITERS} "
        f"steps: largest residual {np.abs(h).max():.3g}")


def _reference_coth_solve(arg, b):
    x = 0.5 * (arg + np.sqrt(arg * arg + 4.0 * b))
    np.clip(x, 1e-12, None, out=x)
    for _ in range(_REF_MAX_ITERS + 1):
        th = np.tanh(x)
        g = x - b / th - arg
        if np.all(np.abs(g) < _REF_TOL):
            return x
        sh2 = np.sinh(np.minimum(x, 350.0)) ** 2
        gp = 1.0 + b / np.maximum(sh2, 1e-300)
        x = x - g / gp
        np.clip(x, 1e-12, None, out=x)
    raise RuntimeError(
        f"implicit coth solve not converged after "
        f"{_REF_MAX_ITERS} "
        f"steps: largest residual {np.abs(g).max():.3g}")


def _cot_tan_root(arg, b1, b2):
    """The reference root after one more Newton step in x, which leaves it
    accurate to rounding rather than to the solver's residual tolerance."""
    x = _reference_cot_tan_solve(arg, b1, b2)
    t = np.tan(x)
    h = x - b1 / t + b2 * t - arg
    return x - h / (1.0 + b1 / np.sin(x) ** 2 + b2 / np.cos(x) ** 2)


class TestCotTanStep:
    """x = arg + b1 cot x - b2 tan x in closed form, the r-step of the CP
    area and Girsanov samplers, against the root of
    _reference_cot_tan_solve."""

    # Near the root the step's error is F'^2 (y_up - y*) to leading order,
    # with |F'| <= p g' + q sec^2 y and y_up - y* <= p g + q tan y.  Since
    # y <= pi/4 + O(b), that is at most (0.38 + 2)^2 (0.28 + 1) b^3, about
    # 7.2 b^3; the largest seen over this domain was 6.9 b^3.
    ERR_C = 8.0
    ULPS = 4.0 * np.spacing(math.pi / 2)

    @given(x_star=st.lists(st.floats(0.05, math.pi / 2 - 0.05),
                           min_size=1, max_size=32),
           steps=st.lists(st.tuples(st.floats(simulate.EPS_START,
                                              math.pi / 4),
                                    st.floats(-6.0, 6.0)),
                          min_size=1, max_size=32),
           dt=st.floats(1e-5, 0.05),
           n=st.integers(1, 3),
           lam=st.floats(0.0, 2.0))
    @example(x_star=[0.05, math.pi / 4, math.pi / 2 - 0.05],
             steps=[(simulate.EPS_START, -6.0), (math.pi / 4, 0.0),
                    (math.pi / 4, 6.0)], dt=0.05, n=3, lam=2.0)
    @settings(max_examples=80, deadline=None)
    def test_bracketed_by_its_two_evaluations(self, x_star, steps, dt, n,
                                              lam):
        # b1 = (n - 1/2) dt and b2 = (lam + 1/2) dt as in the CP sampler;
        # the first lanes are given an arg whose root is exactly x_star,
        # the rest a sampler step r + sqrt(dt) z from an r-mode radius
        b1, b2 = (n - 0.5) * dt, (lam + 0.5) * dt
        x_star = np.asarray(x_star)
        at_root = x_star - b1 / np.tan(x_star) + b2 * np.tan(x_star)
        r, z = (np.asarray(v) for v in zip(*steps))
        arg = np.concatenate([at_root, r + math.sqrt(dt) * z])
        x = simulate._cot_tan_step(arg, b1, b2)
        root = _cot_tan_root(arg, b1, b2)
        assert np.all((x > 0.0) & (x < math.pi / 2))
        # in the branch variable y, the first evaluation y1 = F(y_up) lies
        # below the root and the step y = F(y1) above it
        near = arg < math.pi / 4
        a = np.where(near, arg, math.pi / 2 - arg)
        p, q = np.where(near, b1, b2), np.where(near, b2, b1)

        def big_q(c):
            return 0.5 * (c + np.sqrt(c * c + 4.0 * p))

        y_up = big_q(a)
        y1 = big_q(a - p * (1.0 / y_up - 1.0 / np.tan(y_up))
                   - q * np.tan(y_up))
        y = np.where(near, x, math.pi / 2 - x)
        y_star = np.where(near, root, math.pi / 2 - root)
        assert np.all(y1 <= y_star + self.ULPS)
        assert np.all(y_star <= y + self.ULPS)
        assert np.all(y <= y_up + self.ULPS)
        b = max(b1, b2)
        assert np.abs(x - root).max() <= self.ERR_C * b ** 3 + self.ULPS
        # a lane's step depends on its own arg only
        alone = [simulate._cot_tan_step(arg[i:i + 1], b1, b2)[0]
                 for i in range(arg.size)]
        assert np.array_equal(x, alone)


class TestCothStep:
    """x = arg + b coth x in closed form, the r-step of the CH samplers,
    against the Newton root of _reference_coth_solve."""

    @given(x_star=st.lists(st.floats(1e-3, 60.0), min_size=1, max_size=32),
           z=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=32),
           dt=st.floats(1e-5, 0.05),
           n=st.integers(1, 3),
           lam=st.floats(0.0, 2.0))
    @example(x_star=[1e-3, 0.05, 2.0], z=[-6.0, 0.0, 6.0], dt=0.05, n=3,
             lam=2.0)
    @settings(max_examples=80, deadline=None)
    def test_bracketed_by_root_and_bound(self, x_star, z, dt, n, lam):
        # b = (n - 1/2) dt as in the CH samplers; the first lanes are given
        # an arg whose root is exactly x_star, the rest a sampler step
        b = (n - 0.5) * dt
        x_star = np.asarray(x_star)
        at_root = x_star - b / np.tanh(x_star)
        stepped = (x_star[0] + (lam + 0.5) * math.tanh(x_star[0]) * dt
                   + math.sqrt(dt) * np.asarray(z))
        arg = np.concatenate([at_root, stepped])
        x = simulate._coth_step(arg, b)
        # the step lies outward of the exact root by at most b^2/3
        dev = x - _reference_coth_solve(arg, b)
        assert dev.min() >= -2e-12
        assert dev.max() <= b * b / 3.0 + 2e-12
        # the per-step lower bound that track_bound checks
        assert np.all(x >= arg + b - 1e-12)
        # a lane's step depends on its own arg only
        alone = [simulate._coth_step(arg[i:i + 1], b)[0]
                 for i in range(arg.size)]
        assert np.array_equal(x, alone)


class TestRadialHyperbolic:
    def test_transience_lower_bound(self):
        # the semi-implicit step preserves r_{k+1} >= r_k + (n-1/2) dt + dW
        for n in (1, 2):
            cfg = SimConfig(2.0, 1e-3, 1000, 31)
            res = sample_radial_hyperbolic(n, 0.0, 0.0, cfg, track_bound=True)
            assert res.min_bound_slack >= -1e-9
            assert np.all(res.r_end > 0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_cosh_moment_from_the_pole(self, n):
        # L cosh 2r = (2n + 2) cosh 2r + 2n - 2 at lam = 0, so from the pole
        # E[cosh 2r_t] = (2n/(n+1)) e^{2(n+1)t} - (n-1)/(n+1).  At t = 1 the
        # scheme's bias is well inside 3 SE; the lag at small t is not
        # checked here.
        t = 1.0
        r = sample_radial_hyperbolic(
            n, 0.0, 0.0, SimConfig(t, 1e-3, 65536, 20 + n)).r_end
        c = np.cosh(2.0 * r)
        exact = (2.0 * n / (n + 1) * math.exp(2.0 * (n + 1) * t)
                 - (n - 1) / (n + 1))
        se = c.std(ddof=1) / math.sqrt(c.size)
        assert abs(c.mean() - exact) <= 3.0 * se

    @pytest.mark.parametrize("field,args", [
        ("n", (1.5, 0.0, 0.0)),
        ("n", (True, 0.0, 0.0)),
        ("girsanov_lambda", (1, math.inf, 0.0)),
        ("girsanov_lambda", (1, math.nan, 0.0)),
        ("r0", (1, 0.0, math.inf)),
        ("r0", (1, 0.0, math.nan)),
    ], ids=["n-1.5", "n-True", "lam-inf", "lam-nan", "r0-inf", "r0-nan"])
    def test_rejects_non_finite_or_non_integer_input(self, field, args):
        # a non-finite start or tilt gives all-inf or NaN radii, and a
        # fractional n is no dimension
        with pytest.raises(ValueError, match=f"^{field} must be"):
            sample_radial_hyperbolic(*args, SimConfig(0.1, 1e-2, 8, 1))

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

    @pytest.mark.parametrize("n", [1, 2])
    def test_cos_moment_from_the_pole(self, n):
        # L cos 2r = -(2n + 2) cos 2r - 2n + 2 at lam = 0, so from the pole
        # E[cos 2r_t] = (2n e^{-2(n+1)t} - (n - 1))/(n + 1).  At t = 1 no
        # bias shows on CP^1; on CP^2 the mean reads about 3.6e-3 low, near
        # 2 SE at this size.  The radial lag at small t is ROADMAP item 2's
        # and is not checked here.
        t = 1.0
        r = sample_area(Geometry.cp(n), SimConfig(t, 1e-3, 65536, 30 + n)).r_end
        c = np.cos(2.0 * r)
        exact = (2.0 * n * math.exp(-2.0 * (n + 1) * t) - (n - 1)) / (n + 1)
        se = c.std(ddof=1) / math.sqrt(c.size)
        assert abs(c.mean() - exact) <= 3.0 * se

    def test_cp_step_limit_raises(self):
        # the closed-form r-step needs (n - 1/2) dt and (lam + 1/2) dt
        # below pi^2/8; a raised error, not an assert
        with pytest.raises(ValueError, match="pi\\^2/8"):
            sample_area(Geometry.cp(3), SimConfig(1.0, 0.5, 8, 1))
        with pytest.raises(ValueError, match="pi\\^2/8"):
            girsanov_cf_estimator(Geometry.cp(1), 2.0,
                                  SimConfig(1.0, 0.5, 8, 1))
        sample_area(Geometry.cp(2), SimConfig(1.0, 0.8, 8, 1))


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

    @pytest.mark.parametrize("geom", [Geometry.cp(1), Geometry.ch(1)],
                             ids=["cp1", "ch1"])
    @pytest.mark.parametrize("lam", [math.inf, math.nan], ids=["inf", "nan"])
    def test_rejects_non_finite_lambda(self, geom, lam):
        # at lam = inf every CH weight is 0 and e^{inf} * 0 is NaN, which
        # the weight check does not see; raise before any sampling
        with pytest.raises(ValueError, match="lam must be nonnegative and "
                                             "finite"):
            girsanov_cf_estimator(geom, lam, SimConfig(0.1, 1e-2, 8, 1))

    def test_ch_nan_weight_raises(self, monkeypatch):
        # a raised error, not an assert, so that python -O keeps the check
        monkeypatch.setattr(
            simulate, "sample_radial_hyperbolic",
            lambda *args, **kwargs: simulate.RadialSamples(
                np.array([0.5, math.nan])))
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
