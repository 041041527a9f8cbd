import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.stats import kstest

from spaceform_areas import (
    Geometry,
    SimConfig,
    cf_marginal_cp,
    empirical_cf,
    girsanov_cf_estimator,
    sample_area,
    sample_planar_area,
    sample_radial_hyperbolic,
    sample_winding,
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

    @pytest.mark.parametrize("n", [1.5, 2.0, True, math.inf,
                                   np.float64(1.0), "1"],
                             ids=["1.5", "2.0", "True", "inf", "float64",
                                  "str"])
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

    @pytest.mark.parametrize("r0,stepped", [(9.5, True), (9.6, False)])
    def test_ch_winding_r0_limit_is_where_every_lane_retires(self, r0,
                                                             stepped):
        # check_ch_winding_r0 rejects exactly the r0 from which the sampler
        # retires every CH^1 lane at t = 0, leaving a clock of 0
        w = sample_winding(Geometry.ch(1), r0, SimConfig(1.0, 1e-2, 64, 3))
        assert bool(np.any(w.clock > 0.0)) == stepped
        if stepped:
            simulate.check_ch_winding_r0(r0)
        else:
            with pytest.raises(ValueError, match="every lane retires"):
                simulate.check_ch_winding_r0(r0)


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
        lambda cfg, th: sample_planar_area(cfg, threads=th),
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


class TestBlockStreams:
    @pytest.mark.parametrize("seed,block", [
        (0, 0), (20240601, 1), (2 ** 64 - 1, 7), (3, 9)])
    def test_block_rng_is_spawned_sfc64(self, seed, block):
        # block i draws from SFC64 seeded by child i of SeedSequence(seed)
        want = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(seed).spawn(block + 1)[block]))
        got = simulate._block_rng(seed, block)
        assert isinstance(got.bit_generator, np.random.SFC64)
        np.testing.assert_array_equal(got.standard_normal(64),
                                      want.standard_normal(64))

    def test_angle_stream_differs_from_radial(self):
        for block in (0, 1, 5):
            radial = simulate._block_rng(11, block).standard_normal(64)
            angle = simulate._block_rng(11, (1 << 62) + block)
            assert not np.any(radial == angle.standard_normal(64))

    @pytest.mark.parametrize("geom", [Geometry.cp(1), Geometry.ch(1)],
                             ids=["cp1", "ch1"])
    def test_area_theta_from_angle_substream(self, geom):
        # theta = sqrt(A_t) Z with Z from block i's stream of spawn key
        # (1 << 62) + i, whatever the radial sampler drew
        m, extra, seed = simulate.BLOCK_SIZE, 300, 41
        a = sample_area(geom, SimConfig(0.1, 1e-2, m + extra, seed),
                        threads=2)
        z = np.concatenate([
            simulate._block_rng(seed, (1 << 62) + i).standard_normal(k)
            for i, k in enumerate((m, extra))])
        assert np.all(a.time_change > 0)
        np.testing.assert_allclose(a.theta_end / np.sqrt(a.time_change), z,
                                   rtol=1e-15, atol=0)


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


def _cp_tilted_w(run):
    """run()'s result, and w = sin^2 r_t of every block that it steps
    through simulate._cp_tilted_block, in block order (run on one
    thread)."""
    seen = []
    block = simulate._cp_tilted_block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_cp_tilted_block",
                   lambda *args: seen.append(block(*args)) or seen[-1])
        result = run()
    return result, np.concatenate(seen)


def _cp_girsanov_cos_r(cfg):
    # the cos r_t whose (cos r_t)^{-lam} girsanov_cf_estimator averages
    _, w = _cp_tilted_w(
        lambda: girsanov_cf_estimator(Geometry.cp(1), 2.0, cfg))
    return (np.sqrt(1.0 - w),)


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
        # at most `threads` groups, of at least 4 blocks each when split;
        # a group runs one step call (a sweep loop) per run of at most 4
        # contiguous blocks, with at most one shorter run per group
        calls, n_groups = self._run(monkeypatch, blocks, threads, True)
        assert n_groups == groups
        assert sum(sorted(calls), []) == list(range(blocks))
        for call in calls:
            assert call == list(range(call[0], call[-1] + 1))
            assert len(call) <= 4
        loops = -(-blocks // 4)
        assert loops <= len(calls) <= loops + groups - 1

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
        (9 * 4096, 2, [4096, 4 * 4096, 4 * 4096])])
    def test_cp_call_groups(self, monkeypatch, paths, threads, groups):
        # a 2-block CP call at 2 threads stays one group, as cp-area-cf's
        # calls in the short-horizon benchmark do; 9 blocks split 4 + 5,
        # and the group of 5 sweeps its blocks as 4 + 1
        seen = []
        cp_area_phi = simulate._cp_area_phi

        def record(n, cfg, rngs):
            seen.append(cfg.paths)
            return cp_area_phi(n, cfg, rngs)

        monkeypatch.setattr(simulate, "_cp_area_phi", record)
        sample_area(Geometry.cp(1), SimConfig(0.02, 1e-2, paths, 3),
                    threads=threads)
        assert sorted(seen) == groups

    @pytest.mark.parametrize("run", [
        lambda cfg: sample_area(Geometry.cp(1), cfg),
        lambda cfg: sample_area(Geometry.cp(2), cfg),
        lambda cfg: sample_winding(Geometry.ch(1), 0.9, cfg),
    ], ids=["area", "area-cp2", "winding-ch1"])
    def test_sweep_loops_match_one_loop(self, monkeypatch, run):
        # ten blocks swept as loops of 4 + 4 + 2 give the bits of one loop
        # over all ten
        cfg = SimConfig(0.05, 1e-2, 9 * simulate.BLOCK_SIZE + 300, 77)
        ref = _fields(run(cfg))
        run_blocks = simulate._run_blocks

        def one_loop(cfg, step, threads, sweep=False):
            return (step(cfg, simulate._block_rngs(cfg)) if sweep
                    else run_blocks(cfg, step, threads, sweep))

        monkeypatch.setattr(simulate, "_run_blocks", one_loop)
        for got, want in zip(_fields(run(cfg)), ref, strict=True):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("geom", [Geometry.cp(1), Geometry.ch(1)])
    def test_numpy_integer_paths_and_seed(self, geom):
        # numpy integers reach the SeedSequence as its entropy and as
        # block indices in its spawn key
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


class _FirstCoarseStep(Exception):
    pass


class TestTimeGrid:
    """The time grids: the fixed-grid samplers (CH^n, the tilted CP^n
    radius of the Girsanov route, and planar) step at dt from the start;
    the r-mode lanes of the CP area sampler step at FINE_DT or finer over
    the first min(1% of the horizon, 0.05), its fine start, and then at
    dt."""

    @staticmethod
    def _fine_start(monkeypatch, horizon, dt):
        """The r-mode step sizes of a one-lane CP^1 area call up to its
        first step longer than FINE_DT, and that step."""
        steps = []
        cot_tan_step = simulate._cot_tan_step

        def record(arg, b1, b2):
            # b2 = (lam + 1/2) dt is dt/2 at lam = 0, exactly; an array
            # over the lanes, or a float in a sweep that steps them all by dt
            steps.append(float(2.0 * np.ravel(b2)[0]))
            if steps[-1] > simulate.FINE_DT:
                raise _FirstCoarseStep
            return cot_tan_step(arg, b1, b2)

        monkeypatch.setattr(simulate, "_cot_tan_step", record)
        with pytest.raises(_FirstCoarseStep):
            sample_area(Geometry.cp(1), SimConfig(horizon, dt, 1, 3))
        return np.asarray(steps[:-1]), steps[-1]

    @pytest.mark.parametrize("horizon", [0.5, 2.0, 5.0, 6.0, 50.0, 100.0])
    @pytest.mark.parametrize("dt", [1e-3, 0.01, 0.05])
    def test_fine_stretch_capped(self, monkeypatch, horizon, dt):
        fine, first = self._fine_start(monkeypatch, horizon, dt)
        t_fine = min(0.01 * horizon, 0.05)
        assert fine.size >= 1
        assert fine.max() <= simulate.FINE_DT
        # a lane steps fine while its time is short of t_fine
        assert fine[:-1].sum() < t_fine + 1e-12
        assert fine.sum() >= t_fine - 1e-12
        assert first == dt

    @pytest.mark.parametrize("horizon", [0.25, 0.5, 1.0, 2.0, 3.7, 5.0])
    @pytest.mark.parametrize("dt", [1e-3, 2e-3, 0.01, 0.05])
    def test_grid_unchanged_up_to_t5(self, monkeypatch, horizon, dt):
        # 0.01 t <= 0.05 there, so the cap leaves the fine start at 1% of
        # the horizon; the fixed grid is dt throughout, and a remainder
        fine, _ = self._fine_start(monkeypatch, horizon, dt)
        assert fine[:-1].sum() < 0.01 * horizon + 1e-12
        assert fine.sum() >= 0.01 * horizon - 1e-12
        dts = simulate._time_grid(SimConfig(horizon, dt, 1, 1))
        assert np.all(dts[:-1] == dt) and 0 < dts[-1] <= dt
        assert dts.sum() == pytest.approx(horizon, rel=1e-12)


# The Newton solve of x = arg + b1 cot x - b2 tan x that the CP samplers
# used before their closed-form step, kept verbatim (with its iteration
# budget and residual tolerance) as the exact root that step is checked
# against.

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


def _cot_tan_root(arg, b1, b2):
    """The reference root after one more Newton step in x, which leaves it
    accurate to rounding rather than to the solver's residual tolerance."""
    x = _reference_cot_tan_solve(arg, b1, b2)
    t = np.tan(x)
    h = x - b1 / t + b2 * t - arg
    return x - h / (1.0 + b1 / np.sin(x) ** 2 + b2 / np.cos(x) ** 2)


class TestCotTanStep:
    """x = arg + b1 cot x - b2 tan x in closed form, the r-step of the CP
    area sampler, against the root of _reference_cot_tan_solve."""

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
        # b1 = (n - 1/2) dt as in the CP area sampler, and b2 = (lam + 1/2)
        # dt, its dt/2 and larger; the first lanes are given an arg whose
        # root is exactly x_star, the rest a sampler step r + sqrt(dt) z
        # from an r-mode radius
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

    @pytest.mark.parametrize("b1,b2", [(0.005, 0.005), (0.015, 0.005),
                                       (0.005, 0.025)])
    def test_float_coefficients_match_arrays(self, b1, b2):
        # args on both sides of pi/4, at it and at its float neighbours
        q = math.pi / 4.0
        arg = np.array([1e-6, 0.3, np.nextafter(np.nextafter(q, 0.0), 0.0),
                        np.nextafter(q, 0.0), q, np.nextafter(q, 2.0),
                        np.nextafter(np.nextafter(q, 2.0), 2.0), 1.2,
                        math.pi / 2.0 - 1e-6])
        near = arg < q
        # the branch variable of the step, as np.where chooses it
        np.testing.assert_array_equal(np.minimum(arg, math.pi / 2.0 - arg),
                                      np.where(near, arg,
                                               math.pi / 2.0 - arg))
        x = simulate._cot_tan_step(arg, b1, b2)
        np.testing.assert_array_equal(
            x, simulate._cot_tan_step(arg, np.full(arg.size, b1),
                                      np.full(arg.size, b2)))
        assert np.all((x > 0.0) & (x < math.pi / 2.0))


# The clock-time kernels with every step size, coefficient and rate formed
# per lane in every sweep: references that simulate._cp_area_phi and
# simulate._winding_phi must match bit for bit.  Module constants are read
# from simulate, so that a test can patch them for both.

def _reference_cp_area_phi(n, cfg, rngs):
    s = simulate
    horizon, dt, lanes = cfg.horizon, cfg.dt, cfg.paths
    b1 = n - 0.5
    t_fine = min(0.01 * horizon, 0.05)
    fine = min(dt, s.FINE_DT)
    r = np.full(lanes, s.EPS_START)
    psi = np.zeros(lanes)
    in_psi = np.zeros(lanes, dtype=bool)
    tau = np.zeros(lanes)
    clock = np.zeros(lanes)
    z = np.zeros(lanes)
    with np.errstate(over="ignore"):
        for active in s._clock_sweeps(cfg, rngs, tau, z, t_fine / fine):
            stepped_in_psi = active & in_psi
            jdx = np.flatnonzero(stepped_in_psi)
            idx = np.flatnonzero(active ^ stepped_in_psi)
            if idx.size:
                ti = tau[idx]
                dti = np.minimum(np.where(ti < t_fine, fine, dt),
                                 horizon - ti)
                sq = np.sqrt(dti)
                r_old = r[idx]
                r_new = s._cot_tan_step(r_old + sq * z[idx], b1 * dti,
                                        0.5 * dti)
                tan_old, tan_new = np.tan(r_old), np.tan(r_new)
                clock[idx] += (0.5 * (tan_old * tan_old + tan_new * tan_new)
                               * dti)
                tau[idx] = ti + dti
                r[idx] = r_new
                up = r_new > s._R_UP
                if np.count_nonzero(up):
                    j = idx[up]
                    psi[j] = -np.log(np.cos(r_new[up]))
                    in_psi[j] = True
            if jdx.size:
                p_old, tj = psi[jdx], tau[jdx]
                t2 = np.expm1(2.0 * p_old)
                t_rem = horizon - tj
                cap = np.maximum(s._H_FLOOR, p_old * p_old / s._DIVE_STEPS)
                h = np.minimum(np.minimum(t_rem, dt) * t2, cap)
                p_mart = p_old + np.sqrt(h) * z[jdx]
                np.minimum(np.maximum(p_mart, 1e-12, out=p_mart), s._M_CAP,
                           out=p_mart)
                t2_new = np.maximum(np.expm1(2.0 * p_mart), s._T2_SWITCH)
                dtau = 0.5 * h * (1.0 / t2 + 1.0 / t2_new)
                p_new = np.minimum(np.maximum(p_mart + n * dtau, 1e-12),
                                   s._M_CAP)
                last = dtau > t_rem
                if np.count_nonzero(last):
                    h[last] *= t_rem[last] / np.maximum(dtau[last], 1e-300)
                clock[jdx] += h
                tau[jdx] = tj + dtau
                psi[jdx] = p_new
                down = p_new < s._PSI_SWITCH
                if np.count_nonzero(down):
                    k = jdx[down]
                    r[k] = np.arccos(np.exp(-p_new[down]))
                    in_psi[k] = False
    r_end = np.where(in_psi, np.arccos(np.minimum(np.exp(-psi), 1.0)), r)
    return r_end, clock


def _reference_winding_phi(kind, r0, cfg, rngs):
    s = simulate
    horizon, dt, lanes = cfg.horizon, cfg.dt, cfg.paths
    cp = kind == "cp"
    m0 = math.log(math.tan(r0)) if cp else math.log(math.tanh(r0))
    mm = np.full(lanes, m0)
    tau = np.zeros(lanes)
    clock = np.zeros(lanes)
    z = np.zeros(lanes)
    csh = np.cosh if cp else np.sinh
    if not cp and m0 > -s._M_FLOOR_CH:
        tau[:] = horizon
    with np.errstate(over="ignore"):
        for active in s._clock_sweeps(cfg, rngs, tau, z):
            idx = np.flatnonzero(active)
            m, t = mm[idx], tau[idx]
            t_rem = horizon - t
            q = 4.0 * csh(m) ** 2
            h = np.minimum(np.minimum(t_rem, dt) * q,
                           np.maximum(s._H_FLOOR, m * m / s._DIVE_STEPS))
            m_new = m + np.sqrt(h) * z[idx]
            if cp:
                np.minimum(np.maximum(m_new, -s._M_CAP, out=m_new), s._M_CAP,
                           out=m_new)
            else:
                above = m_new >= 0.0
                if np.count_nonzero(above):
                    m_new[above] = 0.5 * m[above]
                np.maximum(m_new, -s._M_CAP, out=m_new)
            q_new = 4.0 * csh(m_new) ** 2
            dtau = 0.5 * h * (1.0 / q + 1.0 / np.maximum(q_new, 1e-300))
            last = dtau > t_rem
            if np.count_nonzero(last):
                h[last] *= t_rem[last] / np.maximum(dtau[last], 1e-300)
            mm[idx] = m_new
            tau[idx] = t + dtau
            clock[idx] += h
            if not cp:
                tau[idx[m_new > -s._M_FLOOR_CH]] = horizon
    return clock


class TestClockKernelsMatchReference:
    """The clock-time kernels give the bits of their references, on 24
    seeds per case.  The horizons are no multiple of dt, so each lane ends
    on a fractional step; a low _R_UP sends lanes to psi-mode and back
    within the fine start, so that r-mode lanes step fine after every
    other lane has passed it."""

    SEEDS = range(24)

    @staticmethod
    def _assert_same(run, ref, cfg):
        got = run(cfg, simulate._block_rngs(cfg))
        want = ref(cfg, simulate._block_rngs(cfg))
        for g, w in zip(np.atleast_2d(got), np.atleast_2d(want),
                        strict=True):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("r_up", [math.pi / 4.0, 0.02, 0.1])
    @pytest.mark.parametrize("n,horizon,dt", [
        (1, 0.537, 0.02), (2, 1.013, 0.05), (3, 0.29, 0.01),
        (1, 6.3, 0.05)])
    def test_cp_area_phi(self, monkeypatch, r_up, n, horizon, dt):
        monkeypatch.setattr(simulate, "_R_UP", r_up)
        for seed in self.SEEDS:
            self._assert_same(
                lambda cfg, rngs: simulate._cp_area_phi(n, cfg, rngs),
                lambda cfg, rngs: _reference_cp_area_phi(n, cfg, rngs),
                SimConfig(horizon, dt, 48, seed))

    @pytest.mark.parametrize("kind,r0", [
        ("cp", 0.7), ("cp", 1.5), ("ch", 0.5), ("ch", 2.0)])
    def test_winding_phi(self, kind, r0):
        for seed in self.SEEDS:
            self._assert_same(
                lambda cfg, rngs: simulate._winding_phi(kind, r0, cfg, rngs),
                lambda cfg, rngs: _reference_winding_phi(kind, r0, cfg, rngs),
                SimConfig(1.37, 0.05, 48, seed))


class _Normals:
    """A stand-in for a block's stream: each standard_normal(out=...) call
    fills the next row of z."""

    def __init__(self, z):
        self.rows = iter(np.atleast_2d(z))

    def standard_normal(self, out):
        out[...] = next(self.rows)
        return out


class TestSplittingStep:
    """The Ninomiya-Victoir step of the fixed-grid samplers (_split_step):
    half an exact drift flow, the noise r -> |r + dW|, half a drift flow."""

    @given(u0=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=16),
           s=st.floats(1e-6, 0.05), n=st.integers(1, 3),
           lam=st.floats(0.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_drift_flow_solves_its_ode(self, u0, s, n, lam):
        # u = 2 sinh^2 r = 2w obeys u' = a u + 4n - 2, a = 2n + 2 lam
        a = 2.0 * (n + lam)
        u0 = np.asarray(u0)
        ode = solve_ivp(lambda _, u: a * u + 4.0 * n - 2.0, (0.0, s), u0,
                        method="DOP853", rtol=1e-13, atol=1e-15)
        w = simulate._drift_flow(0.5 * u0, n, a, s)
        np.testing.assert_allclose(2.0 * w, ode.y[:, -1], rtol=1e-10,
                                   atol=1e-14)
        # the drift is at least n - 1/2, and so is the rise of r
        rise = np.arcsinh(np.sqrt(w)) - np.arcsinh(np.sqrt(0.5 * u0))
        assert np.all(rise >= (n - 0.5) * s * (1.0 - 1e-9) - 1e-12)

    @given(r0=st.lists(st.floats(0.0, 15.0), min_size=2, max_size=8),
           seed=st.integers(0, 2 ** 32 - 1), h=st.floats(1e-4, 0.05),
           n=st.integers(1, 3), lam=st.floats(0.0, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_lanes_depend_only_on_their_own_inputs(self, r0, seed, h, n,
                                                   lam):
        # each lane's radius, clock and slack are those of the lane run
        # alone on its own start and normals; no lane gets past _R_FAR,
        # where a block finishes all its lanes at once
        r0 = np.asarray(r0)
        dts = np.full(5, h)
        z = np.random.default_rng(seed).standard_normal((dts.size, r0.size))
        fused = simulate._hyperbolic_block(n, lam, r0, dts, _Normals(z),
                                           r0.size, True, True)
        for i in range(r0.size):
            alone = simulate._hyperbolic_block(
                n, lam, r0[i:i + 1], dts, _Normals(z[:, i:i + 1]), 1, True,
                True)
            for f, a in zip(fused, alone, strict=True):
                assert f[i] == a[0]

    @given(r0=st.lists(st.floats(0.0, 19.0), min_size=1, max_size=16),
           z=st.floats(-6.0, 6.0), h=st.floats(1e-5, 0.05),
           n=st.integers(1, 3), lam=st.floats(0.0, 2.0))
    @example(r0=[0.0, 1e-8, 19.0], z=-6.0, h=0.05, n=1, lam=0.0)
    @settings(max_examples=60, deadline=None)
    def test_step_keeps_the_transience_bound(self, r0, z, h, n, lam):
        # r_{k+1} >= r_k + (n - 1/2) h + dW_k, the bound that track_bound
        # (and criterion-08) checks path by path
        r0 = np.asarray(r0)
        dw = math.sqrt(h) * z
        r1, _, slack = simulate._hyperbolic_block(
            n, lam, r0, np.array([h]), _Normals(np.full(r0.size, z)),
            r0.size, False, True)
        tol = 1e-12 * (1.0 + r0)
        assert np.all(r1 >= r0 + (n - 0.5) * h + dw - tol)
        assert np.all(r1 >= 0.0)
        np.testing.assert_allclose(slack, r1 - (n - 0.5) * h - dw,
                                   rtol=0, atol=1e-12)

    @given(w0=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
           s=st.floats(1e-6, 1.0), n=st.integers(1, 3),
           lam=st.floats(0.0, 2.0))
    @example(w0=[0.0, 1.0], s=1.0, n=1, lam=0.0)
    @settings(max_examples=40, deadline=None)
    def test_cp_drift_flow_solves_its_ode(self, w0, s, n, lam):
        # w = sin^2 r on CP^n obeys w' = k w + 2n - 1, k = -2(n + lam) < 0,
        # and stays in [0, 1): below 1 after any s > 0, even from w = 1
        k = -2.0 * (n + lam)
        w0 = np.asarray(w0)
        ode = solve_ivp(lambda _, w: k * w + 2.0 * n - 1.0, (0.0, s), w0,
                        method="DOP853", rtol=1e-13, atol=1e-15)
        w = simulate._drift_flow(w0.copy(), n, k, s)
        np.testing.assert_allclose(w, ode.y[:, -1], rtol=1e-10, atol=1e-14)
        assert np.all((w >= 0.0) & (w < 1.0))

    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 8),
           h=st.floats(1e-4, 0.5), n=st.integers(1, 3),
           lam=st.floats(0.0, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_cp_lanes_depend_only_on_their_own_inputs(self, seed, m, h, n,
                                                      lam):
        # each lane of the tilted CP block is the lane run alone on its own
        # normals, and w = sin^2 r stays in [0, 1)
        dts = np.full(5, h)
        z = np.random.default_rng(seed).standard_normal((dts.size, m))
        fused = simulate._cp_tilted_block(n, lam, dts, _Normals(z), m)
        for i in range(m):
            alone = simulate._cp_tilted_block(n, lam, dts,
                                              _Normals(z[:, i:i + 1]), 1)
            assert fused[i] == alone[0]
        assert np.all((fused >= 0.0) & (fused < 1.0))


class TestCpTilted:
    """The lam-tilted CP^n radius of the Girsanov route (_cp_tilted_block)."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
    def test_sin_moments_at_small_t(self, n, lam):
        # w = sin^2 r has L w = 2n - K w, K = 2n + 2 lam + 2, and
        # L w^2 = (4n + 4) w - (2K + 4) w^2, so from the pole
        # E[w_t] = n/(n + lam + 1) (1 - e^{-Kt}) and (1, E w, E w^2) is
        # e^{At} (1, 0, 0); at t = 0.25, 2^18 paths and dt = 2e-3
        t, m = 0.25, 2 ** 18
        dts = simulate._time_grid(SimConfig(t, 2e-3, m, 1))
        w = simulate._cp_tilted_block(n, lam, dts,
                                      np.random.default_rng(60 + n), m)
        big_k = 2.0 * (n + lam + 1.0)
        exact = n / (n + lam + 1.0) * -math.expm1(-big_k * t)
        a = np.array([[0.0, 0.0, 0.0], [2.0 * n, -big_k, 0.0],
                      [0.0, 4.0 * n + 4.0, -(2.0 * big_k + 4.0)]])
        moments = expm(a * t)[:, 0]
        assert moments[1] == pytest.approx(exact, rel=1e-12)
        for power in (1, 2):
            x = w ** power
            se = x.std(ddof=1) / math.sqrt(m)
            assert abs(x.mean() - moments[power]) <= 3.0 * se


class TestRadialHyperbolic:
    def test_transience_lower_bound(self):
        # the splitting step preserves r_{k+1} >= r_k + (n-1/2) dt + dW
        for n in (1, 2):
            cfg = SimConfig(2.0, 1e-3, 1000, 31)
            res = sample_radial_hyperbolic(n, 0.0, 0.0, cfg, track_bound=True)
            assert res.min_bound_slack >= -1e-9
            assert np.all(res.r_end > 0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_cosh_moment_from_the_pole(self, n):
        # L cosh 2r = (2n + 2) cosh 2r + 2n - 2 at lam = 0, so from the pole
        # E[cosh 2r_t] = (2n/(n+1)) e^{2(n+1)t} - (n-1)/(n+1); at t = 1 and
        # 65,536 paths
        t = 1.0
        r = sample_radial_hyperbolic(
            n, 0.0, 0.0, SimConfig(t, 1e-3, 65536, 20 + n)).r_end
        c = np.cosh(2.0 * r)
        exact = (2.0 * n / (n + 1) * math.exp(2.0 * (n + 1) * t)
                 - (n - 1) / (n + 1))
        se = c.std(ddof=1) / math.sqrt(c.size)
        assert abs(c.mean() - exact) <= 3.0 * se

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_cosh_moment_at_small_t(self, n, lam):
        # L cosh 2r = k cosh 2r + 2n - 2 lam - 2, k = 2n + 2 lam + 2, so
        # from the pole E[cosh 2r_t] = (1 + c) e^{kt} - c, c = (2n - 2 lam
        # - 2)/k.  At t = 0.25 the semi-implicit step it replaced read
        # z -7.6 to -8.4 at this size, the lag it took on at the pole.
        t = 0.25
        r = sample_radial_hyperbolic(
            n, lam, 0.0, SimConfig(t, 2e-3, 2 ** 18, 40 + n)).r_end
        c = np.cosh(2.0 * r)
        k = 2.0 * (n + lam + 1.0)
        shift = (2.0 * (n - lam) - 2.0) / k
        exact = (1.0 + shift) * math.exp(k * t) - shift
        se = c.std(ddof=1) / math.sqrt(c.size)
        assert abs(c.mean() - exact) <= 3.0 * se

    def test_step_limit_raises(self):
        # (n + lam) dt above CH_STEP_LIMIT: e^{(n + lam) dt} overflows past
        # 709.78, and sinh^2 r past r = 355; a raised error, not an assert
        with pytest.raises(ValueError, match="CH step"):
            sample_radial_hyperbolic(1, 0.0, 0.0,
                                     SimConfig(1000.0, 101.0, 8, 1))
        with pytest.raises(ValueError, match="CH step"):
            sample_area(Geometry.ch(3), SimConfig(1000.0, 40.0, 8, 1))
        with pytest.raises(ValueError, match="CH step"):
            girsanov_cf_estimator(Geometry.ch(1), 200.0,
                                  SimConfig(1.0, 1.0, 8, 1))
        r = sample_radial_hyperbolic(1, 0.0, 0.0,
                                     SimConfig(200.0, 100.0, 8, 1)).r_end
        assert np.all(np.isfinite(r))

    @pytest.mark.parametrize("field,args", [
        ("n", (1.5, 0.0, 0.0)),
        ("n", (True, 0.0, 0.0)),
        ("n", (0, 0.0, 0.0)),
        ("n", (math.inf, 0.0, 0.0)),
        ("girsanov_lambda", (1, math.inf, 0.0)),
        ("girsanov_lambda", (1, math.nan, 0.0)),
        ("r0", (1, 0.0, math.inf)),
        ("r0", (1, 0.0, math.nan)),
    ], ids=["n-1.5", "n-True", "n-0", "n-inf", "lam-inf", "lam-nan",
            "r0-inf", "r0-nan"])
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
        dts = simulate._time_grid(SimConfig(t, 0.05, 64, 1))
        r, clock, _ = simulate._hyperbolic_block(
            2, 0.0, 25.0, dts, np.random.default_rng(3), 64, True, False)
        assert np.abs(clock - t).max() <= 1e-12
        assert np.all(r > simulate._R_FAR)

    def test_near_block_draws_one_normal_per_step(self):
        # no lane reaches _R_FAR by t = 1, so the block draws one normal
        # per lane and step, and nothing for a closed-form finish
        m = 16
        dts = simulate._time_grid(SimConfig(1.0, 0.01, m, 1))
        rng = np.random.default_rng(9)
        r, _, _ = simulate._hyperbolic_block(2, 0.0, 0.0, dts, rng, m, True,
                                             False)
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
        # E[cos 2r_t] = (2n e^{-2(n+1)t} - (n - 1))/(n + 1).  At t = 1 the
        # mean reads low on both spaces: over seeds 31-34 (4 x 65,536 paths)
        # by 3.97e-3 on CP^1 (z -3.51) and 6.45e-3 on CP^2 (z -6.98), though
        # CP^1 reads only 2.0e-4 low (z -0.17) over seeds 21-24.  At the
        # seed here it reads z -2.85 (CP^1) and -2.26 (CP^2), inside 3 SE.
        # The lag lives in the psi-mode's clock steps (ROADMAP item 2) and
        # is not checked here.
        t = 1.0
        r = sample_area(Geometry.cp(n), SimConfig(t, 1e-3, 65536, 30 + n)).r_end
        c = np.cos(2.0 * r)
        exact = (2.0 * n * math.exp(-2.0 * (n + 1) * t) - (n - 1)) / (n + 1)
        se = c.std(ddof=1) / math.sqrt(c.size)
        assert abs(c.mean() - exact) <= 3.0 * se

    def test_cp_step_limit_raises(self):
        # the closed-form r-step needs (n - 1/2) dt and dt/2 below pi^2/8;
        # a raised error, not an assert
        with pytest.raises(ValueError, match="pi\\^2/8"):
            sample_area(Geometry.cp(3), SimConfig(1.0, 0.5, 8, 1))
        sample_area(Geometry.cp(2), SimConfig(1.0, 0.8, 8, 1))


class TestGirsanov:
    def test_lambda_zero_exact(self):
        est = girsanov_cf_estimator(Geometry.cp(1), 0.0,
                                    SimConfig(1.0, 1e-2, 64, 1))
        assert est.value == 1.0 + 0j
        assert est.std_error == 0.0

    def test_cp_long_step_stays_in_range(self):
        # (lam + 1/2) dt = 1.25 is past the r-mode step's limit, which the
        # splitting step does not have: w = sin^2 r stays in [0, 1)
        est, w = _cp_tilted_w(lambda: girsanov_cf_estimator(
            Geometry.cp(1), 2.0, SimConfig(1.0, 0.5, 8, 1)))
        assert w.size == 8 and np.all((w >= 0.0) & (w < 1.0))
        assert math.isfinite(est.value.real)
        assert math.isfinite(est.std_error)

    @pytest.mark.parametrize("t", [0.125, 1.0])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_cp_cf_matches_analytic(self, t, n, lam):
        # 4 seeds x 65,536 paths at the default dt_girsanov, pooled, within
        # 3 SE of the quadrature CF; the clock-time route it replaced read
        # z -11.8 at t = 0.125, n = 1 and lam = 0.5
        ests = [girsanov_cf_estimator(Geometry.cp(n), lam,
                                      SimConfig(t, 2e-3, 65536, 700 + k),
                                      threads=2) for k in range(4)]
        mean = sum(e.value.real for e in ests) / 4.0
        se = math.sqrt(sum(e.std_error ** 2 for e in ests)) / 4.0
        assert abs(mean - cf_marginal_cp(n, lam, t)) <= 3.0 * se

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

    def test_ch_weight_does_not_overflow(self):
        # e^{n lam t} alone is e^800, which overflows a float; the weight
        # is formed in logs, and the CF it estimates lies in [0, 1]
        est = girsanov_cf_estimator(Geometry.ch(1), 800.0,
                                    SimConfig(1, 1e-2, 8, 1))
        assert math.isfinite(est.std_error)
        assert 0.0 <= est.value.real <= 1.0

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
    """The planar Levy area S_t = sqrt(A_t) N, the clock A_t = int |Z|^2 ds
    taken on the splitting step of w = |Z|^2 at k = 0."""

    def test_area_cf_matches_sech(self):
        cfg = SimConfig(1.0, 1e-3, 40000, 51)
        s = sample_planar_area(cfg).theta_end
        lam = 1.0
        est = empirical_cf(s, lam)
        target = 1.0 / math.cosh(lam)
        assert abs(est.value - target) < 3.0 * est.std_error

    @pytest.mark.parametrize("dt,seed", [(1e-3, 52), (0.05, 53)])
    def test_clock_mean_is_exact(self, dt, seed):
        # each step keeps E[w] = E|Z|^2 = 2t at every grid point, so the
        # trapezoid clock has E[A_t] = t^2 however coarse the grid; a
        # left-endpoint rule would read t^2 - t dt, about 8 SE low at
        # dt = 0.05
        t = 1.0
        clock = sample_planar_area(SimConfig(t, dt, 16384, seed)).time_change
        se = clock.std(ddof=1) / math.sqrt(clock.size)
        assert abs(clock.mean() - t * t) < 3.0 * se

    def test_conditional_cf_matches_sech(self):
        # given the radial path, E[e^{i lam S}] = E[e^{-lam^2 A / 2}], which
        # is 1/cosh(lam t); at dt = 1e-2 the clock still carries no bias
        # that the conditional estimator, 3.8 times sharper than the
        # empirical CF, resolves
        lam, t = 1.0, 1.0
        clock = sample_planar_area(SimConfig(t, 1e-2, 40000, 54)).time_change
        cond = np.exp(-0.5 * lam * lam * clock)
        se = cond.std(ddof=1) / math.sqrt(cond.size)
        assert abs(cond.mean() - 1.0 / math.cosh(lam * t)) < 3.0 * se

    @given(w0=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=16),
           s=st.floats(1e-6, 1.0), n=st.integers(1, 3),
           sign=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_drift_flow_at_zero_rate(self, w0, s, n, sign):
        # k = 0 is the flat flow w + (2n - 1) s, the limit of the tilted
        # flows: a rate of 1e-13 moves w by about 1e-13 w s
        w0 = np.asarray(w0)
        flat = simulate._drift_flow(w0.copy(), n, 0.0, s)
        np.testing.assert_array_equal(flat, w0 + (2.0 * n - 1.0) * s)
        near = simulate._drift_flow(w0.copy(), n, sign * 1e-13, s)
        np.testing.assert_allclose(flat, near, rtol=1e-12, atol=0.0)
