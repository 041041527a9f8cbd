"""SDE path samplers for the radial diffusions, stochastic areas, and windings.

The CH^n radius, the Girsanov route's tilted CP^n radius and the planar
radius |Z| take a fixed-grid splitting step of exact flows (_split_step).
The heavy-tailed clocks step in clock time: the n = 1 windings in their own
clocks, and the CP^n area in S = t + A_t, in which v = arcsinh(tan r) is
the CH^n radius tilted by lam = -n and takes the same splitting step at
k = 0 (_cp_area_phi).

All samplers draw from SFC64 streams, one per block of a fixed-size
partition of the paths: block i's stream is seeded by the SeedSequence of
master_seed with spawn key (i,), numpy's spawned child i.
_run_blocks runs the blocks of a call in at most `threads` contiguous
groups, one thread each: a clock-time sampler steps a group in sweep loops
(_clock_sweeps) of at most 4 blocks, a fixed-grid one block by block.  A
sweep loop keeps only its live lanes, steps them in place and finds each
block's segment of them only when some reach the horizon and leave.
Either way each path depends only on its block's stream, so results are
bit-identical regardless of the thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .specfun import _check_dimension, _is_int_in
from .stats import CfEstimate

BLOCK_SIZE = 4096


@dataclass(frozen=True)
class SimConfig:
    """Common configuration for all path samplers."""

    horizon: float
    dt: float
    paths: int
    master_seed: int

    def __post_init__(self):
        if not (0 < self.horizon < math.inf):
            raise ValueError("horizon must be positive and finite")
        if not (0 < self.dt <= self.horizon):
            raise ValueError("dt must be in (0, horizon]")
        if not _is_int_in(self.paths, 1):
            raise ValueError(
                f"paths must be a positive integer, got {self.paths!r}")
        if not _is_int_in(self.master_seed, 0, 2 ** 64):
            raise ValueError("master_seed must be an integer in "
                             f"[0, 2**64), got {self.master_seed!r}")


@dataclass(frozen=True)
class Geometry:
    """Target space selector: complex projective ('cp') or hyperbolic ('ch')."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in ("cp", "ch"):
            raise ValueError("kind must be 'cp' or 'ch'")
        _check_dimension(self.n)

    @classmethod
    def cp(cls, n: int) -> "Geometry":
        return cls("cp", n)

    @classmethod
    def ch(cls, n: int) -> "Geometry":
        return cls("ch", n)


@dataclass
class RadialSamples:
    """Terminal radial values, with scheme diagnostics."""

    r_end: np.ndarray
    # min over all paths/steps of r - ((n - 1/2) t + gamma); inf unless
    # track_bound
    min_bound_slack: float = math.inf


@dataclass
class AreaSamples:
    r_end: np.ndarray
    theta_end: np.ndarray
    time_change: np.ndarray


@dataclass
class WindingSamples:
    phi_end: np.ndarray
    clock: np.ndarray


def _block_rng(master_seed: int, block_index: int) -> np.random.Generator:
    """SFC64 seeded by child block_index of SeedSequence(master_seed), as
    SeedSequence(master_seed).spawn(block_index + 1)[block_index]."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(
        int(master_seed), spawn_key=(int(block_index),))))


def _block_rngs(cfg: SimConfig, offset: int = 0) -> list:
    """The stream of every block of cfg.paths, spawn key offset plus the
    block index."""
    return [_block_rng(cfg.master_seed, offset + i)
            for i in range(-(-cfg.paths // BLOCK_SIZE))]


def _time_grid(cfg: SimConfig) -> np.ndarray:
    """Step sizes covering [0, horizon]: dt, then any remainder."""
    n_full = int(cfg.horizon / cfg.dt)
    rem = cfg.horizon - n_full * cfg.dt
    steps = [cfg.dt] * n_full
    if rem > 1e-12 * cfg.horizon:
        steps.append(rem)
    return np.asarray(steps)


def _run_blocks(cfg: SimConfig, step, threads: int, sweep=False) -> tuple:
    """Concatenate, in block order, each value that step(sub, rngs)
    returns over the blocks of cfg.paths, sub being the SimConfig of the
    lanes stepped and rngs their blocks' streams (_block_rngs).

    The blocks run in at most `threads` contiguous groups, the first on
    the calling thread and the others on a pool.  Without sweep, step runs
    on one block at a time.  With sweep it runs on at most 4 blocks at a
    time (a clock-time sweep loop, which lasts until its slowest lane is
    done), and a group holds at least 4 blocks, as on fewer lanes a sweep's
    numpy calls mostly wait for the GIL.  Each path depends only on its
    block's stream.
    """
    n_blocks = -(-cfg.paths // BLOCK_SIZE)
    width = 4 if sweep else 1
    n_groups = max(1, min(threads, n_blocks // width))
    cuts = [n_blocks * g // n_groups for g in range(n_groups + 1)]

    def run(lo, hi):
        if hi > lo + width:
            return [part for i in range(lo, hi, width)
                    for part in run(i, min(i + width, hi))]
        m = min(cfg.paths, hi * BLOCK_SIZE) - lo * BLOCK_SIZE
        sub = SimConfig(cfg.horizon, cfg.dt, m, cfg.master_seed)
        return [step(sub, _block_rngs(sub, lo))]

    with ThreadPoolExecutor(max_workers=max(1, n_groups - 1)) as ex:
        others = ex.map(run, cuts[1:-1], cuts[2:])
        parts = run(cuts[0], cuts[1]) + sum(others, [])
    return tuple(np.concatenate(values) for values in zip(*parts))


# ---------------------------------------------------------------------------
# splitting step of the fixed-grid radial samplers

def _drift_flow(w: np.ndarray, n: int, k: float, s: float) -> np.ndarray:
    """Flow w in place for time s along the drift of a tilted radius,
    exactly.  On CH^n, w = sinh^2 r and the drift (1/2)((2n - 1) coth r
    + (2 lam + 1) tanh r) gives w' = k w + 2n - 1 with k = 2(n + lam); on
    CP^n, w = sin^2 r and (1/2)((2n - 1) cot r - (2 lam + 1) tan r) gives
    the same with k = -2(n + lam).  So w <- w e^{k s} + (2n - 1)/k
    expm1(k s).  On CH^n this keeps w >= 0 and, as the drift is at least
    n - 1/2, raises r by at least (n - 1/2) s; on CP^n it keeps w in [0, 1),
    moving it toward (2n - 1)/(2n + 2 lam) < 1.  At k = 0 it is the limit
    w <- w + (2n - 1) s, the flat drift (2n - 1)/(2r) on w = r^2; there s
    may also be an array over the lanes.
    """
    if k:
        w *= math.exp(k * s)
        w += (2.0 * n - 1.0) / k * math.expm1(k * s)
    else:
        w += (2.0 * n - 1.0) * s
    return w


def _split_step(w, r, dw, n: int, k: float, h: float, rng, arc, fn) -> None:
    """One Ninomiya-Victoir step of size h, in place on w = fn(r)^2: half a
    drift flow (_drift_flow with rate k), the noise flow r -> r + sqrt(h) Z
    on r = arc(sqrt(w)), and half a drift flow, each exact.  (arc, fn) is
    (np.arcsinh, np.sinh) on CH^n, (np.arcsin, np.sin) on CP^n and (None,
    None), the identity, in the plane.  w = fn(r)^2 reflects the path at
    the pole (and on CP^n at r = pi/2) by itself.  r and dw are scratch;
    dw keeps sqrt(h) Z.  Each lane depends only on its own inputs.
    """
    _drift_flow(w, n, k, 0.5 * h)
    np.sqrt(w, out=r)
    if arc is not None:
        arc(r, out=r)
    rng.standard_normal(out=dw)
    dw *= math.sqrt(h)
    r += dw
    np.square(r if fn is None else fn(r, out=w), out=w)
    _drift_flow(w, n, k, 0.5 * h)


def _cp_tilted_block(n: int, lam: float, dts: np.ndarray,
                     rng: np.random.Generator, m: int) -> np.ndarray:
    """w = sin^2 r_T of one block of m paths of the lam-tilted CP^n radius
    from the pole (w = 0), stepped by _split_step over dts."""
    w, r, dw, rate = np.zeros(m), np.empty(m), np.empty(m), -2.0 * (n + lam)
    for h in dts:
        _split_step(w, r, dw, n, rate, h, rng, np.arcsin, np.sin)
    return w


# ---------------------------------------------------------------------------
# hyperbolic radial sampler

# A step raises r by about (n + lam) dt.  While that is at most this, the
# drift flow's e^{(n + lam) dt} is finite, and a lane below _R_FAR cannot
# pass r = 355, where sinh^2 r overflows, within one step.
CH_STEP_LIMIT = 100.0


def check_ch_step(n, lam, dt) -> None:
    """Raise ValueError unless (n + lam) dt is at most CH_STEP_LIMIT."""
    if not (n + lam) * dt <= CH_STEP_LIMIT:
        raise ValueError(
            f"the CH step needs (n + lam) dt at most {CH_STEP_LIMIT:g}, got "
            f"n = {n}, lam = {lam} and dt = {dt}")


# Past this radius coth r and tanh r are 1.0 in double precision (1 - tanh r
# is about 2 exp(-2r), below half an ulp of 1 from r = 19.06 on), so the
# exact path is r + (n + lam) dt + dW and tanh^2 r is 1.  The block tests
# it on w = sinh^2 r, before sinh^2 r can overflow at r = 355.
_R_FAR = 19.1
_W_FAR = math.sinh(_R_FAR) ** 2


def _hyperbolic_block(n: int, lam: float, r0, dts: np.ndarray,
                      rng: np.random.Generator, m: int, record_clock: bool,
                      track_bound: bool):
    """One block of m CH radial paths from r0, by Ninomiya-Victoir
    splitting (_split_step) on w = sinh^2 r, 0 at the pole.

    As both half flows raise r by at least (n - 1/2) h/2 and
    |r + dW| >= r + dW, r_{k+1} >= r_k + (n - 1/2) h + dW_k up to rounding.
    Returns (r_end, clock, slack): the tanh^2 r = w/(w + 1) clock by the
    trapezoid rule (None unless record_clock) and, per lane, the min over
    steps of r - ((n - 1/2) t + gamma) (inf unless track_bound).  Raises
    check_ch_step's ValueError.

    Once every lane is past _R_FAR the rest of the path is drawn at once:
    r_T = r + (n + lam)(T - tau) + sqrt(T - tau) Z, and the clock grows by
    T - tau.  The slack only grows from there, by (lam + 1/2) per unit
    time, so its minimum is final.  Below _R_FAR the drift and the clock
    rate differ from n + lam and 1 by 2|n - lam - 1| exp(-2r) and
    4 exp(-2r) to leading order; since n + lam >= 1, E[exp(-2 r_s)] stays
    at most exp(-2 _R_FAR) after the finish, so the expected clock it
    misses is below 1.1e-16 (T - tau).
    """
    check_ch_step(n, lam, dts[0])
    w = np.full(m, np.sinh(r0) ** 2)
    # the clock, and tanh^2 r at the last two grid points
    clock, f, f_new = ((np.zeros(m), w / (w + 1.0), np.empty(m))
                       if record_clock else (None, None, None))
    slack, gamma, t_acc = np.full(m, math.inf), np.zeros(m), 0.0
    r, dw, rate = np.empty(m), np.empty(m), 2.0 * (n + lam)
    for k, h in enumerate(dts):
        if w.min() > _W_FAR:
            t_left = float(dts[k:].sum())
            r = np.arcsinh(np.sqrt(w, out=r), out=r)
            z = rng.standard_normal(m)
            r += (n + lam) * t_left + math.sqrt(t_left) * z
            if record_clock:
                clock += t_left
            return r, clock, slack
        _split_step(w, r, dw, n, rate, h, rng, np.arcsinh, np.sinh)
        if track_bound:
            gamma += dw
            t_acc += h
            np.arcsinh(np.sqrt(w, out=r), out=r)
            r -= gamma
            r -= (n - 0.5) * t_acc
            np.minimum(slack, r, out=slack)
        if record_clock:
            # clock += (f + f_new) h/2 by the trapezoid rule
            np.add(w, 1.0, out=f_new)
            np.divide(w, f_new, out=f_new)
            f += f_new
            f *= 0.5 * h
            clock += f
            f, f_new = f_new, f
    return np.arcsinh(np.sqrt(w, out=r), out=r), clock, slack


def sample_radial_hyperbolic(n: int, girsanov_lambda: float, r0: float,
                             cfg: SimConfig, track_bound: bool = False,
                             threads: int = 1) -> RadialSamples:
    """Paths of the radial diffusion on [0, inf) with drift
    (1/2)((2n - 1) coth r + (2 lambda + 1) tanh r).

    Each step splits into exact flows, half the drift flow (affine in
    u = cosh 2r - 1), the noise and half the drift flow, so paths stay
    nonnegative, start at the pole exactly and keep the per-step bound
    r_{k+1} >= r_k + (n - 1/2) dt + dW_k; a block whose lanes are all past
    _R_FAR finishes in one closed-form draw (see _hyperbolic_block).
    Raises ValueError unless (n + lambda) dt <= CH_STEP_LIMIT.
    """
    _check_dimension(n)
    if not (0 <= girsanov_lambda < math.inf):
        raise ValueError("girsanov_lambda must be nonnegative and finite")
    if not (0 <= r0 < math.inf):
        raise ValueError("r0 must be nonnegative and finite")
    dts = _time_grid(cfg)

    def block(sub, rngs):
        r, _, slack = _hyperbolic_block(n, girsanov_lambda, r0, dts,
                                        rngs[0], sub.paths, False, track_bound)
        return r, slack

    r_end, slack = _run_blocks(cfg, block, threads)
    return RadialSamples(r_end, min_bound_slack=float(slack.min()))


# ---------------------------------------------------------------------------
# clock-time (time-changed Brownian motion) machinery
#
# The heavy-tailed clocks (tan^2 r near r = pi/2, 4/sin^2 2r and
# 4/sinh^2 2r near the axes) are dominated by excursions that approach the
# singular radius to within exp(-O(t)) -- far beyond the reach of any fixed
# step size in r.  So these samplers step in a clock Phi that runs fast
# where the clock rate is large.  For the n = 1 windings Phi is the
# winding clock itself, in which m = log tan r (resp. m = log tanh r) is an
# exact driftless Brownian motion.  For the CP^n area Phi is S = t + A_t =
# int sec^2 r ds, in which v = arcsinh(tan r) has generator (1/2) d^2 +
# (n - 1/2)(coth v - tanh v) d: the CH^n radius tilted by lam = -n, whose
# drift flow on w = sinh^2 v is exact (_drift_flow at k = 0), so one
# splitting step carries v from the pole to the deepest dive.  The step is
# adaptive: sized so that real time advances by ~dt in the bulk, and
# capped at m^2/_DIVE_STEPS (v^2/_DIVE_STEPS) during deep excursions, so
# that arbitrarily deep dives are resolved in a bounded number of steps.
# Besides the splitting of the CP area's step, only the real-time integral
# tau = int dPhi / clockrate is discretized, by the trapezoid rule: the
# step is sized from the rate at its start, so an increment exceeds dt
# when the rate falls over the step, and the final step credits only the
# fraction of its clock that lies inside the horizon.
#
# One driver, _clock_sweeps, runs both kernels on compacted live lanes, as
# wavefront path tracers compact their rays (Laine, Karras & Aila, HPG
# 2013): a lane whose tau reaches the horizon leaves every state array, so
# a sweep costs its numpy calls and normals on the live lanes only.  The
# calls, not their arithmetic, set its cost, so each block's draw segment
# is found only when lanes leave, and a step writes in place.

_H_FLOOR = 0.04          # clock-time step ceiling in the bulk
_DIVE_STEPS = 16.0       # dive step cap m^2/_DIVE_STEPS (kick ~ |m|/4)
# The depth clamp of |m| and v.  Rates overflow to inf past ~355, which the
# trapezoid handles: 1/inf = 0, min(inf, cap) = cap.  Lanes do reach it:
# at dt 0.01, 10,000 paths and seed 7 it clamped 1.96% (CP^1) and 4.20%
# (CP^2) of the area sampler's lanes by t = 50 and 2.67% of winding-cp1's
# by t = 30, each with a clock of at least 9.6e5, and 0.02-0.04% of
# winding-ch1's by t = 100, with clocks of at least 2.7e6.  No check sees
# them: in those runs the term e^{-lam^2 clock/2} of each such lane, at
# every lam and scale the verdict reads, is below 1e-6.
_M_CAP = 2000.0
_M_FLOOR_CH = 1e-8       # ch1: residual clock above this m is negligible
# Past this v = arcsinh(tan r) a half flow moves v by about (2n - 1) s /
# sinh 2v, less than an ulp of v at any step s the CP area sampler takes,
# so v is left as it is; sinh^2 v overflows from v = 355 on.
_V_FLAT = 300.0
# A clock-time group raises once its sweeps exceed _SWEEP_HEADROOM times a
# base count, horizon/min(dt, _BULK_DT).  Whatever dt is, a bulk step of
# the CP^1 winding covers at most about _BULK_DT of real time: _H_FLOOR of
# clock at the least rate 4 cosh^2 0.  Kernels whose steps can be longer,
# such as the CP area's, only get a looser cap.  The CP area's sweep loops
# took at most 13.5 times their base on 11 sizes (t 0.125 to 50, dt 1e-3
# to 0.02, n = 1-3, 16,384 paths) and 26.3 times in a 100,000-path call
# (t = 0.25, dt = 0.01, n = 3); the windings at most 4.61 times theirs
# (winding-cp1 at its golden size).  So a stuck sampler fails after about
# 2.4 times the sweeps a call can need.
_BULK_DT = _H_FLOOR / 4.0
_SWEEP_HEADROOM = 64.0


def check_ch_winding_r0(r0) -> None:
    """Raise ValueError unless _winding_phi steps a CH^1 lane from r0 > 0:
    once log tanh r0 > -_M_FLOOR_CH, from r0 about atanh(exp(-_M_FLOOR_CH))
    = 9.557 on, every lane retires at t = 0 and the winding has no spread."""
    if math.log(math.tanh(r0)) > -_M_FLOOR_CH:
        raise ValueError(
            f"the CH^1 winding needs r0 below atanh(exp(-{_M_FLOOR_CH:g})) = "
            f"{math.atanh(math.exp(-_M_FLOOR_CH)):.6g}, where every lane "
            f"retires at t = 0, got r0 = {r0}")


def _segments(rngs: list, lanes: np.ndarray) -> list:
    """(stream, lo, hi) of each block with a listed lane, in block order:
    the sorted lanes [lo, hi) are block i's, which draw from rngs[i]."""
    cuts = np.searchsorted(
        lanes, np.arange(len(rngs) + 1) * BLOCK_SIZE).tolist()
    return [(rng, lo, hi) for rng, lo, hi in zip(rngs, cuts, cuts[1:])
            if lo < hi]


def _fill_normals(segments: list, size: int) -> np.ndarray:
    """The normals of size sorted lanes: segment by segment (_segments),
    the next draws of the block's stream, in lane order."""
    z = np.empty(size)
    for rng, lo, hi in segments:
        rng.standard_normal(out=z[lo:hi])
    return z


def _angle_normals(cfg: SimConfig) -> np.ndarray:
    """One normal per path of cfg, block i's from the stream of spawn key
    (1 << 62) + i, so that an angle drawn given the radial path does not
    depend on how the radial sampler consumed its block's stream."""
    rngs = _block_rngs(cfg, offset=1 << 62)
    return _fill_normals(_segments(rngs, np.arange(cfg.paths)), cfg.paths)


def _clock_sweeps(cfg: SimConfig, rngs: list, step, state: tuple,
                  n_out: int) -> tuple:
    """Step the lanes of a clock-time group until each reaches the horizon,
    and return the final values of state[1:1 + n_out], over every path.

    state holds one array per variable over every path, tau first, and
    step(z, *state) maps it to the next state, lane by lane, free to
    overwrite what it is given.  A sweep writes the outputs of the lanes
    with tau >= horizon into arrays of its own and drops those lanes from
    every array and from the sorted live indices, then steps the rest on
    their normals (_fill_normals, by the _segments found at the start and
    after each drop), so each path is that of its block stepped alone.  Raises
    RuntimeError past _SWEEP_HEADROOM times horizon/min(dt, _BULK_DT) sweeps.
    """
    horizon = cfg.horizon
    out = tuple(np.empty(cfg.paths) for _ in range(n_out))
    lanes = np.arange(cfg.paths)
    segments = _segments(rngs, lanes)
    max_sweeps = math.ceil(_SWEEP_HEADROOM * horizon / min(cfg.dt, _BULK_DT))
    for _ in range(max_sweeps):
        done = state[0] >= horizon
        if np.count_nonzero(done):
            gone = lanes[done]
            for o, a in zip(out, state[1:]):
                o[gone] = a[done]
            keep = np.flatnonzero(~done)
            if not keep.size:
                return out
            lanes = lanes[keep]
            state = tuple(a[keep] for a in state)
            segments = _segments(rngs, lanes)
        state = step(_fill_normals(segments, lanes.size), *state)
    raise RuntimeError(
        f"clock-time sampler failed to reach horizon {horizon} in "
        f"{max_sweeps} sweeps")


def _winding_phi(kind: str, r0: float, cfg: SimConfig, rngs: list):
    """Winding radial paths in clock-time coordinates, every block of cfg
    in one sweep loop (_clock_sweeps), with m = log tan r (cp, on R) or
    log tanh r (ch, on (-inf, 0)).

    Returns the clock int 4 ds / sin^2 2r (cp) or int 4 ds / sinh^2 2r (ch)
    up to the horizon.
    """
    horizon, dt, lanes = cfg.horizon, cfg.dt, cfg.paths
    cp = kind == "cp"
    m0 = math.log(math.tan(r0)) if cp else math.log(math.tanh(r0))
    # the clock rate is 4 csh(m)^2: 4 cosh^2 m (cp) or 4 sinh^2 m (ch)
    csh = np.cosh if cp else np.sinh
    # ch transient endgame: for m this close to 0 the remaining clock is
    # below 4 m^2 (horizon - tau), which is negligible, so the lane retires
    tau = np.full(lanes, horizon if not cp and m0 > -_M_FLOOR_CH else 0.0)

    def step(z, tau, clock, m, q, rq):
        # q is each lane's rate at m, rq its reciprocal (floored on CH^1 only)
        t_rem = horizon - tau  # > 0, since a live lane has tau < horizon
        kick = np.multiply(m, m)
        kick /= _DIVE_STEPS
        h = np.minimum(np.multiply(np.minimum(t_rem, dt), q, out=q),
                       np.maximum(_H_FLOOR, kick, out=kick), out=q)
        m_new = np.add(m, np.multiply(np.sqrt(h, out=kick), z, out=kick),
                       out=z)
        if cp:
            np.minimum(np.maximum(m_new, -_M_CAP, out=m_new), _M_CAP,
                       out=m_new)
        else:
            above = m_new >= 0.0
            if np.count_nonzero(above):
                m_new[above] = 0.5 * m[above]
            np.maximum(m_new, -_M_CAP, out=m_new)
        q_new = np.multiply(4.0, np.square(csh(m_new, out=m), out=m), out=m)
        rq_new = np.divide(1.0, q_new if cp else np.maximum(
            q_new, 1e-300, out=kick), out=kick)
        # trapezoid estimate of the real time elapsed over the Phi-step
        # (the rate 1/q varies exponentially within a step, so the
        # left-endpoint rule is systematically biased)
        dtau = np.multiply(0.5 * h, np.add(rq, rq_new, out=rq), out=rq)
        # final step: credit clock only for the fraction inside the horizon
        last = dtau > t_rem
        if np.count_nonzero(last):
            h[last] *= t_rem[last] / np.maximum(dtau[last], 1e-300)
        tau += dtau
        if not cp:
            tau[m_new > -_M_FLOOR_CH] = horizon
        clock += h
        return tau, clock, m_new, q_new, rq_new

    with np.errstate(over="ignore"):
        m = np.full(lanes, m0)
        q = 4.0 * csh(m) ** 2
        clock, = _clock_sweeps(cfg, rngs, step, (
            tau, np.zeros(lanes), m, q, 1.0 / np.maximum(q, 1e-300)), 1)
    return clock


def _cp_half_flow(v: np.ndarray, n: int, s: np.ndarray) -> tuple:
    """Half a drift flow of the S-clock radius v = arcsinh(tan r), in new
    arrays: _drift_flow at k = 0 on w = sinh^2 v, below _V_FLAT; past it v
    is left as it is.  Returns (v, w), w being sinh^2 v after the flow (inf
    once sinh^2 v overflows)."""
    w = np.sinh(v)
    _drift_flow(np.square(w, out=w), n, 0.0, s)
    u = np.sqrt(w)
    np.arcsinh(u, out=u)
    flat = v > _V_FLAT
    if np.count_nonzero(flat):
        u[flat] = v[flat]
    return u, w


def _cp_area_phi(n: int, cfg: SimConfig, rngs: list):
    """The CP^n radius and area clock from the pole, every block of cfg in
    one sweep loop (_clock_sweeps), stepped in the clock S = t + A_t =
    int sec^2 r ds.

    In S, v = arcsinh(tan r) >= 0 is the CH^n radius tilted by lam = -n
    (see the clock-time notes above).  A sweep steps each live lane by h =
    min(min(T - tau, dt) cosh^2 v, max(_H_FLOOR, v^2/_DIVE_STEPS)) of S:
    half a flow (_cp_half_flow), the noise v -> |v + sqrt(h) Z| clamped at
    _M_CAP, and half a flow.  Real time tau grows by the trapezoid rule on
    dt/dS = 1/cosh^2 v, and the area clock by the rest of h.  Returns
    (r_end, clock), the clock being int tan^2 r ds.
    """
    horizon, dt, lanes = cfg.horizon, cfg.dt, cfg.paths

    def step(z, tau, v, clock, q, rq):
        # q is each lane's dS/dt = cosh^2 v, and rq its reciprocal
        t_rem = horizon - tau  # > 0, since a live lane has tau < horizon
        kick = np.multiply(v, v)
        kick /= _DIVE_STEPS
        h = np.minimum(np.multiply(np.minimum(t_rem, dt), q, out=q),
                       np.maximum(_H_FLOOR, kick, out=kick), out=q)
        s = np.multiply(0.5, h, out=kick)
        u, _ = _cp_half_flow(v, n, s)
        u += np.multiply(np.sqrt(h, out=v), z, out=v)
        np.minimum(np.abs(u, out=u), _M_CAP, out=u)
        v, w = _cp_half_flow(u, n, s)
        q_new = np.add(w, 1.0, out=w)
        rq_new = np.divide(1.0, q_new, out=z)
        dtau = np.multiply(s, np.add(rq, rq_new, out=rq), out=rq)
        area = np.subtract(h, dtau, out=h)
        # final step: credit clock only for the fraction inside the horizon
        last = dtau > t_rem
        if np.count_nonzero(last):
            area[last] *= t_rem[last] / dtau[last]
        tau += dtau
        clock += area
        return tau, v, clock, q_new, rq_new

    with np.errstate(over="ignore"):
        v, clock = _clock_sweeps(cfg, rngs, step, (
            *np.zeros((3, lanes)), *np.ones((2, lanes))), 2)
    return np.arctan(np.sinh(np.minimum(v, _V_FLAT))), clock


# ---------------------------------------------------------------------------
# stochastic area and winding samplers

def sample_area(geometry: Geometry, cfg: SimConfig,
                threads: int = 1) -> AreaSamples:
    """Samples of (r(t), theta(t)) for the area process started at the pole.

    Given the radial path, theta is a Brownian motion run at the clock A_t
    (the integral of tan^2 r or tanh^2 r), so it is drawn exactly as
    sqrt(A_t) * Z, Z from _angle_normals.
    """
    cp = geometry.kind == "cp"
    dts = None if cp else _time_grid(cfg)

    def step(sub, rngs):
        if cp:
            return _cp_area_phi(geometry.n, sub, rngs)
        r_end, clock, _ = _hyperbolic_block(
            geometry.n, 0.0, 0.0, dts, rngs[0], sub.paths, True, False)
        return r_end, clock

    r_end, clock = _run_blocks(cfg, step, threads, sweep=cp)
    return AreaSamples(r_end, np.sqrt(clock) * _angle_normals(cfg), clock)


def girsanov_cf_estimator(geometry: Geometry, lam: float, cfg: SimConfig,
                          threads: int = 1) -> CfEstimate:
    """Characteristic function E[e^{i lam theta(t)}] via change of measure.

    Simulates the drift-tilted radial diffusion on the fixed grid of the
    splitting step (_split_step), block by block, and reweights:
    cp: mean[exp(-n lam t - (lam/2) log1p(-w))], w = sin^2 r_t in [0, 1),
    which is e^{-n lam t} (cos r_t)^{-lam} with no step limit on dt;
    ch: mean[exp(n lam t - lam log cosh r_t)], with log cosh r formed so
    that it cannot overflow ((cosh r_t)^{-lam} <= 1 there).
    """
    if not (0 <= lam < math.inf):
        raise ValueError(f"lam must be nonnegative and finite, got {lam!r}")
    n = geometry.n
    t = cfg.horizon
    if lam == 0.0:
        return CfEstimate(complex(1.0), 0.0)
    if geometry.kind == "cp":
        dts = _time_grid(cfg)
        sin2, = _run_blocks(cfg, lambda sub, rngs: (_cp_tilted_block(
            n, lam, dts, rngs[0], sub.paths),), threads)
        w = np.exp(-n * lam * t - 0.5 * lam * np.log1p(-sin2))
    else:
        r = sample_radial_hyperbolic(n, lam, 0.0, cfg, threads=threads).r_end
        # log cosh r = r + log1p(e^{-2r}) - log 2 on r >= 0
        log_w = -lam * (r + np.log1p(np.exp(-2.0 * r)) - math.log(2.0))
        top = float(log_w.max(initial=-math.inf))
        if not top <= 1e-12:  # also catches NaN
            raise RuntimeError(
                f"Girsanov weight above 1 or NaN: max log weight {top}")
        w = np.exp(n * lam * t + log_w)
    se = float(w.std(ddof=1)) / math.sqrt(len(w))
    return CfEstimate(complex(float(w.mean())), se)


def sample_winding(geometry: Geometry, r0: float, cfg: SimConfig,
                   threads: int = 1) -> WindingSamples:
    """Winding angle samples phi(t) = B_{clock} for n=1 geometries.

    cp1: radial generator (1/2)(d^2 + 2 cot 2r d), clock integrand 4/sin^2 2r;
    ch1: radial generator (1/2)(d^2 + 2 coth 2r d), clock integrand 4/sinh^2 2r.
    The angle is drawn as sqrt(clock) * Z (exact given the radial path), Z
    from _angle_normals.
    """
    if geometry.n != 1:
        raise ValueError("winding samplers are defined for n = 1 only")
    if geometry.kind == "cp":
        if not (0.0 < r0 < math.pi / 2):
            raise ValueError("r0 must lie in (0, pi/2) for cp1")
    elif not (r0 > 0):
        raise ValueError("r0 must be positive for ch1")

    clock, = _run_blocks(
        cfg, lambda sub, rngs: (_winding_phi(geometry.kind, r0, sub, rngs),),
        threads, sweep=True)
    return WindingSamples(_angle_normals(cfg) * np.sqrt(clock), clock)


def sample_planar_area(cfg: SimConfig, threads: int = 1) -> AreaSamples:
    """Samples of (|Z_t|, S_t), S_t = int x dy - y dx the Levy area of a
    planar Brownian motion Z from 0: sample_area's flat case.  w = |Z|^2,
    a squared 2-d Bessel process, takes _split_step at n = 1 and k = 0;
    S_t is drawn as sqrt(A_t) * N given the clock A_t = int w ds, by the
    trapezoid rule.  Each step keeps E[w] = 2t, so E[A_t] = t^2 exactly.
    """
    dts = _time_grid(cfg)
    # trapezoid weights of the grid points after the start, where w = 0
    weights = 0.5 * (dts + np.append(dts[1:], 0.0))

    def block(sub, rngs):
        w, clock, r, dw = np.zeros((4, sub.paths))
        for h, c in zip(dts, weights):
            _split_step(w, r, dw, 1, 0.0, h, rngs[0], None, None)
            clock += np.multiply(w, c, out=r)
        return np.sqrt(w), clock

    r_end, clock = _run_blocks(cfg, block, threads)
    return AreaSamples(r_end, np.sqrt(clock) * _angle_normals(cfg), clock)
