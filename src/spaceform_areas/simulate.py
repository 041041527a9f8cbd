"""SDE path samplers for the radial diffusions, stochastic areas, and windings.

All samplers draw from counter-based (Philox) substreams keyed by
(master_seed, block index), with paths partitioned into fixed-size blocks.
The fixed-grid samplers run their blocks through _run_blocks, serially or
on a thread pool; the clock-time samplers step all blocks of a call in one
sweep loop (_clock_sweeps).  Either way each path depends only on its
block's stream, so results are bit-identical regardless of the thread
count.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .stats import CfEstimate

BLOCK_SIZE = 4096
EPS_START = 1e-6
FINE_DT = 1e-4


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
        if self.paths < 1:
            raise ValueError("paths must be >= 1")
        if not (0 <= self.master_seed < 2 ** 64):
            raise ValueError("master_seed must fit in 64 bits")


def _is_positive_int(n) -> bool:
    """True for an integer n >= 1 of any integral type but bool."""
    return (isinstance(n, numbers.Integral) and not isinstance(n, bool)
            and n >= 1)


@dataclass(frozen=True)
class Geometry:
    """Target space selector: complex projective ('cp') or hyperbolic ('ch')."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in ("cp", "ch"):
            raise ValueError("kind must be 'cp' or 'ch'")
        if not _is_positive_int(self.n):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")

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
    return np.random.Generator(
        np.random.Philox(key=(block_index << 64) | master_seed)
    )


def _time_grid(cfg: SimConfig, refine_start: bool) -> np.ndarray:
    """Step sizes covering [0, horizon]; with refine_start, the first
    min(1% of the horizon, 0.05) is stepped at FINE_DT or finer, the fine
    stretch of _cp_area_phi."""
    if not refine_start or cfg.dt <= FINE_DT:
        n_full = int(cfg.horizon / cfg.dt)
        rem = cfg.horizon - n_full * cfg.dt
        steps = [cfg.dt] * n_full
        if rem > 1e-12 * cfg.horizon:
            steps.append(rem)
        return np.asarray(steps)
    t_fine = min(0.01 * cfg.horizon, 0.05)
    n_fine = int(math.ceil(t_fine / FINE_DT))
    fine = t_fine / n_fine
    rest = cfg.horizon - t_fine
    n_full = int(rest / cfg.dt)
    rem = rest - n_full * cfg.dt
    steps = [fine] * n_fine + [cfg.dt] * n_full
    if rem > 1e-12 * cfg.horizon:
        steps.append(rem)
    return np.asarray(steps)


def _run_blocks(cfg: SimConfig, block_fn, threads: int = 1) -> tuple:
    """Run block_fn(block_index, block_size, rng) on every block of
    cfg.paths, rng being the block's Philox stream, and concatenate each
    value it returns across the blocks, in block order."""
    jobs = [(i, min(BLOCK_SIZE, cfg.paths - start))
            for i, start in enumerate(range(0, cfg.paths, BLOCK_SIZE))]

    def run(job):
        i, m = job
        return block_fn(i, m, _block_rng(cfg.master_seed, i))

    if threads <= 1 or len(jobs) == 1:
        parts = [run(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(run, jobs))
    return tuple(np.concatenate(values) for values in zip(*parts))


# ---------------------------------------------------------------------------
# closed-form r-mode step of the CP^n area sampler (_cp_area_phi)

# The step keeps its lanes inside (0, pi/2) while both coefficients are
# below this: then Q(pi/4) < pi/2 (see _cot_tan_step).
CP_STEP_LIMIT = math.pi ** 2 / 8.0


def cp_step_ok(n, lam, dt) -> bool:
    """True when (n - 1/2) dt and (lam + 1/2) dt are below CP_STEP_LIMIT."""
    # n < limit + 1/2 compares an integer n of any size exactly
    limit = CP_STEP_LIMIT / dt
    return n < limit + 0.5 and lam < limit - 0.5


def _cot_tan_map(y, a, p, p4, q):
    """F(y) = Q(a - p g(y) - q tan y), with g(y) = 1/y - cot y and Q(c) =
    (c + sqrt(c^2 + 4p))/2; p4 is 4p."""
    t = np.tan(y)
    c = p / t
    c -= q * t
    c -= p / y
    c += a
    y_new = np.sqrt(c * c + p4)
    y_new += c
    y_new *= 0.5
    return y_new


def _cot_tan_step(arg: np.ndarray, b1, b2) -> np.ndarray:
    """The implicit step x = arg + b1 cot x - b2 tan x, b1, b2 > 0, in
    closed form on (0, pi/2).

    It works in the variable nearer the singular end: y = x, p = b1,
    q = b2 and a = arg when arg < pi/4, else y = pi/2 - x, p = b2, q = b1
    and a = pi/2 - arg.  There the equation reads y = a + p/y - p g(y)
    - q tan y, with g(y) = 1/y - cot y increasing and 0 <= g < 2/pi.  The
    p/y part stays implicit through Q(c) = (c + sqrt(c^2 + 4p))/2, the
    positive root of y = c + p/y, so the root y* is the fixed point of the
    decreasing map F(y) = Q(a - p g(y) - q tan y).  From y_up = Q(a) >= y*
    two evaluations give y1 = F(y_up) <= y* and y = F(y1), so y1 <= y* <=
    y <= y_up and y - y* = O(b^3), b = max(b1, b2).  Since a <= pi/4,
    y_up < pi/2 whenever p < CP_STEP_LIMIT, and x stays in (0, pi/2) with
    no clamp.  Each lane depends only on its own inputs.
    """
    near = arg < math.pi / 4.0
    a = np.where(near, arg, math.pi / 2.0 - arg)
    p = np.where(near, b1, b2)
    q = np.where(near, b2, b1)
    p4 = 4.0 * p
    y_up = 0.5 * (a + np.sqrt(a * a + p4))
    y = _cot_tan_map(_cot_tan_map(y_up, a, p, p4, q), a, p, p4, q)
    return np.where(near, y, math.pi / 2.0 - y)


# ---------------------------------------------------------------------------
# hyperbolic radial sampler

def _coth_step(arg: np.ndarray, b: float) -> np.ndarray:
    """The implicit step x = arg + b*coth(x), b > 0, in closed form.

    coth x = 1/x + g(x), where g (the Langevin function) is increasing,
    0 <= g < 1 and g' <= 1/3.  The 1/x part stays implicit: the positive
    root of x = a + b/x is Q(a) = (a + sqrt(a^2 + 4b))/2.  g is taken at
    the upper predictor x_up = Q(arg + b), so x = Q(arg + b g(x_up)).
    Since 0 < Q' < 1, the exact root x* satisfies x* <= x <= x_up and
    x - x* <= b^2/3, and x >= arg + b as for x*.  Each lane depends only
    on its own arg.
    """
    a = arg + b
    x_up = np.maximum(0.5 * (a + np.sqrt(a * a + 4.0 * b)), 1e-12)
    # a = arg + b g(x_up), in place
    a = np.tanh(x_up)
    np.subtract(np.divide(1.0, a, out=a), np.divide(1.0, x_up, out=x_up),
                out=a)
    a *= b
    a += arg
    x = 0.5 * (a + np.sqrt(a * a + 4.0 * b))
    return np.maximum(x, 1e-12, out=x)


# Past this radius np.tanh(r) == 1.0 in double precision (1 - tanh r is
# about 2 exp(-2r), below half an ulp of 1 from r = 19.06 on), so the exact
# implicit CH step is r + (n + lam) dt + dW and tanh^2 r is 1.  _coth_step
# adds b (1/x - 1/x_up), about b^2/r^3 and under 1.5e-4 b^2, to it there.
_R_FAR = 19.1


def _hyperbolic_block(n: int, lam: float, r0: float, dts: np.ndarray,
                      rng: np.random.Generator, m: int, record_clock: bool,
                      track_bound: bool):
    """One block of m CH radial paths by the semi-implicit scheme.

    Returns (r_end, clock, slack): the tanh^2 r clock by the trapezoid rule
    (None unless record_clock) and, per lane, the min over steps of
    r - ((n - 1/2) t + gamma) (inf unless track_bound).

    Once every lane is past _R_FAR the rest of the path is drawn at once:
    r_T = r + (n + lam)(T - tau) + sqrt(T - tau) Z, and the clock grows by
    T - tau.  The slack only grows from there, by (lam + 1/2) per unit
    time, so its minimum is final.  Below _R_FAR the drift and the clock
    rate differ from n + lam and 1 by 2|n - lam - 1| exp(-2r) and
    4 exp(-2r) to leading order; since n + lam >= 1, E[exp(-2 r_s)] stays
    at most exp(-2 _R_FAR) after the finish, so the expected clock it
    misses is below 1.1e-16 (T - tau).
    """
    r = np.full(m, r0)
    th = np.tanh(r)
    clock = np.zeros(m) if record_clock else None
    f = th * th if record_clock else None
    slack = np.full(m, math.inf)
    gamma = np.zeros(m)
    t_acc = 0.0
    b_coth = 0.5 * (2.0 * n - 1.0)
    b_tanh = 0.5 * (2.0 * lam + 1.0)
    for k, dt in enumerate(dts):
        if r.min() > _R_FAR:
            t_left = float(dts[k:].sum())
            r = r + ((n + lam) * t_left
                     + math.sqrt(t_left) * rng.standard_normal(m))
            if record_clock:
                clock += t_left
            break
        dw = rng.standard_normal(m) * math.sqrt(dt)
        # th is tanh(r), computed once per step
        r = _coth_step(r + b_tanh * th * dt + dw, b_coth * dt)
        if track_bound:
            gamma += dw
            t_acc += dt
            np.minimum(slack, r - ((n - 0.5) * t_acc + gamma), out=slack)
        th = np.tanh(r)
        if record_clock:
            f_new = th * th
            clock += 0.5 * (f + f_new) * dt
            f = f_new
    return r, clock, slack


def sample_radial_hyperbolic(n: int, girsanov_lambda: float, r0: float,
                             cfg: SimConfig, track_bound: bool = False,
                             threads: int = 1) -> RadialSamples:
    """Paths of the radial diffusion on [0, inf) with drift
    (1/2)((2n - 1) coth r + (2 lambda + 1) tanh r).

    Semi-implicit scheme: the coth term is stepped implicitly in closed form
    (_coth_step), which keeps paths strictly positive and preserves the
    per-step lower bound r_{k+1} >= r_k + (n - 1/2) dt + dW_k.  A block
    whose lanes are all past _R_FAR finishes in one closed-form draw (see
    _hyperbolic_block).
    """
    if not _is_positive_int(n):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not (0 <= girsanov_lambda < math.inf):
        raise ValueError("girsanov_lambda must be nonnegative and finite")
    if not (0 <= r0 < math.inf):
        raise ValueError("r0 must be nonnegative and finite")
    eps_started = r0 == 0.0
    r0_eff = EPS_START if eps_started else r0
    dts = _time_grid(cfg, refine_start=eps_started)

    def block(i, m, rng):
        r, _, slack = _hyperbolic_block(n, girsanov_lambda, r0_eff, dts, rng,
                                        m, False, track_bound)
        return r, slack

    r_end, slack = _run_blocks(cfg, block, threads)
    return RadialSamples(r_end, min_bound_slack=float(slack.min()))


# ---------------------------------------------------------------------------
# clock-time (time-changed Brownian motion) machinery
#
# The heavy-tailed clocks (tan^2 r near r = pi/2, 4/sin^2 2r and
# 4/sinh^2 2r near the axes) are dominated by excursions that approach the
# singular radius to within exp(-O(t)) -- far beyond the reach of any fixed
# step size in r.  In clock time Phi (the accumulated clock itself), the
# transformed radial coordinate becomes an exact driftless Brownian motion
# for the n=1 winding diffusions (m = log tan r, resp. m = log tanh r),
# and a Brownian motion with explicitly integrable drift for the projective
# area diffusion (psi = -log cos r, where d psi = n dt + tan r dW).  These
# samplers therefore step in Phi with an adaptive step: sized so that real
# time advances by ~dt in the bulk, and capped at m^2/_DIVE_STEPS during
# deep excursions so that arbitrarily deep dives are resolved in a bounded
# number of exact-in-law Brownian steps.  Only the real-time integral
# tau = int dPhi / clockrate is discretized (left-endpoint rule, so each
# real-time increment is bounded by dt).

_H_FLOOR = 0.04          # clock-time step ceiling in the bulk
_DIVE_STEPS = 16.0       # dive step cap m^2/_DIVE_STEPS (kick ~ |m|/4)
_M_CAP = 2000.0          # log-depth cutoff; chosen far beyond any depth a
#                          Brownian dive can reach within the clock spans we
#                          simulate, so the excursion law is never truncated
#                          (rates overflow to inf past ~355, which the
#                          trapezoid handles: 1/inf = 0, min(inf, cap) = cap)
_M_FLOOR_CH = 1e-8       # ch1: residual clock above this m is negligible
_R_UP = math.pi / 4.0    # r-mode -> psi-mode handoff radius
_PSI_SWITCH = 0.30       # psi-mode -> r-mode handoff level (below -log cos
#                          of _R_UP, giving hysteresis so lanes near the
#                          boundary do not flip modes every sweep)
_T2_SWITCH = math.expm1(2.0 * _PSI_SWITCH)  # tan^2 r at the down-handoff
# A clock-time call raises once its sweeps exceed _SWEEP_HEADROOM times a
# base count: (fine stretch)/(fine step) + horizon/min(dt, _BULK_DT).
# Whatever dt is, a bulk step of the CP^1 winding covers at most about
# _BULK_DT of real time: _H_FLOOR of clock at the least rate 4 cosh^2 0.
# Kernels whose steps can be longer only get a looser cap.  Over the
# golden sizes, the acceptance runs and the benchmark workloads the most
# sweeps a call took was 5.14 times its base (winding-cp1 at t = 2,
# dt = 0.05), so a stuck sampler fails after about 12 times the sweeps a
# call can need.
_BULK_DT = _H_FLOOR / 4.0
_SWEEP_HEADROOM = 64.0


def _block_rngs(cfg: SimConfig, offset: int = 0) -> list:
    """The Philox stream of every block of cfg.paths, keyed by offset plus
    the block index."""
    return [_block_rng(cfg.master_seed, offset + i)
            for i in range(-(-cfg.paths // BLOCK_SIZE))]


def _fill_normals(rngs: list, blocks, out: np.ndarray) -> None:
    """Fill each listed block's slice of out from that block's stream."""
    for i in blocks:
        rngs[i].standard_normal(out=out[i * BLOCK_SIZE:(i + 1) * BLOCK_SIZE])


def _clock_sweeps(cfg: SimConfig, rngs: list, tau: np.ndarray,
                  z: np.ndarray, fine_sweeps: float = 0.0):
    """Yield the live mask tau < cfg.horizon of each sweep over every path
    of a clock-time call, until no lane is live.

    Before each yield, the slices of z of the blocks that still have a
    live lane are filled from the block's own stream.  A finished block
    draws nothing more, so its stream ends where its own sweeps leave it,
    however long other blocks run; and since each lane's step depends only
    on its own inputs, no lane's path depends on the other lanes of the
    call.  The output is therefore the same as stepping each block alone.
    The caller advances tau in place.  Raises RuntimeError after
    _SWEEP_HEADROOM times the base count of sweeps, fine_sweeps +
    horizon/min(dt, _BULK_DT).
    """
    starts = np.arange(0, cfg.paths, BLOCK_SIZE)
    min_sweeps = fine_sweeps + cfg.horizon / min(cfg.dt, _BULK_DT)
    max_sweeps = math.ceil(_SWEEP_HEADROOM * min_sweeps)
    for _ in range(max_sweeps):
        active = tau < cfg.horizon
        live = np.flatnonzero(np.logical_or.reduceat(active, starts))
        if not live.size:
            return
        _fill_normals(rngs, live, z)
        yield active
    raise RuntimeError(
        f"clock-time sampler failed to reach horizon {cfg.horizon} in "
        f"{max_sweeps} sweeps")


def _winding_phi(kind: str, r0: float, cfg: SimConfig, rngs: list):
    """Winding radial paths in clock-time coordinates, every block of cfg
    in one sweep loop, with m = log tan r (cp, on R) or log tanh r (ch, on
    (-inf, 0)).  A sweep steps only the live lanes.

    Returns the clock int 4 ds / sin^2 2r (cp) or int 4 ds / sinh^2 2r (ch)
    up to the horizon.
    """
    horizon, dt, lanes = cfg.horizon, cfg.dt, cfg.paths
    cp = kind == "cp"
    m0 = math.log(math.tan(r0)) if cp else math.log(math.tanh(r0))
    mm = np.full(lanes, m0)
    tau = np.zeros(lanes)
    clock = np.zeros(lanes)
    z = np.zeros(lanes)
    # the clock rate is 4 csh(m)^2: 4 cosh^2 m (cp) or 4 sinh^2 m (ch)
    csh = np.cosh if cp else np.sinh
    # ch transient endgame: for m this close to 0 the remaining clock is
    # below 4 m^2 (horizon - tau), which is negligible, so the lane retires
    if not cp and m0 > -_M_FLOOR_CH:
        tau[:] = horizon
    with np.errstate(over="ignore"):
        for active in _clock_sweeps(cfg, rngs, tau, z):
            idx = np.flatnonzero(active)
            m, t = mm[idx], tau[idx]
            t_rem = horizon - t  # > 0, since a live lane has tau < horizon
            q = 4.0 * csh(m) ** 2
            h = np.minimum(np.minimum(t_rem, dt) * q,
                           np.maximum(_H_FLOOR, m * m / _DIVE_STEPS))
            m_new = m + np.sqrt(h) * z[idx]
            if cp:
                np.minimum(np.maximum(m_new, -_M_CAP, out=m_new), _M_CAP,
                           out=m_new)
            else:
                above = m_new >= 0.0
                if np.count_nonzero(above):
                    m_new[above] = 0.5 * m[above]
                np.maximum(m_new, -_M_CAP, out=m_new)
            q_new = 4.0 * csh(m_new) ** 2
            # trapezoid estimate of the real time elapsed over the Phi-step
            # (the rate 1/q varies exponentially within a step, so the
            # left-endpoint rule is systematically biased)
            dtau = 0.5 * h * (1.0 / q + 1.0 / np.maximum(q_new, 1e-300))
            # final step: credit clock only for the fraction inside the horizon
            last = dtau > t_rem
            if np.count_nonzero(last):
                h[last] *= t_rem[last] / np.maximum(dtau[last], 1e-300)
            mm[idx] = m_new
            tau[idx] = t + dtau
            clock[idx] += h
            if not cp:
                tau[idx[m_new > -_M_FLOOR_CH]] = horizon
    return clock


def _cp_area_phi(n: int, lam: float, cfg: SimConfig, rngs: list):
    """Projective radial/area paths, hybrid r- and psi-mode, every block of
    cfg in one sweep loop.

    Near the pole the path is stepped in r by the closed-form implicit
    step _cot_tan_step; past r ~ pi/4 it switches to psi = -log cos r
    stepped in clock time, where the area clock is exact (clock increment
    = Phi-step) and boundary dives are Brownian.  lam > 0 adds the
    measure-change drift -(lam) tan^2 r dt.  Returns (r_end, clock,
    cos_r_end), the clock being int tan^2 r ds.  Raises ValueError unless
    (n - 1/2) dt and (lam + 1/2) dt are below CP_STEP_LIMIT.
    """
    horizon, dt, lanes = cfg.horizon, cfg.dt, cfg.paths
    b1 = n - 0.5
    if not cp_step_ok(n, lam, dt):
        raise ValueError(
            f"the CP r-step needs (n - 1/2) dt and (lam + 1/2) dt below "
            f"pi^2/8 = {CP_STEP_LIMIT:.6g}, got n = {n}, lam = {lam} and "
            f"dt = {dt}")
    t_fine = min(0.01 * horizon, 0.05)
    fine = min(dt, FINE_DT)
    r = np.full(lanes, EPS_START)
    psi = np.zeros(lanes)
    in_psi = np.zeros(lanes, dtype=bool)
    tau = np.zeros(lanes)
    clock = np.zeros(lanes)
    z = np.zeros(lanes)
    with np.errstate(over="ignore"):
        for active in _clock_sweeps(cfg, rngs, tau, z, t_fine / fine):
            # lanes promoted from r-mode below are stepped in psi-mode from
            # the next sweep on, so no lane moves (or consumes its Gaussian)
            # twice per sweep
            stepped_in_psi = active & in_psi
            jdx = np.flatnonzero(stepped_in_psi)
            idx = np.flatnonzero(active ^ stepped_in_psi)
            if idx.size:
                ti = tau[idx]  # < horizon on a live lane
                dti = np.minimum(np.where(ti < t_fine, fine, dt),
                                 horizon - ti)
                sq = np.sqrt(dti)
                r_old = r[idx]
                r_new = _cot_tan_step(r_old + sq * z[idx], b1 * dti,
                                      (lam + 0.5) * dti)
                tan_old, tan_new = np.tan(r_old), np.tan(r_new)
                clock[idx] += (0.5 * (tan_old * tan_old + tan_new * tan_new)
                               * dti)
                tau[idx] = ti + dti
                r[idx] = r_new
                up = r_new > _R_UP
                if np.count_nonzero(up):
                    j = idx[up]
                    psi[j] = -np.log(np.cos(r_new[up]))
                    in_psi[j] = True
            if jdx.size:
                p_old, tj = psi[jdx], tau[jdx]
                t2 = np.expm1(2.0 * p_old)
                t_rem = horizon - tj
                cap = np.maximum(_H_FLOOR, p_old * p_old / _DIVE_STEPS)
                h = np.minimum(np.minimum(t_rem, dt) * t2, cap)
                p_mart = p_old - lam * h + np.sqrt(h) * z[jdx]
                np.minimum(np.maximum(p_mart, 1e-12, out=p_mart), _M_CAP,
                           out=p_mart)
                # trapezoid real-time estimate over the Phi-step; any part of
                # the step below the handoff level runs at the handoff rate
                # (the lane exits to r-mode there, so 1/t2 stays bounded)
                t2_new = np.maximum(np.expm1(2.0 * p_mart), _T2_SWITCH)
                dtau = 0.5 * h * (1.0 / t2 + 1.0 / t2_new)
                p_new = np.minimum(np.maximum(p_mart + n * dtau, 1e-12),
                                   _M_CAP)
                # final step: credit clock only for the fraction inside the
                # horizon
                last = dtau > t_rem
                if np.count_nonzero(last):
                    h[last] *= t_rem[last] / np.maximum(dtau[last], 1e-300)
                clock[jdx] += h
                tau[jdx] = tj + dtau
                psi[jdx] = p_new
                down = p_new < _PSI_SWITCH
                if np.count_nonzero(down):
                    k = jdx[down]
                    r[k] = np.arccos(np.exp(-p_new[down]))
                    in_psi[k] = False
    cos_r = np.where(in_psi, np.exp(-psi), np.cos(r))
    r_end = np.where(in_psi, np.arccos(np.minimum(np.exp(-psi), 1.0)), r)
    return r_end, clock, cos_r


# ---------------------------------------------------------------------------
# stochastic area and winding samplers

def sample_area(geometry: Geometry, cfg: SimConfig,
                threads: int = 1) -> AreaSamples:
    """Samples of (r(t), theta(t)) for the area process started at the pole.

    Given the radial path, theta is a Brownian motion run at the clock A_t
    (the integral of tan^2 r or tanh^2 r), so it is drawn exactly as
    sqrt(A_t) * Z.  `threads` schedules the blocks of CH^n only; on CP^n
    all blocks are stepped in one sweep loop.
    """
    if geometry.kind == "cp":
        rngs = _block_rngs(cfg)
        r_end, clock, _ = _cp_area_phi(geometry.n, 0.0, cfg, rngs)
        z = np.empty(cfg.paths)
        _fill_normals(rngs, range(len(rngs)), z)
        return AreaSamples(r_end, np.sqrt(clock) * z, clock)
    dts = _time_grid(cfg, refine_start=True)

    def block(i, m, rng):
        r_end, clock, _ = _hyperbolic_block(
            geometry.n, 0.0, EPS_START, dts, rng, m, True, False)
        return r_end, np.sqrt(clock) * rng.standard_normal(m), clock

    return AreaSamples(*_run_blocks(cfg, block, threads))


def girsanov_cf_estimator(geometry: Geometry, lam: float, cfg: SimConfig,
                          threads: int = 1) -> CfEstimate:
    """Characteristic function E[e^{i lam theta(t)}] via change of measure.

    Simulates the drift-tilted radial diffusion and reweights:
    cp: e^{-n lam t} * mean[(cos r_t)^{-lam}];
    ch: e^{+n lam t} * mean[(cosh r_t)^{-lam}] (weights are <= 1 there).
    `threads` schedules the blocks of CH^n only; on CP^n all blocks are
    stepped in one sweep loop.
    """
    if not (0 <= lam < math.inf):
        raise ValueError(f"lam must be nonnegative and finite, got {lam!r}")
    n = geometry.n
    t = cfg.horizon
    if lam == 0.0:
        return CfEstimate(complex(1.0), 0.0, cfg.paths)
    if geometry.kind == "cp":
        cos_r = _cp_area_phi(n, lam, cfg, _block_rngs(cfg))[2]
        w = cos_r ** (-lam)
        pref = math.exp(-n * lam * t)
    else:
        res = sample_radial_hyperbolic(n, lam, 0.0, cfg, threads=threads)
        w = np.cosh(res.r_end) ** (-lam)
        if not float(w.max(initial=0.0)) <= 1.0 + 1e-12:  # also catches NaN
            raise RuntimeError(
                f"Girsanov weight above 1 or NaN: max {w.max(initial=0.0)}")
        pref = math.exp(n * lam * t)
    value = pref * float(w.mean())
    se = pref * float(w.std(ddof=1)) / math.sqrt(len(w))
    return CfEstimate(complex(value), se, len(w))


def sample_winding(geometry: Geometry, r0: float, cfg: SimConfig,
                   threads: int = 1) -> WindingSamples:
    """Winding angle samples phi(t) = B_{clock} for n=1 geometries.

    cp1: radial generator (1/2)(d^2 + 2 cot 2r d), clock integrand 4/sin^2 2r;
    ch1: radial generator (1/2)(d^2 + 2 coth 2r d), clock integrand 4/sinh^2 2r.
    The angle is drawn as sqrt(clock) * Z (exact given the radial path).
    All blocks are stepped in one sweep loop, so `threads` is unused; it
    is kept so that every sampler takes the same arguments.
    """
    if geometry.n != 1:
        raise ValueError("winding samplers are defined for n = 1 only")
    if geometry.kind == "cp":
        if not (0.0 < r0 < math.pi / 2):
            raise ValueError("r0 must lie in (0, pi/2) for cp1")
    else:
        if not (r0 > 0):
            raise ValueError("r0 must be positive for ch1")

    clock = _winding_phi(geometry.kind, r0, cfg, _block_rngs(cfg))
    # the winding draw must not depend on how the radial sampler consumed
    # randomness, so each block uses a dedicated offset substream
    angle_rngs = _block_rngs(cfg, offset=1 << 62)
    z = np.empty(cfg.paths)
    _fill_normals(angle_rngs, range(len(angle_rngs)), z)
    return WindingSamples(z * np.sqrt(clock), clock)


def sample_planar_area(t: float, cfg: SimConfig, threads: int = 1):
    """Planar Brownian motion with Levy area by the midpoint rule.

    Returns (z_end complex array, s_end real array).
    """
    if not (t > 0):
        raise ValueError("t must be positive")
    cfg_t = SimConfig(t, min(cfg.dt, t), cfg.paths, cfg.master_seed)
    dts = _time_grid(cfg_t, refine_start=False)

    def block(i, m, rng):
        x = np.zeros(m)
        y = np.zeros(m)
        s = np.zeros(m)
        for dt in dts:
            sq = math.sqrt(dt)
            dx = rng.standard_normal(m) * sq
            dy = rng.standard_normal(m) * sq
            s += (x + 0.5 * dx) * dy - (y + 0.5 * dy) * dx
            x += dx
            y += dy
        return x + 1j * y, s

    return _run_blocks(cfg_t, block, threads)
