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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .specfun import JacobiParams, Regime
from .stats import CfEstimate

BLOCK_SIZE = 4096
EPS_START = 1e-6
FINE_DT = 1e-4
CLOCK_CAP = 1e12


@dataclass(frozen=True)
class SimConfig:
    """Common configuration for all path samplers."""

    horizon: float
    dt: float
    paths: int
    master_seed: int

    def __post_init__(self):
        if not (self.horizon > 0):
            raise ValueError("horizon must be positive")
        if not (0 < self.dt <= self.horizon):
            raise ValueError("dt must be in (0, horizon]")
        if self.paths < 1:
            raise ValueError("paths must be >= 1")
        if not (0 <= self.master_seed < 2 ** 64):
            raise ValueError("master_seed must fit in 64 bits")


@dataclass(frozen=True)
class Geometry:
    """Target space selector: complex projective ('cp') or hyperbolic ('ch')."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in ("cp", "ch"):
            raise ValueError("kind must be 'cp' or 'ch'")
        if self.n < 1:
            raise ValueError("n must be a positive integer")

    @classmethod
    def cp(cls, n: int) -> "Geometry":
        return cls("cp", n)

    @classmethod
    def ch(cls, n: int) -> "Geometry":
        return cls("ch", n)


@dataclass
class RadialSamples:
    """Terminal radial values and accumulated clock (zeros when no clock is
    recorded), with scheme diagnostics."""

    r_end: np.ndarray
    clock: np.ndarray
    cap_count: int = 0
    # min over all paths/steps of r - ((n - 1/2) t + gamma); hyperbolic only
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
# clock integrands, accumulated by the trapezoid rule (tan^2 r capped per
# step; tanh^2 r <= 1 needs no cap)

def _tan2(r: np.ndarray) -> np.ndarray:
    rho = np.cos(2.0 * r)
    return (1.0 - rho) / np.maximum(1.0 + rho, 1e-300)


def _tanh2(r: np.ndarray) -> np.ndarray:
    return np.tanh(r) ** 2


def _clock_step(clock_fn, r: np.ndarray, f_old: np.ndarray,
                clock: np.ndarray, caps: np.ndarray, dt: float) -> np.ndarray:
    """Add one trapezoid step of clock_fn along r to clock, counting in caps
    the lanes where it exceeded CLOCK_CAP; returns the capped clock_fn(r)."""
    f_new = clock_fn(r)
    caps += f_new > CLOCK_CAP
    f_new = np.minimum(f_new, CLOCK_CAP)
    clock += 0.5 * (f_old + f_new) * dt
    return f_new


# ---------------------------------------------------------------------------
# spherical radial sampler

_MAX_SOLVER_ITERS = 60
_SOLVER_TOL = 1e-12


def _implicit_cot_tan_solve(arg: np.ndarray, b1: float, b2: float) -> np.ndarray:
    """Solve x = arg + b1*cot(x) - b2*tan(x) on (0, pi/2), b1, b2 > 0.

    The residual increases strictly from -inf to +inf on the interval, so
    the interior root is unique.  Solved by safeguarded Newton in the
    variable u = log tan x, where both singular terms become exponentials
    and bisection fallback converges in relative terms near the endpoints.
    A lane keeps its u once its residual is below _SOLVER_TOL: a further
    Newton correction can be below one ulp, and the bracket safeguard would
    then throw the lane off its root to the bracket midpoint.  Raises
    RuntimeError if some lane is still unconverged after _MAX_SOLVER_ITERS
    steps.
    """
    u_cap = 28.0
    lo = np.full_like(arg, -u_cap)
    hi = np.full_like(arg, u_cap)
    # start from the root of the model that keeps only the nearer singular
    # term: x = arg + b1/x near 0, or y = (pi/2 - arg) + b2/y for
    # y = pi/2 - x near pi/2
    c = math.pi / 2.0 - arg
    x0 = np.where(arg < math.pi / 4.0,
                  0.5 * (arg + np.sqrt(arg * arg + 4.0 * b1)),
                  math.pi / 2.0 - 0.5 * (c + np.sqrt(c * c + 4.0 * b2)))
    np.clip(x0, 1e-12, math.pi / 2.0 - 1e-12, out=x0)
    u = np.clip(np.log(np.tan(x0)), -u_cap, u_cap)
    for _ in range(_MAX_SOLVER_ITERS + 1):
        e = np.exp(u)
        einv = 1.0 / e
        h = np.arctan(e) - b1 * einv + b2 * e - arg
        live = np.abs(h) >= _SOLVER_TOL
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
        f"implicit cot/tan solve not converged after {_MAX_SOLVER_ITERS} "
        f"steps: largest residual {np.abs(h).max():.3g}")


def _spherical_block(p: JacobiParams, r0: float, dts: np.ndarray,
                     rng: np.random.Generator, m: int, clock_fn):
    """Semi-implicit scheme in r for one block of m paths; both singular
    drift terms are solved implicitly, which keeps every path strictly
    inside (0, pi/2) with no clamping."""
    b1, b2 = p.alpha + 0.5, p.beta + 0.5
    r = np.full(m, r0)
    clock = np.zeros(m)
    caps = np.zeros(m, dtype=np.int64)
    f = None if clock_fn is None else np.minimum(clock_fn(r), CLOCK_CAP)
    for dt in dts:
        dw = rng.standard_normal(m) * math.sqrt(dt)
        r = _implicit_cot_tan_solve(r + dw, b1 * dt, b2 * dt)
        if clock_fn is not None:
            f = _clock_step(clock_fn, r, f, clock, caps, dt)
    return r, clock, caps


def sample_radial_spherical(p: JacobiParams, r0: float, cfg: SimConfig,
                            record_clock: str = "none",
                            threads: int = 1) -> RadialSamples:
    """Paths of the radial diffusion on [0, pi/2] with generator
    (1/2)(d^2/dr^2 + ((2 alpha + 1) cot r - (2 beta + 1) tan r) d/dr).

    Requires alpha, beta >= 0 (r=0 and r=pi/2 are then entrance boundaries).
    `record_clock` is 'none' or 'tan2'; the integrand is accumulated by the
    trapezoid rule and capped per step.
    """
    if p.regime is not Regime.TRIGONOMETRIC:
        raise ValueError("requires trigonometric JacobiParams")
    if p.alpha < 0 or p.beta < 0:
        raise ValueError("requires alpha, beta >= 0 (entrance boundaries)")
    if not (0.0 <= r0 < math.pi / 2):
        raise ValueError("r0 must lie in [0, pi/2)")
    if record_clock not in ("none", "tan2"):
        raise ValueError(f"unknown spherical clock {record_clock!r}")
    clock_fn = _tan2 if record_clock == "tan2" else None
    eps_started = r0 == 0.0
    r0_eff = EPS_START if eps_started else r0
    dts = _time_grid(cfg, refine_start=eps_started)

    def block(i, m, rng):
        return _spherical_block(p, r0_eff, dts, rng, m, clock_fn)

    r_end, clock, caps = _run_blocks(cfg, block, threads)
    return RadialSamples(r_end, clock, cap_count=int(caps.sum()))


# ---------------------------------------------------------------------------
# hyperbolic radial sampler

def _implicit_coth_solve(arg: np.ndarray, b: float) -> np.ndarray:
    """Solve x = arg + b*coth(x) on (0, inf) by Newton, b > 0.

    The map x - b coth(x) is strictly increasing from -inf, so the positive
    root is unique; since coth >= 1 the solution satisfies x >= arg + b.
    Every lane takes a Newton step until all residuals are below
    _SOLVER_TOL.  Raises RuntimeError if some lane is still unconverged
    after _MAX_SOLVER_ITERS steps.
    """
    x = 0.5 * (arg + np.sqrt(arg * arg + 4.0 * b))
    np.clip(x, 1e-12, None, out=x)
    for _ in range(_MAX_SOLVER_ITERS + 1):
        th = np.tanh(x)
        g = x - b / th - arg
        if np.all(np.abs(g) < _SOLVER_TOL):
            return x
        sh2 = np.sinh(np.minimum(x, 350.0)) ** 2
        gp = 1.0 + b / np.maximum(sh2, 1e-300)
        x = x - g / gp
        np.clip(x, 1e-12, None, out=x)
    raise RuntimeError(
        f"implicit coth solve not converged after {_MAX_SOLVER_ITERS} "
        f"steps: largest residual {np.abs(g).max():.3g}")


# Past this radius np.tanh(r) == 1.0 in double precision (1 - tanh r is
# about 2 exp(-2r), below half an ulp of 1 from r = 19.06 on), so the
# implicit CH step is exactly r + (n + lam) dt + dW and tanh^2 r is 1.
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
    clock = np.zeros(m) if record_clock else None
    f = _tanh2(r) if record_clock else None
    slack = np.full(m, math.inf)
    gamma = np.zeros(m)
    t_acc = 0.0
    b_coth = 0.5 * (2.0 * n - 1.0)
    for k, dt in enumerate(dts):
        if r.min() > _R_FAR:
            t_left = float(dts[k:].sum())
            r = r + ((n + lam) * t_left
                     + math.sqrt(t_left) * rng.standard_normal(m))
            if record_clock:
                clock += t_left
            break
        dw = rng.standard_normal(m) * math.sqrt(dt)
        arg = r + 0.5 * (2.0 * lam + 1.0) * np.tanh(r) * dt + dw
        r = _implicit_coth_solve(arg, b_coth * dt)
        if track_bound:
            gamma += dw
            t_acc += dt
            np.minimum(slack, r - ((n - 0.5) * t_acc + gamma), out=slack)
        if record_clock:
            f_new = _tanh2(r)
            clock += 0.5 * (f + f_new) * dt
            f = f_new
    return r, clock, slack


def sample_radial_hyperbolic(n: int, girsanov_lambda: float, r0: float,
                             cfg: SimConfig, track_bound: bool = False,
                             threads: int = 1) -> RadialSamples:
    """Paths of the radial diffusion on [0, inf) with drift
    (1/2)((2n - 1) coth r + (2 lambda + 1) tanh r).

    Semi-implicit scheme: the coth term is solved implicitly, which keeps
    paths strictly positive and preserves the per-step lower bound
    r_{k+1} >= r_k + (n - 1/2) dt + dW_k.  A block whose lanes are all past
    _R_FAR finishes in one closed-form draw (see _hyperbolic_block).  No
    clock is recorded: `clock` is all zeros.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if girsanov_lambda < 0:
        raise ValueError("girsanov_lambda must be nonnegative")
    if r0 < 0:
        raise ValueError("r0 must be nonnegative")
    eps_started = r0 == 0.0
    r0_eff = EPS_START if eps_started else r0
    dts = _time_grid(cfg, refine_start=eps_started)

    def block(i, m, rng):
        r, _, slack = _hyperbolic_block(n, girsanov_lambda, r0_eff, dts, rng,
                                        m, False, track_bound)
        return r, slack

    r_end, slack = _run_blocks(cfg, block, threads)
    return RadialSamples(r_end, np.zeros_like(r_end),
                         min_bound_slack=float(slack.min()))


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


def _clock_sweeps(cfg: SimConfig, rngs: list, tau: np.ndarray, normals,
                  fine_sweeps: float = 0.0):
    """Yield the live mask tau < cfg.horizon of each sweep over every path
    of a clock-time call, until no lane is live.

    Before each yield, the slices of the blocks that still have a live lane
    are filled, in each array of normals in turn, from the block's own
    stream.  A finished block draws nothing more, so its stream ends where
    its own sweeps leave it, however long other blocks run; and since the
    implicit cot/tan solve freezes converged lanes, no lane's path depends
    on the other lanes of the call.  The output is therefore the same as
    stepping each block alone.  The caller advances tau in place.  Raises
    RuntimeError after _SWEEP_HEADROOM times the base count of sweeps,
    fine_sweeps + horizon/min(dt, _BULK_DT).
    """
    starts = np.arange(0, cfg.paths, BLOCK_SIZE)
    min_sweeps = fine_sweeps + cfg.horizon / min(cfg.dt, _BULK_DT)
    max_sweeps = math.ceil(_SWEEP_HEADROOM * min_sweeps)
    for _ in range(max_sweeps):
        active = tau < cfg.horizon
        live = np.flatnonzero(np.logical_or.reduceat(active, starts))
        if not live.size:
            return
        for z in normals:
            _fill_normals(rngs, live, z)
        yield active
    raise RuntimeError(
        f"clock-time sampler failed to reach horizon {cfg.horizon} in "
        f"{max_sweeps} sweeps")


def _winding_phi(kind: str, r0: float, cfg: SimConfig, rngs: list):
    """Winding radial paths in clock-time coordinates, every block of cfg
    in one sweep loop, with m = log tan r (cp, on R) or log tanh r (ch, on
    (-inf, 0)).

    Returns the clock int 4 ds / sin^2 2r (cp) or int 4 ds / sinh^2 2r (ch)
    up to the horizon.
    """
    horizon, dt, lanes = cfg.horizon, cfg.dt, cfg.paths
    if kind == "cp":
        mm = np.full(lanes, math.log(math.tan(r0)))
    else:
        mm = np.full(lanes, math.log(math.tanh(r0)))
    tau = np.zeros(lanes)
    clock = np.zeros(lanes)
    z = np.zeros(lanes)

    def retire_far():
        # ch transient endgame: for m this close to 0 the remaining clock is
        # below 4 m^2 (horizon - tau), which is negligible
        if kind == "ch":
            tau[(tau < horizon) & (mm > -_M_FLOOR_CH)] = horizon

    retire_far()
    with np.errstate(over="ignore"):
        for active in _clock_sweeps(cfg, rngs, tau, (z,)):
            if kind == "cp":
                q = 4.0 * np.cosh(mm) ** 2
            else:
                q = 4.0 * np.sinh(mm) ** 2
            t_rem = np.maximum(horizon - tau, 0.0)
            dtau_t = np.minimum(t_rem, dt)
            cap = np.maximum(_H_FLOOR, mm * mm / _DIVE_STEPS)
            h = np.minimum(dtau_t * q, cap)
            m_new = mm + np.sqrt(h) * z
            if kind == "ch":
                m_new = np.where(m_new >= 0.0, 0.5 * mm, m_new)
                np.clip(m_new, -_M_CAP, None, out=m_new)
            else:
                np.clip(m_new, -_M_CAP, _M_CAP, out=m_new)
            if kind == "cp":
                q_new = 4.0 * np.cosh(m_new) ** 2
            else:
                q_new = 4.0 * np.sinh(m_new) ** 2
            # trapezoid estimate of the real time elapsed over the Phi-step
            # (the rate 1/q varies exponentially within a step, so the
            # left-endpoint rule is systematically biased)
            dtau = 0.5 * h * (1.0 / q + 1.0 / np.maximum(q_new, 1e-300))
            # final step: credit clock only for the fraction inside the horizon
            frac = np.where(dtau > t_rem, t_rem / np.maximum(dtau, 1e-300), 1.0)
            np.copyto(mm, m_new, where=active)
            tau += np.where(active, dtau, 0.0)
            clock += np.where(active, h * frac, 0.0)
            retire_far()
    return clock


def _cp_area_phi(n: int, lam: float, cfg: SimConfig, rngs: list,
                 euler_theta: bool = False):
    """Projective radial/area paths, hybrid r- and psi-mode, every block of
    cfg in one sweep loop.

    Near the pole the path is stepped implicitly in r; past r ~ pi/4 it
    switches to psi = -log cos r stepped in clock time, where the area
    clock is exact (clock increment = Phi-step) and boundary dives are
    Brownian.  lam > 0 adds the measure-change drift -(lam) tan^2 r dt.
    With euler_theta each block draws its theta normals right after its
    radial ones.  Returns (r_end, clock, theta_or_None, cos_r_end).
    """
    horizon, dt, lanes = cfg.horizon, cfg.dt, cfg.paths
    b1 = n - 0.5
    t_fine = min(0.01 * horizon, 0.05)
    fine = min(dt, FINE_DT)
    r = np.full(lanes, EPS_START)
    psi = np.zeros(lanes)
    in_psi = np.zeros(lanes, dtype=bool)
    tau = np.zeros(lanes)
    clock = np.zeros(lanes)
    theta = np.zeros(lanes) if euler_theta else None
    z = np.zeros(lanes)
    z2 = np.zeros(lanes) if euler_theta else None
    normals = (z, z2) if euler_theta else (z,)
    with np.errstate(over="ignore"):
        for active in _clock_sweeps(cfg, rngs, tau, normals, t_fine / fine):
            in_psi_now = in_psi.copy()
            idx = np.nonzero(active & ~in_psi_now)[0]
            if idx.size:
                dti = np.where(tau[idx] < t_fine, fine, dt)
                dti = np.minimum(dti, np.maximum(horizon - tau[idx], 0.0))
                sq = np.sqrt(dti)
                r_old = r[idx]
                r_new = _implicit_cot_tan_solve(r_old + sq * z[idx],
                                                b1 * dti, (lam + 0.5) * dti)
                clock[idx] += 0.5 * (np.tan(r_old) ** 2 + np.tan(r_new) ** 2) * dti
                if euler_theta:
                    theta[idx] += np.tan(r_old) * sq * z2[idx]
                tau[idx] += dti
                r[idx] = r_new
                up = r_new > _R_UP
                if up.any():
                    j = idx[up]
                    psi[j] = -np.log(np.cos(r[j]))
                    in_psi[j] = True
            # lanes promoted above are stepped starting next iteration, so no
            # lane moves (or consumes its Gaussian) twice per sweep
            jdx = np.nonzero(active & in_psi_now)[0]
            if jdx.size:
                p_old = psi[jdx]
                t2 = np.expm1(2.0 * p_old)
                t_rem = np.maximum(horizon - tau[jdx], 0.0)
                dtau_t = np.minimum(t_rem, dt)
                cap = np.maximum(_H_FLOOR, p_old * p_old / _DIVE_STEPS)
                h = np.minimum(dtau_t * t2, cap)
                p_mart = p_old - lam * h + np.sqrt(h) * z[jdx]
                np.clip(p_mart, 1e-12, _M_CAP, out=p_mart)
                # trapezoid real-time estimate over the Phi-step; any part of
                # the step below the handoff level runs at the handoff rate
                # (the lane exits to r-mode there, so 1/t2 stays bounded)
                t2_new = np.maximum(np.expm1(2.0 * p_mart), _T2_SWITCH)
                dtau = 0.5 * h * (1.0 / t2 + 1.0 / t2_new)
                p_new = np.clip(p_mart + n * dtau, 1e-12, _M_CAP)
                frac = np.where(dtau > t_rem, t_rem / np.maximum(dtau, 1e-300),
                                1.0)
                clock[jdx] += h * frac
                if euler_theta:
                    theta[jdx] += np.sqrt(h * frac) * z2[jdx]
                tau[jdx] += dtau
                psi[jdx] = p_new
                down = p_new < _PSI_SWITCH
                if down.any():
                    k = jdx[down]
                    r[k] = np.arccos(np.exp(-psi[k]))
                    in_psi[k] = False
    cos_r = np.where(in_psi, np.exp(-psi), np.cos(r))
    r_end = np.where(in_psi, np.arccos(np.minimum(np.exp(-psi), 1.0)), r)
    return r_end, clock, theta, cos_r


# ---------------------------------------------------------------------------
# stochastic area and winding samplers

def sample_area(geometry: Geometry, cfg: SimConfig, threads: int = 1,
                theta_coupling: str = "conditional") -> AreaSamples:
    """Samples of (r(t), theta(t)) for the area process started at the pole.

    The area coordinate is exactly Gaussian given the radial time change
    A_t (integral of tan^2 r or tanh^2 r), so by default theta is drawn as
    sqrt(A_t) * Z.  theta_coupling='euler' instead couples d theta =
    tan r dB step by step along the same radial dynamics; kept for
    consistency checks.  `threads` schedules the blocks of CH^n only; on
    CP^n all blocks are stepped in one sweep loop.
    """
    if theta_coupling not in ("conditional", "euler"):
        raise ValueError("theta_coupling must be 'conditional' or 'euler'")
    euler = theta_coupling == "euler"
    if geometry.kind == "cp":
        rngs = _block_rngs(cfg)
        r_end, clock, theta, _ = _cp_area_phi(geometry.n, 0.0, cfg, rngs,
                                              euler_theta=euler)
        if not euler:
            z = np.empty(cfg.paths)
            _fill_normals(rngs, range(len(rngs)), z)
            theta = np.sqrt(clock) * z
        return AreaSamples(r_end, theta, clock)
    dts = _time_grid(cfg, refine_start=True)

    def block(i, m, rng):
        if euler:
            return _ch_area_euler_block(geometry.n, dts, rng, m)
        r_end, clock, _ = _hyperbolic_block(
            geometry.n, 0.0, EPS_START, dts, rng, m, True, False)
        return r_end, np.sqrt(clock) * rng.standard_normal(m), clock

    return AreaSamples(*_run_blocks(cfg, block, threads))


def _ch_area_euler_block(n: int, dts, rng, m):
    r = np.full(m, EPS_START)
    theta = np.zeros(m)
    clock = np.zeros(m)
    for dt in dts:
        dw = rng.standard_normal(m) * math.sqrt(dt)
        db = rng.standard_normal(m) * math.sqrt(dt)
        th = np.tanh(r)
        theta += th * db
        clock += th * th * dt
        arg = r + 0.5 * th * dt + dw
        r = _implicit_coth_solve(arg, 0.5 * (2.0 * n - 1.0) * dt)
    return r, theta, clock


def girsanov_cf_estimator(geometry: Geometry, lam: float, cfg: SimConfig,
                          threads: int = 1) -> CfEstimate:
    """Characteristic function E[e^{i lam theta(t)}] via change of measure.

    Simulates the drift-tilted radial diffusion and reweights:
    cp: e^{-n lam t} * mean[(cos r_t)^{-lam}];
    ch: e^{+n lam t} * mean[(cosh r_t)^{-lam}] (weights are <= 1 there).
    `threads` schedules the blocks of CH^n only; on CP^n all blocks are
    stepped in one sweep loop.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    n = geometry.n
    t = cfg.horizon
    if lam == 0.0:
        return CfEstimate(complex(1.0), 0.0, cfg.paths)
    if geometry.kind == "cp":
        cos_r = _cp_area_phi(n, lam, cfg, _block_rngs(cfg))[3]
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
