"""SDE path samplers for the radial diffusions, stochastic areas, and windings.

All samplers draw from counter-based (Philox) substreams keyed by
(master_seed, block index), with paths partitioned into fixed-size blocks.
Results are therefore bit-identical regardless of how blocks are scheduled
across workers.
"""

from __future__ import annotations

import enum
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
_NEWTON_ITERS = 6


class Scheme(enum.Enum):
    EULER_RHO = "euler_rho"
    SEMI_IMPLICIT_R = "semi_implicit_r"


@dataclass(frozen=True)
class SimConfig:
    """Common configuration for all path samplers."""

    horizon: float
    dt: float
    paths: int
    master_seed: int
    scheme: Scheme = Scheme.EULER_RHO

    def __post_init__(self):
        if not (self.horizon > 0):
            raise ValueError("horizon must be positive")
        if not (0 < self.dt <= self.horizon):
            raise ValueError("dt must be in (0, horizon]")
        if self.paths < 1:
            raise ValueError("paths must be >= 1")
        if not (0 <= self.master_seed < 2 ** 64):
            raise ValueError("master_seed must fit in 64 bits")
        if not isinstance(self.scheme, Scheme):
            raise ValueError(f"scheme must be a Scheme, got {self.scheme!r}")


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
    """Terminal radial values and accumulated clock, with scheme diagnostics."""

    r_end: np.ndarray
    clock: np.ndarray
    clamp_count: int = 0
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
    cap_count: int = 0


def _block_rng(master_seed: int, block_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=(block_index << 64) | master_seed)
    )


def _time_grid(cfg: SimConfig, refine_start: bool) -> np.ndarray:
    """Step sizes covering [0, horizon], optionally refined over the first 1%."""
    if not refine_start or cfg.dt <= FINE_DT:
        n_full = int(cfg.horizon / cfg.dt)
        rem = cfg.horizon - n_full * cfg.dt
        steps = [cfg.dt] * n_full
        if rem > 1e-12 * cfg.horizon:
            steps.append(rem)
        return np.asarray(steps)
    t_fine = 0.01 * cfg.horizon
    n_fine = int(math.ceil(t_fine / FINE_DT))
    fine = t_fine / n_fine
    rest = cfg.horizon - t_fine
    n_full = int(rest / cfg.dt)
    rem = rest - n_full * cfg.dt
    steps = [fine] * n_fine + [cfg.dt] * n_full
    if rem > 1e-12 * cfg.horizon:
        steps.append(rem)
    return np.asarray(steps)


def _blocks(paths: int):
    start = 0
    idx = 0
    while start < paths:
        yield idx, min(BLOCK_SIZE, paths - start)
        start += BLOCK_SIZE
        idx += 1


def _run_blocks(cfg: SimConfig, block_fn, threads: int = 1):
    """Run block_fn(block_index, block_size) over all blocks, in block order."""
    jobs = list(_blocks(cfg.paths))
    if threads <= 1 or len(jobs) == 1:
        return [block_fn(i, m) for i, m in jobs]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        futs = [ex.submit(block_fn, i, m) for i, m in jobs]
        return [f.result() for f in futs]


# ---------------------------------------------------------------------------
# clock integrands

def _clock_fn_rho(name: str):
    """Clock integrand as a function of rho = cos 2r (spherical regime)."""
    if name == "none":
        return None
    if name == "tan2":
        return lambda rho: (1.0 - rho) / np.maximum(1.0 + rho, 1e-300)
    if name == "inv_sin2_2r":
        return lambda rho: 4.0 / np.maximum(1.0 - rho * rho, 1e-300)
    raise ValueError(f"unknown spherical clock {name!r}")


def _clock_fn_r_hyp(name: str):
    if name == "none":
        return None
    if name == "tanh2":
        return lambda r: np.tanh(r) ** 2
    if name == "inv_sinh2_2r":
        return lambda r: 4.0 / np.maximum(np.sinh(2.0 * r) ** 2, 1e-300)
    if name == "log_cosh":
        return lambda r: np.log(np.cosh(r))
    raise ValueError(f"unknown hyperbolic clock {name!r}")


# ---------------------------------------------------------------------------
# spherical radial sampler

def _spherical_block_rho(p: JacobiParams, r0: float, dts: np.ndarray,
                         rng: np.random.Generator, m: int, clock_fn):
    """Euler scheme in rho = cos 2r coordinates for one block of m paths."""
    a, b = p.alpha, p.beta
    rho = np.full(m, math.cos(2.0 * r0))
    clock = np.zeros(m)
    clamps = 0
    caps = 0
    f_old = None
    if clock_fn is not None:
        f_old = np.minimum(clock_fn(rho), CLOCK_CAP)
    for dt in dts:
        dw = rng.standard_normal(m) * math.sqrt(dt)
        rho = rho + (-2.0 * ((a + b + 2.0) * rho + a - b)) * dt \
            + 2.0 * np.sqrt(np.maximum(1.0 - rho * rho, 0.0)) * dw
        out = (rho > 1.0) | (rho < -1.0)
        clamps += int(out.sum())
        np.clip(rho, -1.0, 1.0, out=rho)
        if clock_fn is not None:
            f_new = clock_fn(rho)
            caps += int((f_new > CLOCK_CAP).sum())
            f_new = np.minimum(f_new, CLOCK_CAP)
            clock += 0.5 * (f_old + f_new) * dt
            f_old = f_new
    r_end = 0.5 * np.arccos(rho)
    return r_end, clock, clamps, caps


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


def _spherical_block_r(p: JacobiParams, r0: float, dts: np.ndarray,
                       rng: np.random.Generator, m: int, clock_fn):
    """Implicit scheme directly in r; both singular drift terms are treated
    implicitly, which keeps every path strictly inside (0, pi/2)."""
    a, b = p.alpha, p.beta
    r = np.full(m, r0)
    clock = np.zeros(m)
    clamps = 0
    caps = 0

    def f_of_r(rr):
        rho = np.cos(2.0 * rr)
        return clock_fn(rho)

    f_old = np.minimum(f_of_r(r), CLOCK_CAP) if clock_fn is not None else None
    for dt in dts:
        dw = rng.standard_normal(m) * math.sqrt(dt)
        r = _implicit_cot_tan_solve(r + dw, (a + 0.5) * dt, (b + 0.5) * dt)
        if clock_fn is not None:
            f_new = f_of_r(r)
            caps += int((f_new > CLOCK_CAP).sum())
            f_new = np.minimum(f_new, CLOCK_CAP)
            clock += 0.5 * (f_old + f_new) * dt
            f_old = f_new
    return r, clock, clamps, caps


def sample_radial_spherical(p: JacobiParams, r0: float, cfg: SimConfig,
                            record_clock: str = "none",
                            threads: int = 1) -> RadialSamples:
    """Paths of the radial diffusion on [0, pi/2] with generator
    (1/2)(d^2/dr^2 + ((2 alpha + 1) cot r - (2 beta + 1) tan r) d/dr).

    Requires alpha, beta >= 0 (r=0 and r=pi/2 are then entrance boundaries).
    `record_clock` is one of 'none', 'tan2', 'inv_sin2_2r'; the integrand is
    accumulated by the trapezoid rule and capped per step.
    """
    if p.regime is not Regime.TRIGONOMETRIC:
        raise ValueError("requires trigonometric JacobiParams")
    if p.alpha < 0 or p.beta < 0:
        raise ValueError("requires alpha, beta >= 0 (entrance boundaries)")
    if not (0.0 <= r0 < math.pi / 2):
        raise ValueError("r0 must lie in [0, pi/2)")
    clock_fn = _clock_fn_rho(record_clock)
    eps_started = r0 == 0.0
    r0_eff = EPS_START if eps_started else r0
    dts = _time_grid(cfg, refine_start=eps_started)

    def block(i, m):
        rng = _block_rng(cfg.master_seed, i)
        if cfg.scheme is Scheme.EULER_RHO:
            return _spherical_block_rho(p, r0_eff, dts, rng, m, clock_fn)
        return _spherical_block_r(p, r0_eff, dts, rng, m, clock_fn)

    parts = _run_blocks(cfg, block, threads)
    return RadialSamples(
        r_end=np.concatenate([q[0] for q in parts]),
        clock=np.concatenate([q[1] for q in parts]),
        clamp_count=sum(q[2] for q in parts),
        cap_count=sum(q[3] for q in parts),
    )


# ---------------------------------------------------------------------------
# hyperbolic radial sampler

def _implicit_coth_solve(arg: np.ndarray, b: float) -> np.ndarray:
    """Solve x = arg + b*coth(x) on (0, inf) by Newton, b > 0.

    The map x - b coth(x) is strictly increasing from -inf, so the positive
    root is unique; since coth >= 1 the solution satisfies x >= arg + b.
    """
    x = 0.5 * (arg + np.sqrt(arg * arg + 4.0 * b))
    np.clip(x, 1e-12, None, out=x)
    for _ in range(60):
        th = np.tanh(x)
        g = x - b / th - arg
        if np.all(np.abs(g) < 1e-12):
            break
        sh2 = np.sinh(np.minimum(x, 350.0)) ** 2
        gp = 1.0 + b / np.maximum(sh2, 1e-300)
        x = x - g / gp
        np.clip(x, 1e-12, None, out=x)
    return x


def _hyperbolic_block(n: int, lam: float, r0: float, dts: np.ndarray,
                      rng: np.random.Generator, m: int, clock_fn,
                      track_bound: bool):
    r = np.full(m, r0)
    clock = np.zeros(m)
    caps = 0
    gamma = np.zeros(m) if track_bound else None
    t_acc = 0.0
    min_slack = math.inf
    b_coth = 0.5 * (2.0 * n - 1.0)
    f_old = np.minimum(clock_fn(r), CLOCK_CAP) if clock_fn is not None else None
    for dt in dts:
        dw = rng.standard_normal(m) * math.sqrt(dt)
        arg = r + 0.5 * (2.0 * lam + 1.0) * np.tanh(r) * dt + dw
        r = _implicit_coth_solve(arg, b_coth * dt)
        if track_bound:
            gamma += dw
            t_acc += dt
            slack = float(np.min(r - ((n - 0.5) * t_acc + gamma)))
            min_slack = min(min_slack, slack)
        if clock_fn is not None:
            f_new = clock_fn(r)
            caps += int((f_new > CLOCK_CAP).sum())
            f_new = np.minimum(f_new, CLOCK_CAP)
            clock += 0.5 * (f_old + f_new) * dt
            f_old = f_new
    return r, clock, caps, min_slack


def sample_radial_hyperbolic(n: int, girsanov_lambda: float, r0: float,
                             cfg: SimConfig, record_clock: str = "none",
                             track_bound: bool = False,
                             threads: int = 1) -> RadialSamples:
    """Paths of the radial diffusion on [0, inf) with drift
    (1/2)((2n - 1) coth r + (2 lambda + 1) tanh r).

    Semi-implicit scheme: the coth term is solved implicitly, which keeps
    paths strictly positive and preserves the per-step lower bound
    r_{k+1} >= r_k + (n - 1/2) dt + dW_k.  `record_clock` is one of 'none',
    'tanh2', 'inv_sinh2_2r', 'log_cosh'.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if girsanov_lambda < 0:
        raise ValueError("girsanov_lambda must be nonnegative")
    if r0 < 0:
        raise ValueError("r0 must be nonnegative")
    clock_fn = _clock_fn_r_hyp(record_clock)
    eps_started = r0 == 0.0
    r0_eff = EPS_START if eps_started else r0
    dts = _time_grid(cfg, refine_start=eps_started)

    def block(i, m):
        rng = _block_rng(cfg.master_seed, i)
        return _hyperbolic_block(n, girsanov_lambda, r0_eff, dts, rng, m,
                                 clock_fn, track_bound)

    parts = _run_blocks(cfg, block, threads)
    return RadialSamples(
        r_end=np.concatenate([q[0] for q in parts]),
        clock=np.concatenate([q[1] for q in parts]),
        cap_count=sum(q[2] for q in parts),
        min_bound_slack=min(q[3] for q in parts),
    )


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
_MAX_CLOCK_ITERS = 5_000_000


def _winding_phi_block(kind: str, r0: float, horizon: float, dt: float,
                       rng: np.random.Generator, lanes: int):
    """One block of winding radial paths in clock-time coordinates.

    Returns (m_end, clock) where clock = int 4 ds / sin^2 2r (cp) or
    int 4 ds / sinh^2 2r (ch) up to the horizon, and m is log tan r
    (cp, on R) or log tanh r (ch, on (-inf, 0)).
    """
    if kind == "cp":
        mm = np.full(lanes, math.log(math.tan(r0)))
    else:
        mm = np.full(lanes, math.log(math.tanh(r0)))
    tau = np.zeros(lanes)
    clock = np.zeros(lanes)
    iters = 0
    with np.errstate(over="ignore"):
        while True:
            active = tau < horizon
            if kind == "ch" and active.any():
                # transient endgame: for m this close to 0 the remaining clock
                # is below 4 m^2 (horizon - tau), which is negligible
                done_far = active & (mm > -_M_FLOOR_CH)
                if done_far.any():
                    tau[done_far] = horizon
                    active = tau < horizon
            if not active.any():
                break
            iters += 1
            if iters > _MAX_CLOCK_ITERS:
                raise RuntimeError("clock-time sampler failed to reach horizon")
            if kind == "cp":
                q = 4.0 * np.cosh(mm) ** 2
            else:
                q = 4.0 * np.sinh(mm) ** 2
            t_rem = np.maximum(horizon - tau, 0.0)
            dtau_t = np.minimum(t_rem, dt)
            cap = np.maximum(_H_FLOOR, mm * mm / _DIVE_STEPS)
            h = np.minimum(dtau_t * q, cap)
            z = rng.standard_normal(lanes)
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
            mm = np.where(active, m_new, mm)
            tau = tau + np.where(active, dtau, 0.0)
            clock = clock + np.where(active, h * frac, 0.0)
    return mm, clock


def _cp_area_phi_block(n: int, lam: float, horizon: float, dt: float,
                       rng: np.random.Generator, lanes: int,
                       euler_theta: bool = False):
    """One block of projective radial/area paths, hybrid r- and psi-mode.

    Near the pole the path is stepped implicitly in r; past r ~ pi/4 it
    switches to psi = -log cos r stepped in clock time, where the area
    clock is exact (clock increment = Phi-step) and boundary dives are
    Brownian.  lam > 0 adds the measure-change drift -(lam) tan^2 r dt.
    Returns (r_end, clock, theta_or_None, cos_r_end).
    """
    b1 = n - 0.5
    t_fine = min(0.01 * horizon, 0.05)
    fine = min(dt, FINE_DT)
    r = np.full(lanes, EPS_START)
    psi = np.zeros(lanes)
    in_psi = np.zeros(lanes, dtype=bool)
    tau = np.zeros(lanes)
    clock = np.zeros(lanes)
    theta = np.zeros(lanes) if euler_theta else None
    iters = 0
    with np.errstate(over="ignore"):
        while True:
            active = tau < horizon
            if not active.any():
                break
            iters += 1
            if iters > _MAX_CLOCK_ITERS:
                raise RuntimeError("clock-time sampler failed to reach horizon")
            z = rng.standard_normal(lanes)
            z2 = rng.standard_normal(lanes) if euler_theta else None
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
    consistency checks.
    """
    if theta_coupling not in ("conditional", "euler"):
        raise ValueError("theta_coupling must be 'conditional' or 'euler'")
    dts = _time_grid(cfg, refine_start=True)

    def block(i, m):
        rng = _block_rng(cfg.master_seed, i)
        if geometry.kind == "cp":
            r_end, clock, theta, _ = _cp_area_phi_block(
                geometry.n, 0.0, cfg.horizon, cfg.dt, rng, m,
                euler_theta=(theta_coupling == "euler"))
            if theta_coupling == "euler":
                return r_end, theta, clock
        else:
            if theta_coupling == "euler":
                return _ch_area_euler_block(geometry.n, dts, rng, m)
            r_end, clock, _, _ = _hyperbolic_block(
                geometry.n, 0.0, EPS_START, dts, rng, m,
                _clock_fn_r_hyp("tanh2"), False)
        z = rng.standard_normal(m)
        return r_end, np.sqrt(clock) * z, clock

    parts = _run_blocks(cfg, block, threads)
    return AreaSamples(
        r_end=np.concatenate([q[0] for q in parts]),
        theta_end=np.concatenate([q[1] for q in parts]),
        time_change=np.concatenate([q[2] for q in parts]),
    )


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
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    n = geometry.n
    t = cfg.horizon
    if lam == 0.0:
        return CfEstimate(complex(1.0), 0.0, cfg.paths)
    if geometry.kind == "cp":
        def block(i, m):
            rng = _block_rng(cfg.master_seed, i)
            _, _, _, cos_r = _cp_area_phi_block(n, lam, t, cfg.dt, rng, m)
            return (cos_r,)

        parts = _run_blocks(cfg, block, threads)
        cos_r = np.concatenate([q[0] for q in parts])
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
    """
    if geometry.n != 1:
        raise ValueError("winding samplers are defined for n = 1 only")
    if geometry.kind == "cp":
        if not (0.0 < r0 < math.pi / 2):
            raise ValueError("r0 must lie in (0, pi/2) for cp1")
    else:
        if not (r0 > 0):
            raise ValueError("r0 must be positive for ch1")

    def block(i, m):
        rng = _block_rng(cfg.master_seed, i)
        _, clock = _winding_phi_block(geometry.kind, r0, cfg.horizon,
                                      cfg.dt, rng, m)
        return (clock,)

    parts = _run_blocks(cfg, block, threads)
    clock = np.concatenate([q[0] for q in parts])
    # the winding draw must not depend on how the radial sampler consumed
    # randomness, so use a dedicated offset substream per block
    phi = np.empty(cfg.paths)
    pos = 0
    for i, m in _blocks(cfg.paths):
        rng = _block_rng(cfg.master_seed, (1 << 62) + i)
        phi[pos:pos + m] = rng.standard_normal(m)
        pos += m
    phi *= np.sqrt(clock)
    return WindingSamples(phi_end=phi, clock=clock, cap_count=0)


def sample_planar_area(t: float, cfg: SimConfig, threads: int = 1):
    """Planar Brownian motion with Levy area by the midpoint rule.

    Returns (z_end complex array, s_end real array).
    """
    if not (t > 0):
        raise ValueError("t must be positive")
    cfg_t = SimConfig(t, min(cfg.dt, t), cfg.paths, cfg.master_seed, cfg.scheme)
    dts = _time_grid(cfg_t, refine_start=False)

    def block(i, m):
        rng = _block_rng(cfg.master_seed, i)
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

    parts = _run_blocks(cfg_t, block, threads)
    z = np.concatenate([q[0] for q in parts])
    s = np.concatenate([q[1] for q in parts])
    return z, s
