"""Quadrature evaluators for the joint radial/area densities on the hyperbolic side.

Evaluates the n=1 and n>=2 oscillatory-integral formulas for the joint density
p_t(r, theta) of the radial coordinate and stochastic area, the n=1 area
characteristic function integrated from it, and the closed-form r=0 slice
for n=1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class QuadratureFailureError(RuntimeError):
    """Raised when the quadrature cannot meet its error target."""


class WindowExhaustedError(QuadratureFailureError):
    """Raised when the truncation window hits its cap with too large a tail."""


@dataclass(frozen=True)
class QuadratureControl:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    max_window: float = 60.0

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_window < 1:
            raise ValueError("max_window must be >= 1")


@dataclass(frozen=True)
class JointDensityValue:
    """Quadrature value of a joint density with an error estimate."""

    value: float
    est_error: float


_ACOSH_EPS = 1e-12

def _ch1_magnitude(y, t: float, r, theta: float):
    """Modulus e^{-(a^2 - y^2 + theta^2)/2t} amp(r, y) of the n=1 y-integrand,
    with a = arcosh(cosh r cosh y) and amp = a / sqrt(cosh^2 r cosh^2 y - 1)
    (limit 1 at the origin); r and y broadcast."""
    c = np.cosh(r) * np.cosh(y)
    a = np.arccosh(np.maximum(c, 1.0))
    c2m1 = c * c - 1.0
    amp = np.where(c2m1 < _ACOSH_EPS, 1.0,
                   a / np.sqrt(np.maximum(c2m1, _ACOSH_EPS)))
    return np.exp(-(a * a - y * y + theta * theta) / (2.0 * t)) * amp


def _ch1_tail_bound(W: float, t: float, r: float, theta: float) -> float:
    """Bound on the two y-tails beyond [-W, W] of the n=1 integrand.

    Beyond W >= 2: arcosh(cosh r cosh y)^2 - y^2 is nondecreasing, and the
    amplitude is below (y + c) e^{-y} * 2.2 / cosh r, giving an explicit
    exponential-integral bound.
    """
    a = math.acosh(math.cosh(r) * math.cosh(W))
    gauss = math.exp(-(a * a - W * W + theta * theta) / (2.0 * t))
    c = abs(math.log(math.cosh(r))) + 1.0
    return 2.0 * gauss * 2.2 * (W + c + 1.0) * math.exp(-W) / math.cosh(r)


def _ch1_window(t: float, r: float, theta: float, target: float,
                ctl: QuadratureControl) -> float:
    """y-window W of the n=1 integrand: grown by 1 from max(4, 4 sqrt t)
    until the tail bound beyond it is below target, capped at
    ctl.max_window.  The bound falls at least like e^{-W}, so W stops
    within 1 of the smallest window that meets the target."""
    W = min(max(4.0, 4.0 * math.sqrt(t)), ctl.max_window)
    while _ch1_tail_bound(W, t, r, theta) > target:
        if W == ctl.max_window:
            raise WindowExhaustedError(
                f"tail bound above {target} at window cap {ctl.max_window}")
        W = min(W + 1.0, ctl.max_window)
    return W


def ch1_joint_density(t: float, r: float, theta: float,
                      ctl: QuadratureControl = QuadratureControl()) -> JointDensityValue:
    """Oscillatory-integral kernel p_t(r, theta) for the n=1 hyperbolic model.

    The joint law of the radial coordinate and area at time t has density
    pi * p_t(r, theta) * sinh(2r) with respect to dr dtheta.  The y-integral
    runs on Gauss panels over the window [-W, W], doubled until the change
    meets the target or stops shrinking (the round-off floor of the
    oscillatory sum); est_error adds that change to the tail bound.  The
    imaginary residue is checked to vanish within abs_tol.
    """
    if not (t > 0):
        raise ValueError("t must be positive")
    if r < 0:
        raise ValueError("r must be nonnegative")
    # The oscillatory y-integral cancels down to a value roughly
    # e^{-2 pi |theta| / t} times the central integrand scale, so the tail is
    # truncated relative to that scale rather than in absolute terms.
    scale = math.exp(-theta * theta / (2.0 * t))
    W = _ch1_window(t, r, theta, max(ctl.abs_tol / 10.0, 1e-17 * scale), ctl)
    epsabs = max(1e-300, 1e-14 * scale)

    def rule(n_panels: int):
        # e^{(y - i theta)^2/2t} = e^{(y^2 - theta^2)/2t} e^{-i y theta/t}
        y, w = _gauss_panels(-W, W, n_panels)
        mag = w * _ch1_magnitude(y, t, r, theta)
        phase = y * theta / t
        return float(mag @ np.cos(phase)), -float(mag @ np.sin(phase))

    # panels follow the window and the frequency theta/t of the phase
    n_panels = math.ceil(0.5 * W * (1.0 + abs(theta) / (4.0 * math.pi * t)))
    re, im = rule(n_panels)
    prev_dif = math.inf
    for _ in range(5):
        n_panels *= 2
        re2, im = rule(n_panels)
        dif, re = abs(re2 - re), re2
        if dif <= max(epsabs, ctl.rel_tol * abs(re)) or dif >= 0.5 * prev_dif:
            break
        prev_dif = dif
    pref = math.exp(-t / 2.0) / (2.0 * math.pi * t) ** 2
    if abs(pref * im) > max(ctl.abs_tol, 10.0 * ctl.rel_tol * abs(pref * re)):
        raise QuadratureFailureError(
            f"imaginary residue {pref * im} above tolerance"
        )
    err = pref * (dif + _ch1_tail_bound(W, t, r, theta))
    val = pref * re
    if err > max(ctl.abs_tol, ctl.rel_tol * abs(val), 10.0 * epsabs * pref):
        raise QuadratureFailureError(f"error estimate {err} above target")
    return JointDensityValue(val, err)


@functools.cache
def _gauss_legendre_16():
    """The 16-point Gauss-Legendre rule on [-1, 1], built on first use, not
    at import: its LAPACK call adds about 0.9 MB of resident memory."""
    return np.polynomial.legendre.leggauss(16)


def _gauss_panels(lo: float, hi: float, n_panels: int):
    """Composite Gauss-Legendre nodes and weights on [lo, hi]."""
    xg, wg = _gauss_legendre_16()
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


def _chn_segment(n: int, t: float, r: float, theta: float,
                 y_lo: float, y_hi: float, panels_per_unit: float):
    """Fixed-node double quadrature of the n>=2 integrand over [y_lo, y_hi] x [0, U].

    Returns (real part, imag part) of the double integral, without prefactor.
    """
    y_edge = max(abs(y_lo), abs(y_hi))
    U = math.acosh(math.cosh(r) * math.cosh(y_edge)) + t + 12.0 * math.sqrt(t) + 4.0
    ny = max(4, int(round((y_hi - y_lo) * panels_per_unit)))
    nu = max(8, int(round(U * panels_per_unit)))
    y, wy = _gauss_panels(y_lo, y_hi, ny)
    u, wu = _gauss_panels(0.0, U, nu)

    # inner u-integral, vectorized over (y, u) in y-chunks to bound memory
    coshy = np.cosh(r) * np.cosh(y)
    inner_num = (np.exp(-u * u / (2.0 * t)) * np.sinh(u)
                 * np.sin(math.pi * u / t) * wu)
    coshu = np.cosh(u)
    inner = np.empty_like(coshy)
    chunk = max(1, int(4e6 // max(coshu.size, 1)))
    for i in range(0, coshy.size, chunk):
        denom = (coshu[None, :] + coshy[i:i + chunk, None]) ** (n + 1)
        inner[i:i + chunk] = (inner_num[None, :] / denom).sum(axis=1)

    mag = np.exp((y * y - theta * theta) / (2.0 * t)) * inner * wy
    re = float((mag * np.cos(y * theta / t)).sum())
    im = float(-(mag * np.sin(y * theta / t)).sum())
    return re, im


def chn_joint_density(n: int, t: float, r: float, theta: float,
                      ctl: QuadratureControl = QuadratureControl()) -> JointDensityValue:
    """Oscillatory-integral kernel p_t(r, theta) for the n >= 2 hyperbolic model.

    The joint law of (radial coordinate, area) has density
    (2 pi^n / Gamma(n)) * p_t(r, theta) * (sinh r)^{2n-1} cosh r per dr dtheta.

    The inner oscillatory u-integral cancels to all orders in 1/cosh(y), so
    the outer integrand decays at least like e^{-n |y|} while its raw
    magnitude grows like e^{y^2/2t}; the window therefore expands in shells
    and stops either at convergence or at the double-precision noise floor
    (whichever comes first), with the noise onset folded into est_error.
    """
    if n < 2:
        raise ValueError("n must be >= 2 (use ch1_joint_density for n = 1)")
    if not (t > 0):
        raise ValueError("t must be positive")
    if r < 0:
        raise ValueError("r must be nonnegative")
    pref = (2.0 * math.gamma(n + 1.0)
            * math.exp(-n * n * t / 2.0 + math.pi ** 2 / (2.0 * t))
            / ((2.0 * math.pi) ** (n + 2) * t))

    def total_at(density: float):
        w0 = max(4.0, 2.0 * math.sqrt(t))
        re, im = _chn_segment(n, t, r, theta, -w0, w0, density)
        w, prev_shell, tail_err = w0, math.inf, 0.0
        while w < ctl.max_window:
            sr_hi, si_hi = _chn_segment(n, t, r, theta, w, w + 2.0, density)
            sr_lo, si_lo = _chn_segment(n, t, r, theta, -w - 2.0, -w, density)
            shell = abs(sr_hi + sr_lo) + abs(si_hi + si_lo)
            if shell >= prev_shell and w > w0 + 2.0:
                # round-off noise has taken over; the true tail is no larger
                # than the last clean (still decaying) shell
                tail_err = prev_shell
                break
            re += sr_hi + sr_lo
            im += si_hi + si_lo
            w += 2.0
            if shell <= ctl.rel_tol * abs(re) / 10.0 + ctl.abs_tol / (10.0 * pref):
                tail_err = shell
                break
            prev_shell = shell
        return re, im, tail_err

    density = 3.0
    re, im, tail = total_at(density)
    err = math.inf
    prev_dif = math.inf
    for _ in range(5):
        re2, im2, tail2 = total_at(2.0 * density)
        dif = abs(re2 - re)
        err = pref * (dif + tail2)
        re, im, tail, density = re2, im2, tail2, 2.0 * density
        if err <= max(ctl.abs_tol, ctl.rel_tol * abs(pref * re)):
            break
        if dif >= 0.5 * prev_dif:
            # node doubling has stopped improving: the cancellation noise
            # floor of the oscillatory sum is reached; err records it
            break
        prev_dif = dif
    if err > 0.01 * abs(pref * re):
        raise QuadratureFailureError(
            f"no significant digits at the noise floor (err={err})")
    if abs(pref * im) > max(ctl.abs_tol, 10.0 * ctl.rel_tol * abs(pref * re)):
        raise QuadratureFailureError(f"imaginary residue {pref * im} above tolerance")
    return JointDensityValue(pref * re, err)


# Temporaries of the tensor-product rule in ch1_area_cf are built in chunks
# of about this many elements, so its memory does not grow with node counts.
_CHUNK = 1 << 13


def _ch1_cf_rule(lam: float, t: float, R: float, big_theta: float, W: float,
                 density: float) -> np.ndarray:
    """Tensor-product Gauss rule for ch1_area_cf on r <= R, |theta| <= big_theta,
    |y| <= W, with `density` panels per unit length scale.

    Returns [cf, mass, y_tail]: the box integral of the (r, theta) density
    times cos(lam theta), the same with lam = 0, and a bound on the part of
    either that the y-tails beyond W carry.
    """
    s = min(1.0, math.sqrt(t))  # length scale of the integrand in r and y
    r, wr = _gauss_panels(0.0, R, math.ceil(R * density / s))
    y, wy = _gauss_panels(0.0, W, math.ceil(W * density / s))
    # theta-panels also follow the frequency y/t + lam of the theta-integrand
    th, wth = _gauss_panels(0.0, big_theta, math.ceil(
        big_theta * density * (1.0 / s + (W / t + abs(lam)) / (4.0 * math.pi))))
    # K[:, j] = int e^{-theta^2/2t} cos(y_j theta / t) (cos(lam theta), 1) dtheta
    # over |theta| <= big_theta: the theta-rule folded into one y-vector.
    g = 2.0 * wth * np.exp(-th * th / (2.0 * t))
    v = np.stack([g * np.cos(lam * th), g])
    K = np.empty((2, y.size))
    step = max(1, _CHUNK // th.size)
    for i in range(0, y.size, step):
        K[:, i:i + step] = v @ np.cos(np.outer(th, y[i:i + step] / t))
    K *= 2.0 * wy  # the y-integrand is even
    wsr = wr * np.sinh(2.0 * r)
    out = np.zeros(2)
    step = max(1, _CHUNK // y.size)
    for i in range(0, r.size, step):
        mag = _ch1_magnitude(y[None, :], t, r[i:i + step, None], 0.0)
        out += K @ (wsr[i:i + step] @ mag)
    # |K| <= sqrt(2 pi t), so the y-tails add at most this to either value
    y_tail = math.sqrt(2.0 * math.pi * t) * sum(
        w * _ch1_tail_bound(W, t, float(ri), 0.0) for ri, w in zip(r, wsr))
    pref = math.pi * math.exp(-t / 2.0) / (2.0 * math.pi * t) ** 2
    return pref * np.array([out[0], out[1], y_tail])


def ch1_area_cf(lam: float, t: float,
                ctl: QuadratureControl = QuadratureControl()) -> JointDensityValue:
    """Characteristic function E[cos(lam theta_t)] of the area on CH^1.

    Integrates pi sinh(2r) p_t(r, theta) cos(lam theta) over r >= 0 and all
    theta, with p_t the oscillatory y-integral of ch1_joint_density, by one
    tensor-product Gauss rule over (r, theta, y).  The theta-rule folds into
    a y-vector, so each chunk of r-nodes costs two matrix-vector products.

    est_error adds the change under node doubling, the y-tail bound beyond
    the window W of ch1_joint_density, and the probability mass outside the
    (r, theta) box, which the same rule gives at lam = 0: the density is
    positive and |cos| <= 1, so that mass bounds the truncation error.  The
    box starts at r <= t + 6 sqrt t, |theta| <= 6 sqrt t and grows by sqrt t
    in each until the missing mass is below target.
    """
    if not (t > 0):
        raise ValueError("t must be positive")
    if not math.isfinite(lam):
        raise ValueError("lam must be finite")
    W = _ch1_window(t, 0.0, 0.0, ctl.abs_tol / 10.0, ctl)
    k, density = 6.0, 0.5
    while True:
        R = min(t + k * math.sqrt(t), ctl.max_window)
        big_theta = min(k * math.sqrt(t), ctl.max_window)
        coarse = _ch1_cf_rule(lam, t, R, big_theta, W, density)
        for _ in range(4):
            fine = _ch1_cf_rule(lam, t, R, big_theta, W, 2.0 * density)
            d_cf, d_mass = abs(fine[:2] - coarse[:2])
            cf, mass, y_tail = fine
            target = max(ctl.abs_tol, ctl.rel_tol * abs(cf))
            if d_cf + d_mass <= 0.5 * target:
                break
            coarse, density = fine, 2.0 * density
        else:
            raise QuadratureFailureError(
                f"node-doubling error {d_cf + d_mass} above target {target}")
        # mass outside the box: 1 minus a lower bound on the box's mass
        outside = max(0.0, 1.0 - mass + d_mass + y_tail)
        err = d_cf + y_tail + outside
        if err <= target:
            return JointDensityValue(float(cf), float(err))
        if R == ctl.max_window and big_theta == ctl.max_window:
            raise WindowExhaustedError(
                f"mass {outside} outside the box at window cap {ctl.max_window}")
        k += 1.0


def ch1_loop_slice(t: float, theta) -> np.ndarray:
    """Unnormalized r=0 slice of the n=1 kernel, in closed form.

    Equals ch1_joint_density(t, 0, theta):
    e^{-t/2}/(8 t^2) * e^{-theta^2/2t} / cosh^2(pi theta / 2t).
    This is the Fourier transform of y/sinh(y) applied to the y-integral at
    r=0, matching the planar bridge-area density shape 1/cosh^2(pi s / 2t).
    """
    theta = np.asarray(theta, dtype=float)
    out = (math.exp(-t / 2.0) / (8.0 * t * t)
           * np.exp(-theta * theta / (2.0 * t))
           / np.cosh(np.pi * theta / (2.0 * t)) ** 2)
    return out if out.ndim else float(out)
