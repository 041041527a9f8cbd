"""Quadrature evaluators for the joint radial/area densities on the hyperbolic side.

On CH^n the joint kernel of (radius, area) is a y-integral of the heat
kernel of real hyperbolic space H^{2n+1} at cosh(delta) = cosh r cosh y.
In odd dimension that kernel is, up to its constant, the closed form
F_n(delta) = (-(1/sinh delta) d/d delta)^n e^{-delta^2/2t}.  One magnitude
function evaluates it for every n, one y-panel rule integrates the joint
density from it, and one positive (r, y) rule the area characteristic
function; the r=0 slice for n=1 is in closed form.
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


# Error targets of every quadrature, read when a quadrature runs: a value
# meets max(ABS_TOL, REL_TOL |value|), and a truncation window stops
# growing at MAX_WINDOW.
REL_TOL = 1e-9
ABS_TOL = 1e-11
MAX_WINDOW = 60.0


@dataclass(frozen=True)
class JointDensityValue:
    """Quadrature value of a joint density with an error estimate."""

    value: float
    est_error: float


# Taylor terms of F_n in v = cosh(delta) - 1 used below delta_0 = min(sqrt t, 1)
_SERIES_TERMS = 60


@functools.cache
def _terms(n: int) -> tuple:
    """Terms (c, p, q, b) of e^{delta^2/2t} F_n, each c delta^p t^{-q}
    coth^b(delta) / sinh^n(delta), from g_0 = 1 and
    g_{k+1} = (delta g_k / t - g_k') / sinh(delta)."""
    terms = {(0, 0, 0): 1}
    for k in range(n):
        nxt = {}
        for (p, q, b), c in terms.items():
            for key, d in (((p + 1, q + 1, b), c), ((p - 1, q, b), -p * c),
                           ((p, q, b - 1), -b * c),
                           ((p, q, b + 1), (b + k) * c)):
                nxt[key] = nxt.get(key, 0) + d
        terms = {key: c for key, c in nxt.items() if c}
    return tuple((c, p, q, b) for (p, q, b), c in sorted(terms.items()))


@functools.lru_cache(maxsize=8)
def _series(n: int, t: float) -> np.ndarray:
    """Coefficients f_j of t^n F_n = sum_j f_j (v/t)^j, v = cosh(delta) - 1.

    F_n = (-d/dv)^n e^{-Phi(v)/2t} with Phi = arcosh(1 + v)^2
    = sum_m phi_m v^m, phi_1 = 2, phi_{m+1} = -m^2 phi_m / ((m+1)(2m+1)),
    which follows from (z^2 - 1) Phi'' + z Phi' = 2.  In u = v/t the
    exponent has coefficients h_m = -phi_m t^{m-1} / 2, and the
    exponential's follow from k e_k = sum_m m h_m e_{k-m}.
    """
    size = _SERIES_TERMS + n
    m = np.arange(1, size)
    phi = 2.0 * np.cumprod(np.concatenate(
        ([1.0], -m[:-1] ** 2 / ((m[:-1] + 1.0) * (2.0 * m[:-1] + 1.0)))))
    mh = m * (-0.5 * phi * t ** (m - 1.0))
    e = np.zeros(size)
    e[0] = 1.0
    for k in range(1, size):
        e[k] = mh[:k] @ e[k - 1::-1] / k
    j = np.arange(_SERIES_TERMS, dtype=float)
    falling = np.prod([j + i for i in range(1, n + 1)], axis=0)
    return (-1.0) ** n * e[n:] * falling


def _cosh_cosh_m1(r, y):
    """cosh(r) cosh(y) - 1 without cancellation (arrays broadcast)."""
    a, b = 2.0 * np.sinh(0.5 * r) ** 2, 2.0 * np.sinh(0.5 * y) ** 2
    return a * b + a + b


def _kernel(n: int, t: float, v, log_scale):
    """e^{log_scale} F_n(delta) at v = cosh(delta) - 1 (arrays broadcast).

    The closed-form terms are combined with the scale into one exponential,
    e^{log_scale - delta^2/2t}, so that neither overflows.  Below
    delta_0 = min(sqrt t, 1), where those terms cancel, F_n is the 60-term
    Taylor series of _series in v.
    """
    v, log_scale = np.broadcast_arrays(np.asarray(v, dtype=float),
                                       np.asarray(log_scale, dtype=float))
    d0 = min(math.sqrt(t), 1.0)
    near = v < math.cosh(d0) - 1.0
    vc = np.where(near, math.cosh(d0) - 1.0, v)  # keeps the far terms finite
    sh = np.sqrt(vc * (vc + 2.0))  # sinh(delta)
    delta = np.log1p(vc + sh)
    coth = (1.0 + vc) / sh
    dp, cb = [delta ** k for k in range(n + 1)], [coth ** k for k in range(n)]
    total = sum(c * t ** -q * dp[p] * cb[b] for c, p, q, b in _terms(n))
    out = np.exp(log_scale - delta * delta / (2.0 * t)) * total / sh ** n
    if near.any():
        u = v[near] / t
        series = u[:, None] ** np.arange(_SERIES_TERMS) @ _series(n, t)
        out[near] = np.exp(log_scale[near]) * series / t ** n
    return out


def _tail_bound(n: int, W: float, t: float, r: float, theta: float) -> float:
    """Bound on the two y-tails beyond [-W, W] of the joint-density integrand
    e^{(y^2 - theta^2)/2t} F_n(delta) cos(y theta / t).

    Beyond W, delta^2 - y^2 and delta are nondecreasing in |y|,
    delta <= r + |y| and sinh delta >= cosh r sinh|y|
    >= cosh r (1 - e^{-2W}) e^{|y|} / 2, so each term of _terms integrates
    in closed form: int_W^inf (r + y)^p e^{-n y} dy
    = e^{-nW} sum_k p!/(p-k)! (r + W)^{p-k} / n^{k+1}.
    """
    d = math.acosh(math.cosh(r) * math.cosh(W))
    coth = 1.0 / math.tanh(d)
    total = sum(abs(c) * t ** -q * coth ** b
                * sum(math.perm(p, k) * (r + W) ** (p - k) / n ** (k + 1)
                      for k in range(p + 1))
                for c, p, q, b in _terms(n))
    gauss = math.exp(-(d * d - W * W + theta * theta) / (2.0 * t))
    return (2.0 * gauss * total * math.exp(-n * W)
            * (2.0 / ((1.0 - math.exp(-2.0 * W)) * math.cosh(r))) ** n)


def _grow(bound, start: float, target: float) -> float:
    """Window grown by 1 from start until bound(window) is below target,
    capped at MAX_WINDOW.  Each bound decreases with the window, so it
    stops within 1 of the smallest window that meets the target."""
    W = min(start, MAX_WINDOW)
    while bound(W) > target:
        if W == MAX_WINDOW:
            raise WindowExhaustedError(
                f"tail bound above {target} at window cap {MAX_WINDOW}")
        W = min(W + 1.0, MAX_WINDOW)
    return W


def _check_args(n, t: float) -> int:
    if not (n >= 1 and n == int(n)):
        raise ValueError("n must be a positive integer")
    if not (t > 0):
        raise ValueError("t must be positive")
    return int(n)


def chn_joint_density(n: int, t: float, r: float,
                      theta: float) -> JointDensityValue:
    """Oscillatory-integral kernel p_t(r, theta) for the CH^n model, n >= 1:

    p_t = e^{-n^2 t/2} / ((2 pi)^{n+1} t)
          * int e^{(y^2 - theta^2)/2t} cos(y theta / t) F_n(delta) dy.

    The joint law of (radial coordinate, area) has density
    (2 pi^n / Gamma(n)) * p_t(r, theta) * (sinh r)^{2n-1} cosh r per dr dtheta.
    The y-integral runs on Gauss panels over the window [-W, W], doubled
    until the change meets the target or stops shrinking (the round-off
    floor of the oscillatory sum); est_error adds that change to the tail
    bound.  The imaginary residue is checked to vanish within ABS_TOL.
    """
    n = _check_args(n, t)
    if r < 0:
        raise ValueError("r must be nonnegative")
    # The oscillatory y-integral cancels down to a value roughly
    # e^{-2 pi |theta| / t} times the central integrand scale, so the tail is
    # truncated relative to that scale rather than in absolute terms.
    scale = math.exp(-theta * theta / (2.0 * t))
    W = _grow(lambda w: _tail_bound(n, w, t, r, theta),
              max(4.0, 4.0 * math.sqrt(t)),
              max(ABS_TOL / 10.0, 1e-17 * scale))
    epsabs = max(1e-300, 1e-14 * scale)

    def rule(n_panels: int):
        # e^{(y - i theta)^2/2t} = e^{(y^2 - theta^2)/2t} e^{-i y theta/t}
        y, w = _gauss_panels(-W, W, n_panels)
        mag = w * _kernel(n, t, _cosh_cosh_m1(r, y),
                          (y * y - theta * theta) / (2.0 * t))
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
        if dif <= max(epsabs, REL_TOL * abs(re)) or dif >= 0.5 * prev_dif:
            break
        prev_dif = dif
    pref = math.exp(-n * n * t / 2.0) / ((2.0 * math.pi) ** (n + 1) * t)
    if abs(pref * im) > max(ABS_TOL, 10.0 * REL_TOL * abs(pref * re)):
        raise QuadratureFailureError(
            f"imaginary residue {pref * im} above tolerance")
    err = pref * (dif + _tail_bound(n, W, t, r, theta))
    val = pref * re
    if err > max(ABS_TOL, REL_TOL * abs(val), 10.0 * epsabs * pref):
        raise QuadratureFailureError(f"error estimate {err} above target")
    return JointDensityValue(val, err)


def ch1_joint_density(t: float, r: float, theta: float) -> JointDensityValue:
    """chn_joint_density at n = 1: the joint law of the radial coordinate
    and area on CH^1 has density pi * p_t(r, theta) * sinh(2r) per dr dtheta."""
    return chn_joint_density(1, t, r, theta)


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


def _gauss_moments(k_max: int, X: float, a: float, t: float) -> list:
    """[int_X^inf x^k e^{a x - x^2/2t} dx for k = 0..k_max], X >= 0, by
    parts from x e^{a x - x^2/2t} = t (a - d/dx) e^{a x - x^2/2t}."""
    g = math.exp(a * X - X * X / (2.0 * t))
    m = [math.exp(a * a * t / 2.0) * math.sqrt(math.pi * t / 2.0)
         * math.erfc((X - a * t) / math.sqrt(2.0 * t))]
    for k in range(1, k_max + 1):
        m.append(t * (X ** (k - 1) * g + a * m[k - 1]
                      + (k - 1) * (m[k - 2] if k > 1 else 0.0)))
    return m


def _cf_tail(n: int, lam: float, t: float, X: float, radial: bool) -> float:
    """Bound on the part of the (r, y) integral of ch_area_cf over r > X
    (radial) or over |y| > X, without prefactor.

    There delta >= X, delta^2 >= r^2 + y^2, delta <= r + |y| and
    sinh delta >= cosh r sinh|y|, cosh y sinh r.  With
    sinh^{2n-1} r cosh r / cosh^n r <= e^{nr} / 2^n,
    sinh^{n-1} r cosh r <= e^{nr} / 2^{n-1} and cosh(lam y) <= e^{|lam y|},
    each term of _terms is below a sum of products of Gaussian moments
    int x^k e^{a x - x^2/2t} dx in r (a = n) and y (a = |lam| - n).
    """
    mr = _gauss_moments(n, X if radial else 0.0, n, t)
    my = _gauss_moments(n, 0.0 if radial else X, abs(lam) - n, t)
    coth = 1.0 / math.tanh(X)
    total = sum(abs(c) * t ** -q * coth ** b
                * sum(math.comb(p, j) * mr[j] * my[p - j] for j in range(p + 1))
                for c, p, q, b in _terms(n))
    if radial:
        return 4.0 * total
    return 2.0 * total / (1.0 - math.exp(-2.0 * X)) ** n


# Temporaries of the (r, y) rule in ch_area_cf are built in chunks of about
# this many elements, so its memory does not grow with node counts.
_CHUNK = 1 << 13


def ch_area_cf(n: int, lam: float, t: float) -> JointDensityValue:
    """Characteristic function E[cos(lam theta_t)] of the area on CH^n.

    The theta-integral of p_t is closed form,
    int e^{-theta^2/2t} cos(lam theta) cos(y theta/t) dtheta
    = sqrt(2 pi t) e^{-lam^2 t/2 - y^2/2t} cosh(lam y), so
    E[cos(lam theta_t)] = (2 pi^n / Gamma(n)) e^{-n^2 t/2} sqrt(2 pi t)
    e^{-lam^2 t/2} / ((2 pi)^{n+1} t)
    * int_0^inf sinh^{2n-1} r cosh r int cosh(lam y) F_n(delta) dy dr.
    F_n is a heat kernel, so the integrand is positive.  One tensor-product
    Gauss rule over [0, R] x [0, Y] (the y-integrand is even) doubles its
    nodes until the change meets the target.  R and Y grow by 1 from
    max(4, 4 sqrt t) until the tail bounds of _cf_tail beyond them are each
    below ABS_TOL / 10; est_error adds both to the last change.
    """
    n = _check_args(n, t)
    if not math.isfinite(lam):
        raise ValueError("lam must be finite")
    pref = (2.0 * math.pi ** n / math.gamma(n)
            * math.exp(-(n * n + lam * lam) * t / 2.0)
            * math.sqrt(2.0 * math.pi * t) / ((2.0 * math.pi) ** (n + 1) * t))
    R, Y = (_grow(lambda X: pref * _cf_tail(n, lam, t, X, radial),
                  max(4.0, 4.0 * math.sqrt(t)), ABS_TOL / 10.0)
            for radial in (True, False))
    tails = pref * (_cf_tail(n, lam, t, R, True)
                    + _cf_tail(n, lam, t, Y, False))
    s = min(1.0, math.sqrt(t))  # length scale of the integrand in r and y

    def rule(density: float) -> float:
        r, wr = _gauss_panels(0.0, R, math.ceil(R * density / s))
        y, wy = _gauss_panels(0.0, Y, math.ceil(Y * density / s))
        log_r = (2 * n - 1) * np.log(np.sinh(r)) + np.log(np.cosh(r))
        log_y = np.logaddexp(lam * y, -lam * y) - math.log(2.0)
        total = 0.0
        step = max(1, _CHUNK // y.size)
        for i in range(0, r.size, step):
            f = _kernel(n, t, _cosh_cosh_m1(r[i:i + step, None], y),
                        log_r[i:i + step, None] + log_y)
            total += wr[i:i + step] @ f @ wy
        return 2.0 * pref * total

    density = 0.5
    coarse = rule(density)
    for _ in range(4):
        density *= 2.0
        fine = rule(density)
        dif = abs(fine - coarse)
        target = max(ABS_TOL, REL_TOL * abs(fine))
        if dif <= 0.5 * target:
            return JointDensityValue(fine, dif + tails)
        coarse = fine
    raise QuadratureFailureError(
        f"node-doubling error {dif} above target {target}")


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
