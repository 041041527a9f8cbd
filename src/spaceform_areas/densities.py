"""Spectral series for radial transition densities on the sphere side.

Implements the trigonometric Jacobi transition density q_t^{alpha,beta}(r0, r)
on [0, pi/2], its stationary limit, and the kernel of the radial diffusion on
the fiber-rescaled sphere together with its large-rescaling limit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .specfun import (
    JacobiParams,
    _check_dimension,
    _jacobi_table,
    jacobi_endpoint_bound,
)


class SeriesNotConvergedError(RuntimeError):
    """Raised when the tail bound cannot be brought below TAIL_TOL."""


class TimeTooSmallError(ValueError):
    """Raised when t is below the series' minimum-time guard."""


# Truncation policy of every spectral series, read when a series runs: it
# stops once its tail bound is at most TAIL_TOL, raises after MAX_TERMS
# terms, and refuses t below MIN_TIME.
MAX_TERMS = 400
TAIL_TOL = 1e-12
MIN_TIME = 1e-3


@dataclass(frozen=True)
class DensityValue:
    """A truncated series value together with a bound on the discarded tail.

    `truncation_bound` also absorbs the magnitude of any negative clip.
    """

    value: float
    truncation_bound: float


def _log_coeff(m: int, a: float, b: float) -> float:
    """log of (2m+a+b+1) * Gamma(m+a+b+1) m! / (Gamma(m+a+1) Gamma(m+b+1))."""
    return (
        math.log(2 * m + a + b + 1.0)
        + gammaln(m + a + b + 1.0)
        + gammaln(m + 1.0)
        - gammaln(m + a + 1.0)
        - gammaln(m + b + 1.0)
    )


def _series_weights(a: float, b: float, log_w, nx: int, max_terms: int,
                    tail_tol: float) -> tuple[tuple[float, ...], float, float]:
    """Certified weights of a Jacobi series in nx points, and where it stops.

    The series is sum_m w_m prod_i P_m^{a,b}(x_i), w_m = exp(log_w(m)).  For
    a, b >= -1/2 the endpoint value e_m bounds |P_m| on [-1, 1], so b_m =
    w_m e_m^nx bounds the m-th term wherever the points lie.  The series
    stops at the first m whose geometric tail b_{m+1} / (1 - b_{m+2}/b_{m+1})
    is at most tail_tol, and raises after max_terms terms.  Returns ((w_0,
    ..., w_m), tail, abs_bound); abs_bound = b_0 + ... + b_m + tail bounds
    the series of absolute values.
    """
    w: list[float] = []
    bnd: list[float] = []

    def extend() -> None:
        m = len(w)
        w.append(math.exp(log_w(m)))
        e = jacobi_endpoint_bound(m, a, b)
        bm = w[m]
        for _ in range(nx):
            bm = bm * e
        bnd.append(bm)

    extend()
    extend()
    for m in range(max_terms + 1):
        extend()
        b1, b2 = bnd[m + 1], bnd[m + 2]
        if b1 <= 0.0:
            tail = 0.0
            break
        ratio = b2 / b1
        if ratio < 1.0:
            tail = b1 / (1.0 - ratio)
            if tail <= tail_tol:
                break
    else:
        raise SeriesNotConvergedError(
            f"tail bound not below {tail_tol} within {max_terms} "
            f"terms (a={a}, b={b})")
    return tuple(w[:m + 1]), tail, sum(bnd[:m + 1]) + tail


def _jacobi_series(a: float, b: float, weights, xs: tuple[float, ...]
                   ) -> tuple[float, float, float]:
    """The certified series of `_series_weights` at the points xs: (sum,
    tail, abs_bound)."""
    w, tail, abs_bound = weights
    tables = [_jacobi_table(len(w) - 1, a, b, x) for x in xs]
    total = 0.0
    for j, wj in enumerate(w):
        term = wj
        for table in tables:
            term = term * table[j]
        total += term
    return total, tail, abs_bound


@functools.lru_cache(maxsize=1)
def _density_weights(a: float, b: float, t: float, max_terms: int,
                     tail_tol: float):
    """`_series_weights` of spherical_density at (a, b, t) and the policy.
    quad evaluates one (a, b, t) at every node, so the latest set is kept;
    with one entry no later integral reuses an earlier one's work."""
    return _series_weights(
        a, b, lambda m: _log_coeff(m, a, b) - 2.0 * m * (m + a + b + 1.0) * t,
        2, max_terms, tail_tol)


def _check_time(t) -> None:
    """Raise ValueError unless t is finite, TimeTooSmallError below
    MIN_TIME."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t < MIN_TIME:
        raise TimeTooSmallError(f"t={t} below minimum time {MIN_TIME}")


def _clip(raw: float, tail: float) -> DensityValue:
    if raw < 0.0:
        return DensityValue(0.0, tail + abs(raw))
    return DensityValue(raw, tail)


def spherical_density(p: JacobiParams, t: float, r0: float,
                      r: float) -> DensityValue:
    """Transition density q_t^{alpha,beta}(r0, r) of the radial diffusion on [0, pi/2].

    Density with respect to Lebesgue measure in r.  Requires alpha, beta >= 0
    and MIN_TIME <= t < inf.
    """
    if p.alpha < 0 or p.beta < 0:
        raise ValueError("spherical_density requires alpha, beta >= 0")
    _check_time(t)
    if not (0.0 <= r0 <= math.pi / 2) or not (0.0 <= r <= math.pi / 2):
        raise ValueError("r0 and r must lie in [0, pi/2]")
    a, b = p.alpha, p.beta
    front = 2.0 * math.cos(r) ** (2 * b + 1) * math.sin(r) ** (2 * a + 1)
    s, tail, _ = _jacobi_series(
        a, b, _density_weights(a, b, float(t), MAX_TERMS, TAIL_TOL),
        (math.cos(2 * r0), math.cos(2 * r)))
    return _clip(front * s, front * tail)


def stationary_spherical_density(p: JacobiParams, r) -> np.ndarray:
    """Large-time limit of the radial density: the normalized speed density.

    Equals 2 (cos r)^{2 beta + 1} (sin r)^{2 alpha + 1} / B(alpha+1, beta+1)
    (the degree-0 term of the spectral series).
    """
    if p.alpha < 0 or p.beta < 0:
        raise ValueError("requires alpha, beta >= 0")
    a, b = p.alpha, p.beta
    c0 = math.exp(gammaln(a + b + 2.0) - gammaln(a + 1.0) - gammaln(b + 1.0))
    r = np.asarray(r, dtype=float)
    out = 2.0 * c0 * np.cos(r) ** (2 * b + 1) * np.sin(r) ** (2 * a + 1)
    return out if out.ndim else float(out)


def _fiber_series(n: int, k: int, t: float,
                  x: float) -> tuple[float, float, float]:
    """Inner m-series of the rescaled-sphere kernel at fiber frequency k >= 0.

    Sum_m (2m+k+n) binom(m+k+n-1, n-1) e^{-lam_{m,k} t / 2} P_m^{n-1,k}(x),
    with lam_{m,k} = 4m(m+k+n) + 2kn; returns what `_jacobi_series` does.
    """
    # binom(m+k+n-1, n-1) = Gamma(m+k+n)/(Gamma(m+k+1) Gamma(n))
    def log_w(m: int) -> float:
        return (math.log(2 * m + k + n)
                + gammaln(m + k + n) - gammaln(m + k + 1.0) - gammaln(float(n))
                - 0.5 * (4.0 * m * (m + k + n) + 2.0 * k * n) * t)

    a, b = float(n - 1), float(k)
    return _jacobi_series(
        a, b, _series_weights(a, b, log_w, 1, MAX_TERMS, TAIL_TOL), (x,))


def berger_kernel(n: int, lam: float, t: float, r: float,
                  theta: float) -> DensityValue:
    """Kernel at the pole of the radial(+fiber) diffusion on the rescaled sphere.

    Double series over fiber frequency k and radial degree m; the imaginary
    parts cancel by the k <-> -k pairing, so the sum is taken over cos(k theta)
    terms.  `lam` is the fiber stiffness parameter (> 0).
    """
    _check_dimension(n)
    if not (lam > 0):
        raise ValueError("lam must be positive")
    _check_time(t)
    if not (math.isfinite(r) and math.isfinite(theta)):
        raise ValueError(f"r and theta must be finite, got {r} and {theta}")
    x = math.cos(2 * r)
    pref = math.gamma(n) / (2.0 * math.pi ** (n + 1))
    cosr = math.cos(r)

    total, tail, _ = _fiber_series(n, 0, t, x)
    for k in range(1, MAX_TERMS + 1):
        damp = math.exp(-0.5 * k * k * lam * lam * t)
        msum, mtail, mbound = _fiber_series(n, k, t, x)
        kbound = 2.0 * damp * abs(cosr) ** k * mbound
        if kbound <= TAIL_TOL:
            # remaining k decay at least geometrically through the k^2 factor
            q = math.exp(-0.5 * (2 * k + 1) * lam * lam * t)
            tail += kbound + kbound * q / max(1.0 - q, 0.5)
            break
        total += 2.0 * damp * math.cos(k * theta) * cosr ** k * msum
        tail += 2.0 * damp * mtail
    else:
        raise SeriesNotConvergedError(f"fiber k-series not converged (lam={lam}, t={t})")
    return _clip(pref * total, pref * tail)


def berger_limit_kernel(n: int, t: float, r: float) -> DensityValue:
    """Large-stiffness limit of `berger_kernel`: the k = 0 series alone.

    Equals the radial heat kernel at the pole of Brownian motion on the base
    space, in the fiber-averaged measure convention.
    """
    _check_dimension(n)
    _check_time(t)
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r}")
    pref = math.gamma(n) / (2.0 * math.pi ** (n + 1))
    s, tail, _ = _fiber_series(n, 0, t, math.cos(2 * r))
    return _clip(pref * s, pref * tail)
