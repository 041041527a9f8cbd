"""Special functions used across the package.

Jacobi polynomials with real parameters (three-term recurrence) and their
endpoint bounds through log-gamma ratios, with the two oracles that
jacobi-selftest checks the recurrence against: the Rodrigues formula at 40
digits and the eigenfunction identity by finite differences; and the
integer checks every module shares, the dimension check among them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln


def _is_int_in(v, lo, hi=math.inf) -> bool:
    """True for an integer lo <= v < hi of any integral type but bool."""
    return (isinstance(v, numbers.Integral) and not isinstance(v, bool)
            and lo <= v < hi)


def _check_dimension(n) -> None:
    """Raise ValueError unless the complex dimension n is an integer >= 1."""
    if not _is_int_in(n, 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")


@dataclass(frozen=True)
class JacobiParams:
    """Parameters (alpha, beta) of a radial Jacobi generator.

    alpha, beta must both exceed -1.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > -1.0):
            raise ValueError(f"alpha must be > -1, got {self.alpha}")
        if not (self.beta > -1.0):
            raise ValueError(f"beta must be > -1, got {self.beta}")


def _jacobi_table(m_max: int, a: float, b: float, x) -> list:
    """[P_0^{a,b}(x), ..., P_{m_max}^{a,b}(x)] by the three-term recurrence.

    `x` is a float or a float ndarray, and every entry has its type and
    shape; plain floats keep the per-term cost low for the spectral series.
    """
    table = [1.0 + 0.0 * x]
    if m_max >= 1:
        table.append(0.5 * (a - b + (a + b + 2.0) * x))
    for k in range(2, m_max + 1):
        c1 = 2.0 * k * (k + a + b) * (2.0 * k + a + b - 2.0)
        c2 = (2.0 * k + a + b - 1.0) * (a * a - b * b)
        c3 = (2.0 * k + a + b - 2.0) * (2.0 * k + a + b - 1.0) * (2.0 * k + a + b)
        c4 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + a + b)
        table.append(((c2 + c3 * x) * table[k - 1] - c4 * table[k - 2]) / c1)
    return table


def jacobi_poly(m: int, p: JacobiParams, x):
    """Jacobi polynomial P_m^{alpha,beta}(x) in the standard normalization.

    Standard normalization means P_m(1) = Gamma(m+alpha+1)/(m! Gamma(alpha+1)).
    Evaluated by the three-term recurrence, which is stable on [-1, 1] and
    valid for real non-integer parameters.  `x` may be a scalar or array.
    """
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-14):
        raise ValueError("argument outside [-1, 1]")
    return _jacobi_table(m, p.alpha, p.beta, x if x.ndim else float(x))[m]


def jacobi_endpoint_bound(m: int, alpha: float, beta: float) -> float:
    """max(|P_m(1)|, |P_m(-1)|) = max(binom(m+alpha, m), binom(m+beta, m)),
    by log-gamma without overflow; bounds |P_m| on [-1,1] for
    alpha,beta >= -1/2."""
    lg_m = gammaln(m + 1.0)
    return max(
        math.exp(gammaln(m + alpha + 1.0) - gammaln(alpha + 1.0) - lg_m),
        math.exp(gammaln(m + beta + 1.0) - gammaln(beta + 1.0) - lg_m))


def _rodrigues_jacobi(m: int, alpha: float, beta: float, x: float) -> float:
    """Rodrigues-formula oracle for Jacobi polynomials, exact at 40 digits.

    P_m(x) = (-1)^m / (2^m m!) (1-x)^-a (1+x)^-b D^m[(1-x)^(a+m) (1+x)^(b+m)]
    with D^m by the Leibniz rule (Szego, 4.3): the sum over k of C(m, k)
    (-1)^k (a+m)_k (b+m)_(m-k) (1-x)^(m-k) (1+x)^k, (c)_k falling factorials.
    """
    import mpmath as mp
    with mp.workdps(40):
        a, b, xx = mp.mpf(alpha), mp.mpf(beta), mp.mpf(x)
        fa, fb = [mp.mpf(1)], [mp.mpf(1)]  # (a+m)_k and (b+m)_k
        for i in range(m):
            fa.append(fa[-1] * (a + m - i))
            fb.append(fb[-1] * (b + m - i))
        d = mp.fsum(math.comb(m, k) * (-1) ** k * fa[k] * fb[m - k]
                    * (1 - xx) ** (m - k) * (1 + xx) ** k
                    for k in range(m + 1))
        return float((-1) ** m * d / (2 ** m * math.factorial(m)))


def _eigen_residual(m: int, p: JacobiParams, x: float) -> float:
    """Relative error of the finite-difference eigenfunction identity.

    Applies (1-x^2) d^2/dx^2 + (beta - alpha - (alpha+beta+2) x) d/dx to
    the polynomial by central differences at steps h and h/2 with
    Richardson extrapolation, and compares with -m(m+alpha+beta+1) P.
    """
    a, b = p.alpha, p.beta

    def apply_g(h: float) -> float:
        pm = jacobi_poly(m, p, x - h)
        p0 = jacobi_poly(m, p, x)
        pp = jacobi_poly(m, p, x + h)
        d1 = (pp - pm) / (2.0 * h)
        d2 = (pp - 2.0 * p0 + pm) / (h * h)
        return (1.0 - x * x) * d2 + (b - a - (a + b + 2.0) * x) * d1

    h = min(1e-3, 0.25 * (1.0 - abs(x)))
    g = (4.0 * apply_g(h / 2.0) - apply_g(h)) / 3.0
    target = -m * (m + a + b + 1.0) * jacobi_poly(m, p, x)
    scale = max(abs(target), 1.0)
    return abs(g - target) / scale
