"""Special functions and the reference law used across the package.

Jacobi polynomials with real parameters (three-term recurrence), their
endpoint bounds through log-gamma ratios, and the normal law of the CH^n
Gaussian area limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln


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


@dataclass(frozen=True)
class NormalLaw:
    """Normal law with given mean and variance."""

    mean: float = 0.0
    variance: float = 1.0

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError(f"variance must be >= 0, got {self.variance}")

    def cdf(self, x) -> np.ndarray:
        from scipy.special import ndtr

        if self.variance == 0:
            return (np.asarray(x, dtype=float) >= self.mean).astype(float)
        return ndtr((np.asarray(x, dtype=float) - self.mean) / math.sqrt(self.variance))


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


def jacobi_poly_at_one(m: int, alpha: float) -> float:
    """P_m^{alpha,beta}(1) = binom(m+alpha, m), independent of beta."""
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")
    return math.exp(log_gamma_ratio(m + alpha + 1.0, alpha + 1.0) - gammaln(m + 1.0))


def jacobi_endpoint_bound(m: int, alpha: float, beta: float) -> float:
    """max(|P_m(1)|, |P_m(-1)|); bounds |P_m| on [-1,1] for alpha,beta >= -1/2."""
    return max(jacobi_poly_at_one(m, alpha), jacobi_poly_at_one(m, beta))


def log_gamma_ratio(a: float, b: float) -> float:
    """ln(Gamma(a)/Gamma(b)) without overflow, for positive a, b."""
    if a <= 0 or b <= 0:
        raise ValueError(f"arguments must be positive, got ({a}, {b})")
    return float(gammaln(a) - gammaln(b))

