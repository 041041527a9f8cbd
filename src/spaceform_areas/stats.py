"""Estimation and goodness-of-fit helpers on 1-D sample arrays: empirical
characteristic functions with a conservative standard error, and the
one-sample Kolmogorov-Smirnov statistic with its asymptotic p-value."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import kolmogorov


@dataclass(frozen=True)
class CfEstimate:
    """A characteristic-function value with Monte Carlo error (0 for an
    exact value)."""

    value: complex
    std_error: float

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")


def _samples(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(
            f"samples must be a non-empty 1-D array, got shape {x.shape}")
    return x


def empirical_cf(x: np.ndarray, lam: float) -> CfEstimate:
    """Mean of e^{i lam x} over the samples x, with a conservative
    standard error: the Euclidean norm of the standard errors of the real
    and imaginary parts.
    """
    x = _samples(x)
    n = x.size
    c = np.cos(lam * x)
    q = np.sin(lam * x)
    value = complex(c.mean(), q.mean())
    if n > 1:
        se = math.hypot(float(c.std(ddof=1)), float(q.std(ddof=1))) / math.sqrt(n)
    else:
        se = 0.0
    return CfEstimate(value, se)


def ks_statistic(x: np.ndarray, cdf) -> tuple[float, float]:
    """One-sample KS statistic D of the samples x against `cdf`, and the
    asymptotic p-value kolmogorov(sqrt(n) D).

    `cdf` must be a vectorized monotone map to [0, 1].
    """
    x = np.sort(_samples(x))
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    if np.any(f < -1e-12) or np.any(f > 1.0 + 1e-12):
        raise ValueError("cdf values outside [0, 1]")
    i = np.arange(1, n + 1)
    d_plus = float(np.max(i / n - f))
    d_minus = float(np.max(f - (i - 1) / n))
    d = max(d_plus, d_minus)
    return d, float(kolmogorov(math.sqrt(n) * d))
