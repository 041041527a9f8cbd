"""Estimation and goodness-of-fit helpers: empirical characteristic
functions and one-sample Kolmogorov-Smirnov statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CfEstimate:
    """A characteristic-function value with Monte Carlo error.

    Analytic values carry std_error 0 and n_samples 0.
    """

    value: complex
    std_error: float
    n_samples: int = 0

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        if self.n_samples < 0:
            raise ValueError("n_samples must be nonnegative")


@dataclass(frozen=True)
class SampleSet:
    """A bag of real-valued samples."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1:
            raise ValueError("values must be one-dimensional")

    def require_nonempty(self):
        if self.values.size == 0:
            raise ValueError("empty sample set")


def empirical_cf(s: SampleSet, lam: float) -> CfEstimate:
    """Mean of e^{i lam x} with a conservative standard error.

    The SE combines the component-wise standard errors of the real and
    imaginary parts as a Euclidean norm.
    """
    s.require_nonempty()
    x = s.values
    n = x.size
    if lam == 0.0:
        return CfEstimate(complex(1.0), 0.0, n)
    c = np.cos(lam * x)
    q = np.sin(lam * x)
    value = complex(c.mean(), q.mean())
    if n > 1:
        se = math.hypot(float(c.std(ddof=1)), float(q.std(ddof=1))) / math.sqrt(n)
    else:
        se = 0.0
    return CfEstimate(value, se, n)


def _kolmogorov_sf(x: float, terms: int = 100) -> float:
    """Survival function of the asymptotic Kolmogorov distribution."""
    if x <= 0:
        return 1.0
    total = 0.0
    for k in range(1, terms + 1):
        total += (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * x * x)
    return float(min(1.0, max(0.0, 2.0 * total)))


def ks_statistic(s: SampleSet, cdf) -> tuple[float, float]:
    """One-sample KS statistic D and asymptotic p-value against `cdf`.

    `cdf` must be a vectorized monotone map to [0, 1].
    """
    s.require_nonempty()
    x = np.sort(s.values)
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    if np.any(f < -1e-12) or np.any(f > 1.0 + 1e-12):
        raise ValueError("cdf values outside [0, 1]")
    i = np.arange(1, n + 1)
    d_plus = float(np.max(i / n - f))
    d_minus = float(np.max(f - (i - 1) / n))
    d = max(d_plus, d_minus)
    p = _kolmogorov_sf(math.sqrt(n) * d)
    return d, p
