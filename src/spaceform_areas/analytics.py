"""Analytic characteristic functions for the stochastic-area and winding
laws: conditional and marginal CFs on the projective side, the planar
area formula, and the winding limit CFs."""

from __future__ import annotations

import math

from scipy.integrate import quad

from . import hyperbolic_kernels
from .densities import spherical_density
from .simulate import Geometry
from .specfun import JacobiParams

_DENSITY_FLOOR = 1e-300


def cf_conditional_cp(n: int, lam: float, t: float, r: float) -> float:
    """E[e^{i lam theta(t)} | r(t) = r] on the projective space of complex
    dimension n, via the ratio of tilted to untilted radial densities:
    e^{-n lam t} (cos r)^{-lam} q_t^{n-1,lam}(0,r) / q_t^{n-1,0}(0,r).
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if not (0.0 <= r < math.pi / 2):
        raise ValueError("r must lie in [0, pi/2)")
    if lam == 0.0:
        return 1.0
    q_lam = spherical_density(JacobiParams(float(n - 1), lam), t, 0.0, r)
    q_0 = spherical_density(JacobiParams(float(n - 1), 0.0), t, 0.0, r)
    if q_0.value < _DENSITY_FLOOR:
        raise ZeroDivisionError("untilted density vanishes at this point")
    return math.exp(-n * lam * t) * math.cos(r) ** (-lam) * q_lam.value / q_0.value


def cf_marginal_cp(n: int, lam: float, t: float) -> float:
    """E[e^{i lam theta(t)}] = e^{-n|lam|t} * integral over r of
    q_t^{n-1,|lam|}(0,r) / (cos r)^{|lam|}; real and in (0, 1]."""
    a = abs(lam)
    if a == 0.0:
        return 1.0
    p = JacobiParams(float(n - 1), a)

    def integrand(r):
        return spherical_density(p, t, 0.0, r).value * math.cos(r) ** (-a)

    val, err = quad(integrand, 0.0, math.pi / 2,
                    epsabs=hyperbolic_kernels.ABS_TOL,
                    epsrel=hyperbolic_kernels.REL_TOL, limit=200)
    out = math.exp(-n * a * t) * val
    if not (-1e-12 <= out <= 1.0 + 1e-9):
        raise ArithmeticError(f"marginal CF out of range: {out}")
    return min(max(out, 0.0), 1.0)


def levy_cf(lam: float, t: float, z: complex) -> float:
    """Planar area formula: E[e^{i lam S_t} | Z_t = z] =
    (lam t / sinh lam t) * exp(-(|z|^2/2t)(lam t coth lam t - 1))."""
    if not (t > 0):
        raise ValueError("t must be positive")
    u = abs(lam) * t
    if u < 1e-6:
        # 4th-order expansions of u/sinh u and u coth u - 1
        ratio = 1.0 - u * u / 6.0 + 7.0 * u ** 4 / 360.0
        cotm1 = u * u / 3.0 - u ** 4 / 45.0
    else:
        ratio = u / math.sinh(u)
        cotm1 = u / math.tanh(u) - 1.0
    return ratio * math.exp(-(abs(z) ** 2 / (2.0 * t)) * cotm1)


def winding_limit_cf(geometry: Geometry, r0: float, lam: float) -> float:
    """Long-time winding CF limits for the n=1 geometries.

    cp1: phi(t)/t converges to a scale-2 Cauchy law, CF e^{-2|lam|}.
    ch1: phi(t) itself converges, with CF (tanh r0)^{|lam|}.
    """
    if geometry.n != 1:
        raise ValueError("winding limits are defined for n = 1 only")
    if geometry.kind == "cp":
        if not (0.0 < r0 < math.pi / 2):
            raise ValueError("r0 must lie in (0, pi/2)")
        return math.exp(-2.0 * abs(lam))
    if not (r0 > 0):
        raise ValueError("r0 must be positive")
    return math.tanh(r0) ** abs(lam)
