import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from spaceform_areas import (
    JointDensityValue,
    QuadratureFailureError,
    WindowExhaustedError,
    ch1_joint_density,
    ch1_loop_slice,
    ch_area_cf,
    chn_joint_density,
)
from spaceform_areas import hyperbolic_kernels
from spaceform_areas.hyperbolic_kernels import _gauss_panels, _kernel


class TestCh1JointDensity:
    def test_loop_slice_matches_quadrature(self):
        for th in (-2.5, -1.0, 0.0, 0.7, 3.0):
            q = ch1_joint_density(1.0, 0.0, th).value
            closed = float(ch1_loop_slice(1.0, th))
            assert q == pytest.approx(closed, rel=1e-8)

    def test_even_in_theta(self):
        a = ch1_joint_density(0.8, 0.6, 1.3).value
        b = ch1_joint_density(0.8, 0.6, -1.3).value
        assert a == pytest.approx(b, rel=1e-12)

    def test_positive_and_decaying_in_theta(self):
        vals = [ch1_joint_density(1.0, 0.5, th).value
                for th in (0.0, 1.0, 2.0, 4.0)]
        assert all(v > 0 for v in vals)
        assert vals[0] > vals[1] > vals[2] > vals[3]

    def test_theta_marginal_is_radial_heat_kernel_mass(self):
        # integrating the area out at fixed r recovers a probability density
        # in r (weighted by pi sinh 2r); spot-check the total mass over a
        # truncated (r, theta) box is slightly below 1
        def inner(r):
            f = lambda th: ch1_joint_density(1.0, r, th).value
            v, _ = quad(f, 0.0, 10.0, limit=100)
            return 2.0 * v * math.pi * math.sinh(2.0 * r)

        total, _ = quad(inner, 0.0, 6.0, limit=60)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ch1_joint_density(-1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            ch1_joint_density(1.0, -0.5, 0.0)

    def test_window_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(hyperbolic_kernels, "MAX_WINDOW", 1.0)
        with pytest.raises(WindowExhaustedError):
            ch1_joint_density(1.0, 0.5, 0.3)

    @pytest.mark.parametrize("t", [0.1, 1.0, 4.0])
    def test_window_stops_near_first_sufficient(self, t):
        # at r = 0, theta = 0 the smallest window with tail bound below
        # 1e-12 is 32 to 35 for these t; doubling from 4 sqrt t jumped
        # past it to the cap of 60
        target = hyperbolic_kernels.ABS_TOL / 10.0
        bound = lambda W: hyperbolic_kernels._tail_bound(1, W, t, 0.0, 0.0)
        W = hyperbolic_kernels._grow(bound, max(4.0, 4.0 * math.sqrt(t)),
                                     target)
        assert W <= 40.0
        assert bound(W) <= target
        assert bound(W - 1.0) > target


# The n=1 magnitude, tail bound and window of the kernel's earlier body,
# kept verbatim so that the reference below does not share the library's
# closed form.
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


def _ch1_window(t: float, r: float, theta: float, target: float) -> float:
    """y-window W of the n=1 integrand: grown by 1 from max(4, 4 sqrt t)
    until the tail bound beyond it is below target, capped at
    MAX_WINDOW.  The bound falls at least like e^{-W}, so W stops
    within 1 of the smallest window that meets the target."""
    cap = hyperbolic_kernels.MAX_WINDOW
    W = min(max(4.0, 4.0 * math.sqrt(t)), cap)
    while _ch1_tail_bound(W, t, r, theta) > target:
        if W == cap:
            raise WindowExhaustedError(
                f"tail bound above {target} at window cap {cap}")
        W = min(W + 1.0, cap)
    return W


def _ch1_integrand(y, t: float, r: float, theta: float):
    """Real and imaginary parts of the n=1 y-integrand.

    The complex factor e^{(y - i theta)^2 / 2t} splits into
    e^{(y^2 - theta^2)/2t} (cos(y theta / t) - i sin(y theta / t)).
    """
    mag = _ch1_magnitude(y, t, r, theta)
    phase = y * theta / t
    return mag * np.cos(phase), -mag * np.sin(phase)


def _ch1_joint_density_quad(t: float, r: float,
                            theta: float) -> JointDensityValue:
    """ch1_joint_density by two adaptive scipy quad calls over the y-window,
    the kernel's earlier body kept as an independent reference."""
    if not (t > 0):
        raise ValueError("t must be positive")
    if r < 0:
        raise ValueError("r must be nonnegative")
    # The oscillatory y-integral cancels down to a value roughly
    # e^{-2 pi |theta| / t} times the central integrand scale, so the tail is
    # truncated relative to that scale rather than in absolute terms.
    scale = math.exp(-theta * theta / (2.0 * t))
    abs_tol, rel_tol = hyperbolic_kernels.ABS_TOL, hyperbolic_kernels.REL_TOL
    W = _ch1_window(t, r, theta, max(abs_tol / 10.0, 1e-17 * scale))
    epsabs = max(1e-300, 1e-14 * scale)
    with warnings.catch_warnings():
        # roundoff warnings are expected near machine precision; the final
        # error check below is authoritative
        warnings.simplefilter("ignore", IntegrationWarning)
        re, re_err = quad(lambda y: _ch1_integrand(y, t, r, theta)[0], -W, W,
                          epsabs=epsabs, epsrel=rel_tol, limit=200)
        im, _ = quad(lambda y: _ch1_integrand(y, t, r, theta)[1], -W, W,
                     epsabs=epsabs, epsrel=rel_tol, limit=200)
    pref = math.exp(-t / 2.0) / (2.0 * math.pi * t) ** 2
    if abs(pref * im) > max(abs_tol, 10.0 * rel_tol * abs(pref * re)):
        raise QuadratureFailureError(
            f"imaginary residue {pref * im} above tolerance"
        )
    err = pref * (re_err + _ch1_tail_bound(W, t, r, theta))
    val = pref * re
    if err > max(abs_tol, rel_tol * abs(val), 10.0 * epsabs * pref):
        raise QuadratureFailureError(f"error estimate {err} above target")
    return JointDensityValue(val, err)


class TestCh1JointDensityOracle:
    @pytest.mark.parametrize("t", [0.5, 1.0, 4.0])
    @pytest.mark.parametrize("r", [0.0, 0.6, 2.0])
    def test_matches_adaptive_quad(self, t, r):
        # r > 0 has no closed form; at t = 0.5, |theta| = 3 the value lies
        # below the round-off of the oscillatory sum and both rules stop at
        # their noise floor
        for theta in (-3.0, -1.3, 0.0, 0.7, 3.0, 4.0):
            new = ch1_joint_density(t, r, theta)
            old = _ch1_joint_density_quad(t, r, theta)
            assert abs(new.value - old.value) <= new.est_error + old.est_error


class TestCh1AreaCf:
    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0, 6.0])
    def test_unit_mass(self, t):
        # a fixed r <= 8 window holds only 0.962 of the mass at t = 4 and
        # 0.719 at t = 6; the windows must grow with t
        v = ch_area_cf(1, 0.0, t)
        assert v.value == pytest.approx(1.0, abs=1e-9)
        assert v.est_error <= 1e-9

    def test_y_window_cap_raises(self, monkeypatch):
        monkeypatch.setattr(hyperbolic_kernels, "MAX_WINDOW", 2.0)
        with pytest.raises(WindowExhaustedError):
            ch_area_cf(1, 0.5, 1.0)

    def test_box_cap_raises(self, monkeypatch):
        # the y-window fits under the cap, but r(25) ~ 25 + N(0, 25) does not
        monkeypatch.setattr(hyperbolic_kernels, "MAX_WINDOW", 40.0)
        with pytest.raises(WindowExhaustedError):
            ch_area_cf(1, 0.5, 25.0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ch_area_cf(1, 0.5, 0.0)
        with pytest.raises(ValueError):
            ch_area_cf(1, math.nan, 1.0)
        with pytest.raises(ValueError):
            ch_area_cf(0, 0.5, 1.0)


def _ch1_area_cf_oracle(lam, t):
    """The CH^1 area CF with the theta-integral in closed form,
    int e^{i lam theta} e^{-(theta + i y)^2 / 2t} dtheta
    = sqrt(2 pi t) e^{-lam^2 t / 2} e^{lam y}, leaving a non-oscillatory
    integral over (r, y) for nested adaptive quadrature on a finite box."""
    def inner(r):
        def f(y):
            c = math.cosh(r) * math.cosh(y)
            a = math.acosh(c)
            amp = a / math.sqrt(c * c - 1.0) if c * c - 1.0 > 1e-12 else 1.0
            return math.exp(-a * a / (2.0 * t)) * amp * math.cosh(lam * y)

        v, _ = quad(f, 0.0, 60.0, epsabs=0.0, epsrel=1e-13, limit=200)
        return 2.0 * math.pi * math.sinh(2.0 * r) * v  # y-integrand is even

    r_max = t + 14.0 * math.sqrt(t) + 10.0
    v, _ = quad(inner, 0.0, r_max, epsabs=0.0, epsrel=1e-13, limit=200)
    return (math.exp(-t / 2.0) / (2.0 * math.pi * t) ** 2
            * math.sqrt(2.0 * math.pi * t) * math.exp(-lam * lam * t / 2.0) * v)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestCh1AreaCfOracle:
    @pytest.mark.parametrize("lam,t", [(0.5, 1.0), (1.0, 1.0), (0.5, 4.0),
                                       (0.5, 6.0), (2.0, 0.5)])
    def test_matches_closed_form_theta_integral(self, lam, t):
        v = ch_area_cf(1, lam, t)
        assert v.value == pytest.approx(_ch1_area_cf_oracle(lam, t), abs=1e-9)
        assert v.est_error <= 1e-9


class TestChnJointDensity:
    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            chn_joint_density(0, 1.0, 0.5, 0.0)

    def test_positive_even_decaying(self):
        v0 = chn_joint_density(2, 1.0, 0.5, 0.0).value
        v1 = chn_joint_density(2, 1.0, 0.5, 1.5).value
        v1m = chn_joint_density(2, 1.0, 0.5, -1.5).value
        assert v0 > v1 > 0
        assert v1 == pytest.approx(v1m, rel=1e-10)

    def test_error_estimate_small(self):
        v = chn_joint_density(2, 1.0, 0.8, 0.5)
        assert v.est_error < 1e-6 * max(abs(v.value), 1e-30)


def _heat_kernel_reference(n, t, delta):
    """F_n(delta) = (-d/dv)^n e^{-arcosh(1+v)^2/2t} at v = cosh(delta) - 1,
    by 40-digit mpmath differentiation with a step relative to v."""
    t = mp.mpf(t)
    v0 = mp.cosh(mp.mpf(delta)) - 1
    f = lambda v: mp.exp(-mp.re(mp.acosh(1 + v) ** 2) / (2 * t))
    return (-1) ** n * mp.diff(f, v0, n, h=v0 * mp.mpf(2) ** -60)


class TestHeatKernel:
    def test_term_counts(self):
        assert [len(hyperbolic_kernels._terms(n)) for n in range(1, 5)] == [
            1, 3, 6, 11]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_mpmath_derivative(self, n):
        # across the switch to the Taylor series at delta_0 = min(sqrt t, 1)
        with mp.workdps(40):
            for t in (0.01, 0.1, 1.0, 10.0, 100.0):
                for delta in np.geomspace(1e-8, 30.0, 25):
                    ref = _heat_kernel_reference(n, t, float(delta))
                    if abs(ref) <= mp.mpf("1e-280"):
                        continue
                    v = float(mp.cosh(mp.mpf(float(delta))) - 1)
                    got = _kernel(n, t, np.array([v]), 0.0)[0]
                    assert abs(got / ref - 1) <= 1e-12, (t, delta)

    @pytest.mark.parametrize("t", [0.5, 1.0, 4.0])
    def test_n1_is_the_ch1_magnitude(self, t):
        # _ch1_magnitude's amplitude a / sqrt(c^2 - 1) is t e^{a^2/2t} F_1(a)
        y = np.linspace(-30.0, 30.0, 301)
        for r in (0.0, 0.4, 2.5):
            v = np.cosh(r) * np.cosh(y) - 1.0
            got = t * _kernel(1, t, v, (y * y - 0.49) / (2.0 * t))
            np.testing.assert_allclose(got, _ch1_magnitude(y, t, r, 0.7),
                                       rtol=1e-12)


def _chn_segment_inner(n, t, z, panels_per_unit=16):
    """The inner u-integral of the earlier n >= 2 double quadrature at
    cosh r cosh y = z, its integrand kept verbatim."""
    U = math.acosh(z) + t + 12.0 * math.sqrt(t) + 4.0
    u, wu = _gauss_panels(0.0, U, max(8, int(round(U * panels_per_unit))))
    inner_num = (np.exp(-u * u / (2.0 * t)) * np.sinh(u)
                 * np.sin(math.pi * u / t) * wu)
    coshu = np.cosh(u)
    return float((inner_num / (coshu + z) ** (n + 1)).sum())


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("t", [1.0, 2.0])
def test_u_integral_is_the_heat_kernel(n, t):
    # int e^{-u^2/2t} sinh u sin(pi u/t) / (cosh u + cosh delta)^{n+1} du
    # = (pi / n!) e^{-pi^2/2t} F_n(delta): the earlier kernel's prefactor
    # e^{pi^2/2t} cancels against it
    for z in (1.3, 2.0, 5.0, 20.0):
        closed = (math.pi / math.factorial(n) * math.exp(-math.pi ** 2 / (2 * t))
                  * _kernel(n, t, np.array([z - 1.0]), 0.0)[0])
        assert _chn_segment_inner(n, t, z) == pytest.approx(closed, rel=1e-9)


def _chn_joint_density_reference(n, t, r, theta):
    """p_t(r, theta) by a 40-digit mpmath y-quadrature of
    e^{(y^2 - theta^2)/2t} cos(y theta/t) F_n over |y| <= 30."""
    with mp.workdps(40):
        t, r, theta = mp.mpf(t), mp.mpf(r), mp.mpf(theta)

        def f(y):
            v = mp.cosh(r) * mp.cosh(y) - 1
            F = mp.diff(lambda x: mp.exp(-mp.re(mp.acosh(1 + x) ** 2) / (2 * t)),
                        v, n, h=(v + mp.mpf(10) ** -30) * mp.mpf(2) ** -60)
            return ((-1) ** n * F * mp.cos(y * theta / t)
                    * mp.exp((y * y - theta * theta) / (2 * t)))

        integral = 2 * mp.quad(f, mp.linspace(0, 30, 16))
        return (mp.exp(-n * n * t / 2) / ((2 * mp.pi) ** (n + 1) * t)
                * integral)


@pytest.mark.parametrize("t,r,theta", [
    (0.1, 0.5, 0.3), (0.25, 0.3, 0.7), (0.5, 0.0, 1.0), (1.0, 0.5, 0.3),
    (1.0, 0.8, 0.5), (2.0, 0.2, 1.5)])
def test_chn_joint_density_matches_mpmath(t, r, theta):
    # the earlier double quadrature missed (1, 0.5, 0.3), (2, 0.2, 1.5) and
    # (1, 0.8, 0.5) by 2.4e-10, 1.1e-13 and 3.6e-11 and raised at t <= 0.5,
    # where its prefactor e^{pi^2/2t} cancelled against the u-integral
    v = chn_joint_density(2, t, r, theta)
    assert abs(v.value - _chn_joint_density_reference(2, t, r, theta)) <= (
        v.est_error)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("t", [0.25, 1.0, 4.0, 6.0])
def test_area_cf_unit_mass(n, t):
    v = ch_area_cf(n, 0.0, t)
    assert v.value == pytest.approx(1.0, abs=1e-9)
    assert v.est_error <= 1e-9
