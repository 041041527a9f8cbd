import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from spaceform_areas import (
    JointDensityValue,
    QuadratureControl,
    QuadratureFailureError,
    WindowExhaustedError,
    ch1_area_cf,
    ch1_joint_density,
    ch1_loop_area_density,
    ch1_loop_slice,
    chn_joint_density,
)
from spaceform_areas import hyperbolic_kernels
from spaceform_areas.hyperbolic_kernels import (
    _ch1_magnitude,
    _ch1_tail_bound,
    _ch1_window,
)

CTL = QuadratureControl()


class TestCh1JointDensity:
    def test_loop_slice_matches_quadrature(self):
        for th in (-2.5, -1.0, 0.0, 0.7, 3.0):
            q = ch1_joint_density(1.0, 0.0, th, CTL).value
            closed = float(ch1_loop_slice(1.0, th))
            assert q == pytest.approx(closed, rel=1e-8)

    def test_even_in_theta(self):
        a = ch1_joint_density(0.8, 0.6, 1.3, CTL).value
        b = ch1_joint_density(0.8, 0.6, -1.3, CTL).value
        assert a == pytest.approx(b, rel=1e-12)

    def test_positive_and_decaying_in_theta(self):
        vals = [ch1_joint_density(1.0, 0.5, th, CTL).value
                for th in (0.0, 1.0, 2.0, 4.0)]
        assert all(v > 0 for v in vals)
        assert vals[0] > vals[1] > vals[2] > vals[3]

    def test_theta_marginal_is_radial_heat_kernel_mass(self):
        # integrating the area out at fixed r recovers a probability density
        # in r (weighted by pi sinh 2r); spot-check the total mass over a
        # truncated (r, theta) box is slightly below 1
        def inner(r):
            f = lambda th: ch1_joint_density(1.0, r, th, CTL).value
            v, _ = quad(f, 0.0, 10.0, limit=100)
            return 2.0 * v * math.pi * math.sinh(2.0 * r)

        total, _ = quad(inner, 0.0, 6.0, limit=60)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ch1_joint_density(-1.0, 0.5, 0.0, CTL)
        with pytest.raises(ValueError):
            ch1_joint_density(1.0, -0.5, 0.0, CTL)

    def test_window_exhaustion_raises(self):
        tight = QuadratureControl(rel_tol=1e-9, abs_tol=1e-11,
                                  max_window=1.0, max_subdivisions=200)
        with pytest.raises(WindowExhaustedError):
            ch1_joint_density(1.0, 0.5, 0.3, tight)

    @pytest.mark.parametrize("t", [0.1, 1.0, 4.0])
    def test_window_stops_near_first_sufficient(self, t):
        # at r = 0, theta = 0 the smallest window with tail bound below
        # 1e-12 is about 32.75 for every t; doubling from 4 sqrt t jumped
        # past it to the cap of 60
        target = CTL.abs_tol / 10.0
        W = hyperbolic_kernels._ch1_window(t, 0.0, 0.0, target, CTL)
        assert W <= 40.0
        assert hyperbolic_kernels._ch1_tail_bound(W, t, 0.0, 0.0) <= target
        assert hyperbolic_kernels._ch1_tail_bound(W - 1.0, t, 0.0, 0.0) > target


def _ch1_integrand(y, t: float, r: float, theta: float):
    """Real and imaginary parts of the n=1 y-integrand.

    The complex factor e^{(y - i theta)^2 / 2t} splits into
    e^{(y^2 - theta^2)/2t} (cos(y theta / t) - i sin(y theta / t)).
    """
    mag = _ch1_magnitude(y, t, r, theta)
    phase = y * theta / t
    return mag * np.cos(phase), -mag * np.sin(phase)


def _ch1_joint_density_quad(t: float, r: float, theta: float,
                            ctl: QuadratureControl = QuadratureControl()) -> JointDensityValue:
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
    W = _ch1_window(t, r, theta, max(ctl.abs_tol / 10.0, 1e-17 * scale), ctl)
    epsabs = max(1e-300, 1e-14 * scale)
    with warnings.catch_warnings():
        # roundoff warnings are expected near machine precision; the final
        # error check below is authoritative
        warnings.simplefilter("ignore", IntegrationWarning)
        re, re_err = quad(lambda y: _ch1_integrand(y, t, r, theta)[0], -W, W,
                          epsabs=epsabs, epsrel=ctl.rel_tol,
                          limit=ctl.max_subdivisions)
        im, _ = quad(lambda y: _ch1_integrand(y, t, r, theta)[1], -W, W,
                     epsabs=epsabs, epsrel=ctl.rel_tol,
                     limit=ctl.max_subdivisions)
    pref = math.exp(-t / 2.0) / (2.0 * math.pi * t) ** 2
    if abs(pref * im) > max(ctl.abs_tol, 10.0 * ctl.rel_tol * abs(pref * re)):
        raise QuadratureFailureError(
            f"imaginary residue {pref * im} above tolerance"
        )
    err = pref * (re_err + _ch1_tail_bound(W, t, r, theta))
    val = pref * re
    if err > max(ctl.abs_tol, ctl.rel_tol * abs(val), 10.0 * epsabs * pref):
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
            new = ch1_joint_density(t, r, theta, CTL)
            old = _ch1_joint_density_quad(t, r, theta, CTL)
            assert abs(new.value - old.value) <= new.est_error + old.est_error


class TestCh1AreaCf:
    @pytest.mark.parametrize("t", [1.0, 4.0, 6.0])
    def test_unit_mass(self, t):
        # a fixed r <= 8, |theta| <= 12 box holds only 0.962 of the mass at
        # t = 4 and 0.719 at t = 6; the windows must grow with t
        v = ch1_area_cf(0.0, t, CTL)
        assert v.value == pytest.approx(1.0, abs=1e-9)
        assert v.est_error <= 1e-9

    def test_y_window_cap_raises(self):
        with pytest.raises(WindowExhaustedError):
            ch1_area_cf(0.5, 1.0, QuadratureControl(max_window=2.0))

    def test_box_cap_raises(self):
        # the y-window fits under the cap, but r(25) ~ 25 + N(0, 25) does not
        with pytest.raises(WindowExhaustedError):
            ch1_area_cf(0.5, 25.0, QuadratureControl(max_window=40.0))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ch1_area_cf(0.5, 0.0, CTL)
        with pytest.raises(ValueError):
            ch1_area_cf(math.nan, 1.0, CTL)


def _ch1_area_cf_oracle(lam, t):
    """ch1_area_cf with the theta-integral in closed form,
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
        v = ch1_area_cf(lam, t, CTL)
        assert v.value == pytest.approx(_ch1_area_cf_oracle(lam, t), abs=1e-9)
        assert v.est_error <= 1e-9


class TestChnJointDensity:
    def test_requires_n_at_least_two(self):
        with pytest.raises(ValueError):
            chn_joint_density(1, 1.0, 0.5, 0.0, CTL)

    def test_positive_even_decaying(self):
        v0 = chn_joint_density(2, 1.0, 0.5, 0.0, CTL).value
        v1 = chn_joint_density(2, 1.0, 0.5, 1.5, CTL).value
        v1m = chn_joint_density(2, 1.0, 0.5, -1.5, CTL).value
        assert v0 > v1 > 0
        assert v1 == pytest.approx(v1m, rel=1e-10)

    def test_error_estimate_small(self):
        v = chn_joint_density(2, 1.0, 0.8, 0.5, CTL)
        assert v.est_error < 1e-6 * max(abs(v.value), 1e-30)


class TestLoopAreaDensity:
    def test_normalized(self):
        total, _ = quad(lambda th: float(ch1_loop_area_density(1.0, th, CTL)),
                        -40.0, 40.0, limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_proportional_to_loop_slice(self):
        # same shape as the r=0 kernel slice, rescaled to unit mass
        ths = np.array([-2.0, -0.5, 0.5, 1.5])
        d = np.array([float(ch1_loop_area_density(1.0, t, CTL)) for t in ths])
        s = ch1_loop_slice(1.0, ths)
        ratio = d / s
        assert np.allclose(ratio, ratio[0], rtol=1e-10)
