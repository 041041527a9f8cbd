import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from spaceform_areas import (
    JacobiParams,
    SeriesNotConvergedError,
    TimeTooSmallError,
    berger_kernel,
    berger_limit_kernel,
    spherical_density,
    stationary_spherical_density,
)
from spaceform_areas import densities
from spaceform_areas.densities import _fiber_series


class TestSphericalDensity:
    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (1.0, 0.0), (1.0, 0.7),
                                     (2.0, 1.3)])
    @pytest.mark.parametrize("t", [0.2, 0.5, 2.0])
    def test_normalization(self, a, b, t):
        p = JacobiParams(a, b)
        total, _ = quad(lambda r: spherical_density(p, t, 0.0, r).value,
                        0.0, math.pi / 2.0, epsabs=1e-12, epsrel=1e-11,
                        limit=200)
        assert abs(total - 1.0) <= 1e-8

    def test_positive_on_grid(self):
        p = JacobiParams(1.0, 0.5)
        for r in np.linspace(0.05, math.pi / 2 - 0.05, 15):
            assert spherical_density(p, 0.5, 0.3, float(r)).value > 0.0

    def test_chapman_kolmogorov(self):
        # q_{t+s}(0, r) = int q_t(0, u) q_s(u, r) du
        p = JacobiParams(1.0, 0.0)
        t, s, r = 0.4, 0.3, 0.9
        lhs = spherical_density(p, t + s, 0.0, r).value
        rhs, _ = quad(
            lambda u: spherical_density(p, t, 0.0, u).value
            * spherical_density(p, s, u, r).value,
            0.0, math.pi / 2.0, epsabs=1e-12, epsrel=1e-10, limit=200)
        assert rhs == pytest.approx(lhs, rel=1e-8)

    def test_detailed_balance(self):
        # q_t(r0, r) / pi(r) is symmetric in (r0, r), pi the speed density
        p = JacobiParams(0.7, 1.2)
        r0, r, t = 0.5, 1.1, 0.6
        pi0 = float(stationary_spherical_density(p, r0))
        pi1 = float(stationary_spherical_density(p, r))
        q01 = spherical_density(p, t, r0, r).value
        q10 = spherical_density(p, t, r, r0).value
        assert q01 / pi1 == pytest.approx(q10 / pi0, rel=1e-10)

    def test_long_time_limit_is_stationary(self):
        p = JacobiParams(1.0, 0.5)
        for r in (0.3, 0.8, 1.3):
            q = spherical_density(p, 8.0, 0.2, r).value
            pi = float(stationary_spherical_density(p, r))
            assert q == pytest.approx(pi, rel=1e-6)

    def test_time_too_small_raises(self):
        with pytest.raises(TimeTooSmallError):
            spherical_density(JacobiParams(0.0, 0.0), 1e-5, 0.0, 0.5)

    def test_tail_estimate_reported(self):
        v = spherical_density(JacobiParams(1.0, 0.0), 0.5, 0.0, 0.7)
        assert 0 <= v.truncation_bound < 1e-10


class TestStationaryDensity:
    def test_normalization(self):
        p = JacobiParams(2.0, 1.3)
        total, _ = quad(lambda r: float(stationary_spherical_density(p, r)),
                        0.0, math.pi / 2.0, epsabs=1e-13, limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)


def _fiber_gap_bound(n, lam, t, r):
    """B(r) = pref sum_{k>=1} 2 e^{-k^2 lam^2 t/2} |cos r|^k A_k, where A_k
    bounds the inner m-series of fiber frequency k in absolute value; B
    bounds the k >= 1 terms that berger_kernel adds to berger_limit_kernel."""
    pref = math.gamma(n) / (2.0 * math.pi ** (n + 1))
    x, c = math.cos(2.0 * r), abs(math.cos(r))
    total = 0.0
    for k in range(1, densities.MAX_TERMS + 1):
        term = (2.0 * math.exp(-0.5 * k * k * lam * lam * t) * c ** k
                * _fiber_series(n, k, t, x)[2])
        total += term
        if term <= 1e-17 * total:
            break
    return pref * total


class TestBergerKernel:
    def test_homogenisation_monotone_in_stiffness(self):
        # the fiber terms die off as the stiffness grows
        lim = berger_limit_kernel(1, 0.5, 0.6).value
        diffs = [abs(berger_kernel(1, lam, 0.5, 0.6, 1.1).value - lim)
                 for lam in (1.0, 4.0, 16.0)]
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] < 1e-6

    def test_limit_at_large_stiffness(self):
        for r in (0.2, 0.7, 1.3):
            lim = berger_limit_kernel(1, 0.5, r).value
            v = berger_kernel(1, 50.0, 0.5, r, 2.0).value
            assert abs(v - lim) <= 1e-6

    def test_theta_periodicity(self):
        v1 = berger_kernel(1, 2.0, 0.5, 0.6, 0.7).value
        v2 = berger_kernel(1, 2.0, 0.5, 0.6, 0.7 + 2.0 * math.pi).value
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_normalization(self):
        lam, t, n = 2.0, 0.5, 1
        pref = 2.0 * math.pi ** n / math.gamma(n)

        def fiber_avg(r):
            vals = [berger_kernel(n, lam, t, r, th).value
                    for th in np.linspace(0, 2 * math.pi, 32, endpoint=False)]
            return float(np.mean(vals))

        total, _ = quad(
            lambda r: fiber_avg(r) * pref * math.sin(r) ** (2 * n - 1)
            * math.cos(r),
            0.0, math.pi / 2.0, epsabs=1e-11, epsrel=1e-10, limit=200)
        total *= 2.0 * math.pi
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("lam", [2.0, 5.0])
    def test_gap_within_fiber_bound(self, lam):
        # criterion-10's grid at moderate stiffness; at its stiffness of 50
        # the gap is exactly 0, so there the criterion tests no k >= 1 term
        n, t = 1, 0.5
        worst, worst_bound = 0.0, 0.0
        for r in np.linspace(0.12, 1.45, 5):
            lim = berger_limit_kernel(n, t, float(r))
            bound = _fiber_gap_bound(n, lam, t, float(r))
            for th in np.linspace(-2.0, 2.0, 5):
                v = berger_kernel(n, lam, t, float(r), float(th))
                gap = abs(v.value - lim.value)
                assert gap <= (bound + v.truncation_bound
                               + lim.truncation_bound)
                worst = max(worst, gap)
            worst_bound = max(worst_bound, bound)
        # the bound is nearly attained, so the check above is not vacuous
        assert worst >= 0.5 * worst_bound

    def test_fiber_bound_vanishes_at_large_stiffness(self):
        for r in np.linspace(0.12, 1.45, 5):
            assert _fiber_gap_bound(1, 50.0, 0.5, float(r)) < 1e-250

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            berger_kernel(0, 1.0, 0.5, 0.3, 0.0)
        with pytest.raises(ValueError):
            berger_kernel(1, -1.0, 0.5, 0.3, 0.0)


def _mp_series(coeff, a, b, t_rate, xs):
    """sum_m coeff(m) e^{-t_rate(m)} prod P_m^{a,b}(x) at 40 digits, summed
    until the terms are below 1e-35 (full convergence at these t)."""
    with mp.workdps(40):
        total, m = mp.mpf(0), 0
        while True:
            term = coeff(m) * mp.exp(-t_rate(m))
            for x in xs:
                term *= mp.jacobi(m, a, b, x)
            total += term
            if m > 5 and abs(term) < mp.mpf(10) ** -35:
                return total
            m += 1


def _mp_spherical(a, b, t, r0, r):
    a, b, t, r0, r = (mp.mpf(v) for v in (a, b, t, r0, r))
    s = _mp_series(
        lambda m: (2 * m + a + b + 1) * mp.gamma(m + a + b + 1)
        * mp.factorial(m) / (mp.gamma(m + a + 1) * mp.gamma(m + b + 1)),
        a, b, lambda m: 2 * m * (m + a + b + 1) * t,
        (mp.cos(2 * r0), mp.cos(2 * r)))
    return 2 * mp.cos(r) ** (2 * b + 1) * mp.sin(r) ** (2 * a + 1) * s


def _mp_berger_limit(n, t, r):
    t, r = mp.mpf(t), mp.mpf(r)
    s = _mp_series(lambda m: (2 * m + n) * mp.binomial(m + n - 1, n - 1),
                   n - 1, 0, lambda m: 2 * m * (m + n) * t, (mp.cos(2 * r),))
    return mp.gamma(n) / (2 * mp.pi ** (n + 1)) * s


class TestCertifiedTail:
    """|value - ref| <= truncation_bound + 1e-15 |ref| against a fully
    converged 40-digit sum of the same series."""

    @pytest.mark.parametrize("a,b,t,r0,r", [
        (0.0, 0.0, 0.01, 0.0, 0.2),
        (1.0, 0.5, 0.05, 0.4, 1.0),
        (2.0, 1.3, 0.2, 0.7, 0.75),
        (0.5, 3.0, 1.0, 0.1, 1.4),
        (1.0, 0.0, 1e-3, 0.3, 0.31),
        (3.0, 2.0, 5.0, 1.0, 0.2),
    ])
    def test_spherical_density(self, a, b, t, r0, r):
        v = spherical_density(JacobiParams(a, b), t, r0, r)
        ref = float(_mp_spherical(a, b, t, r0, r))
        assert ref > 0.0
        assert abs(v.value - ref) <= v.truncation_bound + 1e-15 * abs(ref)

    @pytest.mark.parametrize("n,t,r", [
        (1, 0.01, 0.3),
        (1, 0.5, 1.2),
        (2, 0.05, 0.7),
        (3, 0.2, 1.0),
        (1, 3.0, 0.1),
    ])
    def test_berger_limit_kernel(self, n, t, r):
        v = berger_limit_kernel(n, t, r)
        ref = float(_mp_berger_limit(n, t, r))
        assert ref > 0.0
        assert abs(v.value - ref) <= v.truncation_bound + 1e-15 * abs(ref)


class TestSeriesNotConverged:
    """Two terms cannot reach TAIL_TOL at t = MIN_TIME: every series raises
    instead of returning a partial sum."""

    T = densities.MIN_TIME

    @pytest.fixture(autouse=True)
    def two_terms(self, monkeypatch):
        monkeypatch.setattr(densities, "MAX_TERMS", 2)

    def test_spherical_density(self):
        with pytest.raises(SeriesNotConvergedError):
            spherical_density(JacobiParams(1.0, 0.5), self.T, 0.2, 0.9)

    def test_berger_limit_kernel(self):
        with pytest.raises(SeriesNotConvergedError):
            berger_limit_kernel(2, self.T, 0.5)

    def test_berger_kernel(self):
        with pytest.raises(SeriesNotConvergedError):
            berger_kernel(1, 2.0, self.T, 0.5, 0.3)
