import math

import numpy as np
import pytest
from scipy.integrate import quad

from spaceform_areas import (
    Geometry,
    JacobiParams,
    cf_conditional_cp,
    cf_marginal_cp,
    levy_cf,
    spherical_density,
    winding_limit_cf,
)


class TestCfConditional:
    def test_lambda_zero_is_one(self):
        assert cf_conditional_cp(1, 0.0, 1.0, 0.7) == 1.0

    def test_in_unit_interval(self):
        for r in (0.2, 0.7, 1.2):
            v = cf_conditional_cp(2, 1.0, 0.8, r)
            assert 0.0 < v <= 1.0

    def test_integrates_to_marginal(self):
        # E[CF | r] integrated against the radial law recovers the marginal
        n, lam, t = 1, 1.0, 0.8
        p0 = JacobiParams(float(n - 1), 0.0)
        val, _ = quad(
            lambda r: cf_conditional_cp(n, lam, t, r)
            * spherical_density(p0, t, 0.0, r).value,
            0.0, math.pi / 2.0 - 1e-9, epsabs=1e-12, epsrel=1e-10, limit=200)
        assert val == pytest.approx(
            cf_marginal_cp(n, lam, t), rel=1e-8)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            cf_conditional_cp(1, -1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            cf_conditional_cp(1, 1.0, 1.0, 2.0)


class TestCfMarginalCp:
    def test_bounds_and_monotonicity_in_lambda(self):
        vals = [cf_marginal_cp(1, lam, 1.0)
                for lam in (0.0, 0.5, 1.0, 2.0)]
        assert vals[0] == 1.0
        assert all(0.0 < v <= 1.0 for v in vals)
        assert vals[0] > vals[1] > vals[2] > vals[3]

    def test_even_in_lambda(self):
        assert cf_marginal_cp(1, -1.0, 1.0) == pytest.approx(
            cf_marginal_cp(1, 1.0, 1.0), rel=1e-12)

    def test_cauchy_limit(self):
        # t -> infinity: CF of theta(t)/t approaches e^{-n lam}
        for n in (1, 2):
            v = cf_marginal_cp(n, 1.0 / 50.0, 50.0)
            assert v == pytest.approx(math.exp(-n), abs=5e-3)


class TestLevyCf:
    def test_at_origin_is_sech_like(self):
        # conditional CF at z = 0: lam t / sinh(lam t)
        u = 0.7
        assert levy_cf(0.7, 1.0, 0j) == pytest.approx(u / math.sinh(u),
                                                      rel=1e-14)

    def test_small_lambda_expansion_continuous(self):
        lo = levy_cf(0.999e-6, 1.0, 1.0 + 1.0j)
        hi = levy_cf(1.001e-6, 1.0, 1.0 + 1.0j)
        assert lo == pytest.approx(hi, rel=1e-9)

    def test_lambda_zero_is_one(self):
        assert levy_cf(0.0, 2.0, 3.0 + 4.0j) == 1.0

    def test_depends_on_modulus_only(self):
        a = levy_cf(1.0, 1.0, complex(0.6, 0.8))
        b = levy_cf(1.0, 1.0, complex(1.0, 0.0))
        assert a == pytest.approx(b, rel=1e-14)

    def test_unconditional_integral_is_sech(self):
        # averaging over the Gaussian endpoint gives 1/cosh(lam t)
        lam, t = 1.0, 1.0
        x, w = np.polynomial.laguerre.laggauss(64)
        vals = sum(wi * levy_cf(lam, t, complex(math.sqrt(2.0 * t * s)))
                   for s, wi in zip(x, w))
        assert vals == pytest.approx(1.0 / math.cosh(lam * t), rel=1e-10)

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            levy_cf(1.0, 0.0, 0j)


class TestWindingLimitCf:
    def test_cp1_is_cauchy_two(self):
        assert winding_limit_cf(Geometry.cp(1), 0.7, 1.0) == pytest.approx(
            math.exp(-2.0), rel=1e-14)
        assert winding_limit_cf(Geometry.cp(1), 0.2, -1.5) == pytest.approx(
            math.exp(-3.0), rel=1e-14)

    def test_ch1_is_tanh_power(self):
        assert winding_limit_cf(Geometry.ch(1), 1.0, 2.0) == pytest.approx(
            math.tanh(1.0) ** 2, rel=1e-14)

    def test_only_n1(self):
        with pytest.raises(ValueError):
            winding_limit_cf(Geometry.cp(2), 0.5, 1.0)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            winding_limit_cf(Geometry.cp(1), 0.0, 1.0)
        with pytest.raises(ValueError):
            winding_limit_cf(Geometry.ch(1), -1.0, 1.0)
