import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import ndtr, ndtri
from scipy.stats import kstest

from spaceform_areas import (
    CfEstimate,
    empirical_cf,
    ks_statistic,
)

finite_samples = arrays(
    np.float64, st.integers(2, 200),
    elements=st.floats(-50, 50, allow_nan=False))


class TestCfEstimate:
    def test_rejects_negative_se(self):
        with pytest.raises(ValueError):
            CfEstimate(complex(1.0), -0.1)


@pytest.mark.parametrize("x", [np.zeros((2, 2)), np.array([])],
                         ids=["2d", "empty"])
@pytest.mark.parametrize("stat", [lambda x: empirical_cf(x, 1.0),
                                  lambda x: ks_statistic(x, ndtr)],
                         ids=["empirical_cf", "ks_statistic"])
def test_rejects_non_1d_or_empty_samples(stat, x):
    with pytest.raises(ValueError, match="1-D"):
        stat(x)


class TestEmpiricalCf:
    def test_lambda_zero_is_exactly_one(self):
        c = empirical_cf(np.array([1.0, -3.0, 7.0]), 0.0)
        assert c.value == 1.0 + 0j
        assert c.std_error == 0.0

    def test_constant_samples(self):
        x = np.full(100, 0.7)
        c = empirical_cf(x, 2.0)
        assert c.value == pytest.approx(np.exp(1.4j), abs=1e-12)
        assert c.std_error == pytest.approx(0.0, abs=1e-12)

    def test_se_scales_with_sample_size(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(40000)
        c_small = empirical_cf(x[:10000], 1.0)
        c_big = empirical_cf(x, 1.0)
        assert c_big.std_error == pytest.approx(c_small.std_error / 2.0,
                                                rel=0.1)

    @given(finite_samples, st.floats(-5, 5, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_modulus_bound_and_symmetry(self, x, lam):
        c = empirical_cf(x, lam)
        assert abs(c.value) <= 1.0 + 1e-9
        assert c.value == pytest.approx(
            complex(empirical_cf(x, -lam).value).conjugate(), abs=1e-12)


class TestKsStatistic:
    def test_normal_samples_accepted(self):
        rng = np.random.default_rng(7)
        d, p = ks_statistic(rng.standard_normal(5000), ndtr)
        assert p > 0.01
        assert 0.0 <= d <= 1.0

    def test_wrong_law_rejected(self):
        rng = np.random.default_rng(8)
        d, p = ks_statistic(rng.standard_normal(5000) + 0.5, ndtr)
        assert p < 1e-6

    def test_matches_scipy_kstest(self):
        # D and the asymptotic p agree with scipy's bit for bit; scipy's
        # default p is the exact finite-n law, which the asymptotic p
        # exceeds by 1.3e-3, 2.1e-3 and 9.8e-4 at seeds 0, 1 and 2
        for seed in range(3):
            x = np.random.default_rng(seed).normal(0.0, 1.01, 10000)
            d, p = ks_statistic(x, ndtr)
            ref = kstest(x, "norm")
            assert d == pytest.approx(ref.statistic, abs=1e-15)
            assert p == pytest.approx(
                kstest(x, "norm", method="asymp").pvalue, abs=1e-15)
            assert p == pytest.approx(ref.pvalue, abs=3e-3)

    def test_quantile_grid_has_p_one(self):
        # the normal quantiles at (i - 1/2)/n sit D = 1/(2n) from N(0, 1):
        # at ch-gaussian-limit's 10,000 paths sqrt(n) D = 0.005, where the
        # Kolmogorov survival function is 1 to double precision
        n = 10000
        x = ndtri((np.arange(1, n + 1) - 0.5) / n)
        d, p = ks_statistic(x, ndtr)
        assert d == pytest.approx(0.5 / n, rel=1e-9)
        assert p == 1.0

    def test_rejects_invalid_cdf(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([0.1, 0.2, 0.3]),
                         lambda x: np.asarray(x) * 10.0)

    @given(finite_samples)
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_monotone_shift(self, x):
        # applying the true CDF transform leaves D invariant: compare
        # against a shifted copy through a shifted CDF
        d1, _ = ks_statistic(x, lambda v: ndtr(v / 2.0))
        d2, _ = ks_statistic(x + 1.0, lambda v: ndtr((v - 1.0) / 2.0))
        assert d1 == pytest.approx(d2, abs=1e-12)
