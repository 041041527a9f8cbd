import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spaceform_areas import JacobiParams, jacobi_poly
from spaceform_areas.specfun import _rodrigues_jacobi, jacobi_endpoint_bound


class TestJacobiParams:
    def test_rejects_alpha_at_or_below_minus_one(self):
        with pytest.raises(ValueError):
            JacobiParams(-1.0, 0.0)
        with pytest.raises(ValueError):
            JacobiParams(0.0, -1.5)


class TestJacobiPoly:
    def test_degree_zero_is_one(self):
        # degree-0 polynomial is identically 1
        assert jacobi_poly(0, JacobiParams(0.7, 2.1), 0.3) == 1.0

    def test_legendre_degree_one(self):
        # alpha = beta = 0 reduces to Legendre: P_1(x) = x
        assert jacobi_poly(1, JacobiParams(0.0, 0.0), 0.5) == pytest.approx(
            0.5, abs=1e-15)

    # values frozen from a 40-digit Rodrigues-formula oracle
    @pytest.mark.parametrize("m,a,b,x,expected", [
        (3, 1.0, 0.5, -0.2, 0.28750000000000003),
        (5, 0.7, 2.1, 0.3, 0.57103575436),
        (6, 2.0, 1.3, -0.9, 1.455903959613734),
        (2, 0.0, 1.0, 0.8, 0.30000000000000016),
    ])
    def test_against_rodrigues_oracle(self, m, a, b, x, expected):
        assert jacobi_poly(m, JacobiParams(a, b), x) == pytest.approx(
            expected, abs=1e-10)

    def test_value_at_one_matches_closed_form(self):
        # the endpoint bound is the larger of |P_m(1)| = binom(m+alpha, m)
        # and |P_m(-1)| = binom(m+beta, m)
        for m in range(9):
            p = JacobiParams(1.3, 0.4)
            ends = max(abs(jacobi_poly(m, p, 1.0)),
                       abs(jacobi_poly(m, p, -1.0)))
            assert jacobi_poly(m, p, 1.0) == ends
            assert ends == pytest.approx(
                jacobi_endpoint_bound(m, p.alpha, p.beta), rel=1e-12)

    def test_domain_errors(self):
        p = JacobiParams(0.0, 0.0)
        with pytest.raises(ValueError):
            jacobi_poly(2, p, 1.5)
        with pytest.raises(ValueError):
            jacobi_poly(-1, p, 0.0)

    def test_orthogonality(self):
        # quadrature of P_m P_m' against (1+x)^b (1-x)^a vanishes off the
        # diagonal, relative to the diagonal norm
        from scipy.integrate import quad
        for a in (0.0, 0.5, 2.0):
            for b in (0.0, 1.0):
                p = JacobiParams(a, b)
                for m in range(0, 6):
                    for mp_ in range(m + 1, 7):
                        w = lambda x: (1 + x) ** b * (1 - x) ** a
                        off, _ = quad(lambda x: jacobi_poly(m, p, x)
                                      * jacobi_poly(mp_, p, x) * w(x),
                                      -1, 1, limit=200)
                        diag, _ = quad(lambda x: jacobi_poly(m, p, x) ** 2
                                       * w(x), -1, 1, limit=200)
                        assert abs(off) <= 1e-10 * diag

    @given(st.integers(0, 10),
           st.floats(-0.99, 0.99),
           st.floats(-0.9, 3.0),
           st.floats(-0.9, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_three_term_recurrence_consistency(self, m, x, a, b):
        # P_m evaluated twice is deterministic and finite on [-1, 1]
        p = JacobiParams(a, b)
        v = jacobi_poly(m, p, x)
        assert math.isfinite(v)
        assert v == jacobi_poly(m, p, x)

    def test_array_matches_scalar_bits(self):
        # arrays and scalars go through the same recurrence arithmetic
        xs = np.linspace(-1.0, 1.0, 9)
        p = JacobiParams(0.7, 2.1)
        for m in range(12):
            arr = jacobi_poly(m, p, xs)
            assert arr.shape == xs.shape
            assert arr.tolist() == [jacobi_poly(m, p, float(x)) for x in xs]


class TestRodriguesOracle:
    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, 0.5),
                                            (0.7, 2.1), (2.0, 1.3),
                                            (0.25, 3.5)])
    def test_equals_mpmath_jacobi(self, alpha, beta):
        # the Leibniz-rule derivative against mpmath's hypergeometric
        # Jacobi polynomial, both at 40 digits: equal after rounding
        for m in range(13):
            for x in (-0.95, -0.4, 0.1, 0.35, 0.9):
                with mp.workdps(40):
                    want = float(mp.jacobi(m, alpha, beta, x))
                assert _rodrigues_jacobi(m, alpha, beta, x) == want
