import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_chebyu

from coagchain import ScaledValue, chebyshev_u_pair_scaled


def _bits(v) -> int:
    return int(np.float64(v).view(np.int64))


def u_values(n, x):
    """U_n and U_{n-1} at each x, as plain floats."""
    u_n, u_nm1, exp2 = chebyshev_u_pair_scaled(n, np.asarray(x, dtype=float))
    return np.ldexp(u_n, exp2), np.ldexp(u_nm1, exp2)


class TestScaledValue:
    def test_sign_and_float(self):
        v = ScaledValue(-1.5, 10)
        assert v.sign == -1
        assert v.to_float() == -1536.0
        assert ScaledValue(0.0, 3).sign == 0

    def test_overflow_saturates(self):
        assert ScaledValue(1.5, 5000).to_float() == math.inf
        assert ScaledValue(-1.5, 5000).to_float() == -math.inf


class TestChebyshevU:
    def test_u2_root(self):
        # U_2(x) = 4x^2 - 1 vanishes at 1/2
        assert u_values(2, [0.5])[0][0] == 0.0

    def test_low_orders(self):
        u0, u_m1 = u_values(0, [0.3])
        assert u0[0] == 1.0 and u_m1[0] == 0.0
        u1, u0 = u_values(1, [0.3])
        assert u1[0] == pytest.approx(0.6) and u0[0] == 1.0
        assert u_values(-1, [0.7])[0][0] == 0.0

    @pytest.mark.parametrize("n", [3, 10, 59])
    def test_matches_sine_form_inside_band(self, n):
        # U_n(cos x) = sin((n+1)x)/sin(x)
        x = np.linspace(0.05, math.pi - 0.05, 25)
        np.testing.assert_allclose(u_values(n, np.cos(x))[0],
                                   np.sin((n + 1) * x) / np.sin(x),
                                   rtol=1e-10, atol=1e-10)

    def test_interior_quantized_points(self):
        # the band points cos(pi/(2L)) used by the secular equation
        for L in (5, 30, 60):
            x = math.pi / (2 * L)
            expected = math.sin(L * x) / math.sin(x)
            assert u_values(L - 1, [math.cos(x)])[0][0] == pytest.approx(
                expected, rel=1e-10)

    def test_matches_scipy_small_orders(self):
        rng = np.random.default_rng(7)
        for n in range(8):
            x = rng.uniform(-2, 2, 10)
            np.testing.assert_allclose(u_values(n, x)[0], eval_chebyu(n, x),
                                       rtol=1e-12, atol=1e-12)

    def test_growth_regime_no_overflow(self):
        # U_n(cosh t) = sinh((n+1)t)/sinh(t); compare exponents at an
        # argument where the plain recurrence would overflow doubles
        t = math.acosh(30.0)
        n = 599
        u_n, u_nm1, exp2 = chebyshev_u_pair_scaled(n, np.array([30.0]))
        log2_val = math.log2(abs(u_n[0])) + exp2[0]
        # log2(sinh((n+1)t)/sinh t) = ((n+1)t - log(2) - log(sinh t))/log(2)
        expected = ((n + 1) * t - math.log(2) - math.log(math.sinh(t))) \
            / math.log(2)
        assert log2_val == pytest.approx(expected, rel=1e-12)
        assert np.isfinite(u_n[0]) and np.isfinite(u_nm1[0])

    def test_pair_consistency(self):
        x = np.array([0.3, 1.7, -2.5])
        u_n, u_nm1 = u_values(6, x)
        np.testing.assert_allclose(u_n, eval_chebyu(6, x), rtol=1e-12)
        np.testing.assert_allclose(u_nm1, eval_chebyu(5, x), rtol=1e-12)


class TestScalarPath:
    @given(x=st.floats(-60.0, 60.0),
           others=st.lists(st.floats(-60.0, 60.0), max_size=5),
           n_pick=st.integers(0, 8), offset=st.integers(-1, 1))
    @settings(max_examples=300, deadline=None)
    def test_float_matches_array_bitwise(self, x, others, n_pick, offset):
        # n = -1 and 0, and one step before, at and after a multiple of
        # the renormalisation stride
        stride = max(1, int(900.0 / math.log2(2.0 * abs(x) + 4.0)))
        n = n_pick - 1 if n_pick < 2 else (n_pick - 1) * stride + offset
        u_n, u_nm1, exp2 = chebyshev_u_pair_scaled(n, x)
        assert isinstance(u_n, float) and isinstance(u_nm1, float)
        assert isinstance(exp2, int)
        for xs in ([x], [x] + others):
            a_n, a_nm1, a_exp2 = chebyshev_u_pair_scaled(n, np.array(xs))
            assert _bits(u_n) == _bits(a_n[0])
            assert _bits(u_nm1) == _bits(a_nm1[0])
            assert exp2 == int(a_exp2[0])
