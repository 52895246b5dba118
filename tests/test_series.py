import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parastar import (
    NonzeroConstantTerm,
    ParamRange,
    PowerSeries,
    extremal_lower,
    extremal_upper,
    integrate_over_t,
    left_parabola,
    p0_coefficients,
    series_exp,
)

PI = math.pi


class TestKernelCoefficients:
    def test_first_coefficient(self):
        assert abs(p0_coefficients(1).coeffs[1] - (-8.0 / PI**2)) < 1e-16

    def test_second_coefficient(self):
        # -(8/pi^2) (1/2)(1 + 1/3) = -16/(3 pi^2)
        assert abs(p0_coefficients(2).coeffs[2] - (-16.0 / (3.0 * PI**2))) < 1e-15

    def test_against_squared_artanh_series(self):
        # independent route: log((1+w)/(1-w)) = 2 sum w^{2k+1}/(2k+1), so the
        # kernel is -(8/pi^2) z S(z)^2 with S = sum z^k/(2k+1)
        n = 24
        s = PowerSeries([1.0 / (2 * k + 1) for k in range(n)])
        sq = (s * s).coeffs
        expected = np.zeros(n + 1, dtype=complex)
        expected[1:] = -(8.0 / PI**2) * sq[:n]
        assert np.max(np.abs(p0_coefficients(n).coeffs - expected)) < 1e-15

    def test_all_real_negative(self):
        c = p0_coefficients(50).coeffs[1:]
        assert np.all(c.imag == 0.0)
        assert np.all(c.real < 0.0)

    def test_rejects_zero_degree(self):
        with pytest.raises(ParamRange):
            p0_coefficients(0)


class TestSeriesOps:
    def test_exp_of_zero(self):
        e = series_exp(PowerSeries([0.0, 0.0]))
        assert np.allclose(e.coeffs, [1.0, 0.0])

    def test_exp_of_z(self):
        e = series_exp(PowerSeries([0.0, 1.0, 0.0, 0.0]))
        assert np.allclose(e.coeffs, [1.0, 1.0, 0.5, 1.0 / 6.0], atol=1e-15)

    def test_exp_requires_zero_constant(self):
        with pytest.raises(NonzeroConstantTerm):
            series_exp(PowerSeries([1.0, 1.0]))

    def test_integrate_monomials(self):
        assert np.allclose(integrate_over_t(PowerSeries([0, 1.0])).coeffs, [0, 1.0])
        assert np.allclose(integrate_over_t(PowerSeries([0, 0, 1.0])).coeffs, [0, 0, 0.5])

    def test_integrate_requires_zero_constant(self):
        with pytest.raises(NonzeroConstantTerm):
            integrate_over_t(PowerSeries([2.0, 1.0]))

    def test_integrated_kernel_leading_term(self):
        out = integrate_over_t(p0_coefficients(4))
        assert abs(out.coeffs[1] - (-8.0 / PI**2)) < 1e-16

    def test_truncation_policy(self):
        a = PowerSeries([1.0, 2.0, 3.0, 4.0])
        b = PowerSeries([1.0, 1.0])
        assert (a + b).degree == 1
        assert (a * b).degree == 1
        assert np.allclose((a * b).coeffs, [1.0, 3.0])

    def test_evaluation_horner(self):
        p = PowerSeries([1.0, -2.0, 0.5])
        z = 0.3 + 0.4j
        assert abs(p(z) - (1.0 - 2.0 * z + 0.5 * z**2)) < 1e-15


class TestExtremals:
    def test_lower_normalisation(self):
        f = extremal_lower(6)
        assert f.coeffs[0] == 0.0
        assert f.coeffs[1] == 1.0

    def test_lower_second_coefficient(self):
        # exp recurrence gives e_1 = s_1, so a_2 = -8/pi^2
        assert abs(extremal_lower(4).coeffs[2] - (-8.0 / PI**2)) < 1e-15

    def test_upper_matches_printed_expansion(self):
        g = extremal_upper(4).coeffs
        assert abs(g[2] - 8.0 / PI**2) < 1e-15
        assert abs(g[3] - (-8.0 * (PI**2 - 12.0) / (3.0 * PI**4))) < 1e-15
        assert abs(g[4] - 8.0 * (1440.0 - 360.0 * PI**2 + 23.0 * PI**4) / (135.0 * PI**6)) < 1e-15

    def test_upper_is_reflected_lower(self):
        f = extremal_lower(12).coeffs
        g = extremal_upper(12).coeffs
        signs = (-1.0) ** (np.arange(13) + 1)
        assert np.max(np.abs(g - f * signs)) < 1e-15

    def test_defining_ode_coefficientwise(self):
        # z f' = f * (1 + kernel), coefficient by coefficient
        n = 32
        f = extremal_lower(n)
        lp = p0_coefficients(n) + 1.0
        resid = f.z_times_derivative().coeffs[:n] - (f * lp).coeffs[:n]
        assert np.max(np.abs(resid)) < 1e-12

    def test_log_derivative_matches_map_on_grid(self):
        f = extremal_lower(64)
        fp = f.derivative()
        rng = np.random.default_rng(11)
        z = 0.3 * rng.uniform(0.2, 1.0, 20) * np.exp(1j * rng.uniform(-PI, PI, 20))
        lhs = z * fp(z) / f(z)
        assert np.max(np.abs(lhs - left_parabola(z))) < 1e-12

    def test_real_coefficients(self):
        for s in (extremal_lower(40), extremal_upper(40)):
            assert np.max(np.abs(s.coeffs.imag)) < 1e-14
