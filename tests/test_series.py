import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parastar.errors import NonzeroConstantTerm, ParamRange
from parastar.maps import left_parabola
from parastar.series import (
    PowerSeries, extremal_lower, extremal_upper, integrate_over_t, p0_coefficients, series_exp,
)
from support import reference_horner

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
        s = 1.0 / (2.0 * np.arange(n) + 1.0)
        sq = np.convolve(s, s)
        expected = np.zeros(n + 1, dtype=complex)
        expected[1:] = -(8.0 / PI**2) * sq[:n]
        assert np.max(np.abs(p0_coefficients(n).coeffs - expected)) < 1e-15

    def test_all_real_negative(self):
        c = p0_coefficients(50).coeffs[1:]
        assert np.all(c.imag == 0.0)
        assert np.all(c.real < 0.0)

    def test_rejects_zero_degree(self):
        # the extremals take their degree check from the kernel series
        for build in (p0_coefficients, extremal_lower, extremal_upper):
            with pytest.raises(ParamRange, match="n_max must be at least 1"):
                build(0)


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

    def test_upper_matches_reflected_kernel_route(self):
        # the upper extremal is built from the lower one's coefficients; the
        # exp-of-integral route through the kernel at -t gives the same bits
        for n in (1, 2, 3, 8, 64, 256, 300, 1000, 4096):
            kernel = p0_coefficients(n).coeffs
            kernel[1::2] *= -1.0
            e = series_exp(integrate_over_t(PowerSeries(kernel)))
            route = np.concatenate([[0.0], e.coeffs[:n]])
            assert extremal_upper(n).coeffs.tobytes() == route.tobytes(), n

    def test_defining_ode_coefficientwise(self):
        # z f' = f * (1 + kernel), coefficient by coefficient
        n = 32
        f = extremal_lower(n).coeffs
        lp = p0_coefficients(n).coeffs
        lp[0] = 1.0
        resid = f[:n] * np.arange(n) - np.convolve(f, lp)[:n]
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


def _reference_series_exp(s):
    # the recurrence with the strided reversed view e[n-1::-1][:n]
    n_max = s.degree
    ks = s.coeffs * np.arange(n_max + 1)
    e = np.zeros(n_max + 1, dtype=np.complex128)
    e[0] = 1.0
    for n in range(1, n_max + 1):
        e[n] = np.dot(ks[1 : n + 1], e[n - 1 :: -1][:n]) / n
    return e


def _bits(w: complex) -> bytes:
    # the bytes of both parts, so a signed zero counts as a difference
    return np.complex128(w).tobytes()


class TestEvaluationRoutes:
    """Both evaluation routes give the numpy reference's results bit for
    bit; the array route is the reference's expression, and only the
    real-scalar route runs different code."""

    _SERIES = {f"{name}({n})": (fn, n)
               for name, fn in (("extremal_lower", extremal_lower),
                                ("extremal_upper", extremal_upper),
                                ("p0_coefficients", p0_coefficients))
               for n in (64, 300)}

    @pytest.mark.parametrize("name", list(_SERIES))
    def test_scalar_route_matches_0d_array(self, name):
        fn, n = self._SERIES[name]
        f = fn(n)
        rng = np.random.default_rng(26)
        xs = np.concatenate((rng.uniform(-1.0, 1.0, 200), [0.0, -0.0, 0.5, -0.999, 0.999]))
        for x in xs:
            ref = reference_horner(f.coeffs, x)
            for point in (float(x), np.float64(x)):
                val = f(point)
                assert type(val) is complex
                assert _bits(val) == _bits(ref)
            assert _bits(f(np.asarray(x))) == _bits(ref)
        for k in (-1, 0, 1):
            assert _bits(f(k)) == _bits(reference_horner(f.coeffs, k))

    @pytest.mark.parametrize("n", [5, 300])
    def test_array_route_matches_reference(self, n):
        f = extremal_lower(n)
        rng = np.random.default_rng(27)
        z = 0.9 * rng.uniform(0.0, 1.0, 600) * np.exp(1j * rng.uniform(-PI, PI, 600))
        for points in (z, z[:1], z[:2], z[:33], z[::3], z.reshape(20, 30).T):
            assert f(points).tobytes() == reference_horner(f.coeffs, points).tobytes()
        # complex scalars take the array route, one element at a time
        for point in z[:100]:
            assert _bits(f(complex(point))) == _bits(reference_horner(f.coeffs, point))
            assert _bits(f(point)) == _bits(reference_horner(f.coeffs, point))

    @pytest.mark.parametrize("n", [8, 64, 300])
    def test_series_exp_matches_strided_recurrence(self, n):
        kernel = p0_coefficients(n)
        reflected = kernel.coeffs.copy()
        reflected[1::2] *= -1.0
        rng = np.random.default_rng(n)
        noise = np.zeros(n + 1, dtype=complex)
        noise[1:] = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.arange(1, n + 1)
        for s in (integrate_over_t(kernel), integrate_over_t(PowerSeries(reflected)),
                  PowerSeries(noise)):
            assert series_exp(s).coeffs.tobytes() == _reference_series_exp(s).tobytes()
