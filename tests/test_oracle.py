import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parastar import (
    BracketSolverConfig,
    DerivativeVanishes,
    DomainError,
    MaxIterExceeded,
    NoSignChange,
    ParamRange,
    PowerSeries,
    QuadratureFailure,
    SingularOnCircle,
    bracket_root,
    caratheodory_log_derivative_bound,
    caratheodory_order_check,
    caratheodory_order_disc,
    certify_sufficient_condition,
    check_subordination_inclusion,
    covering_constant,
    extremal_lower,
    extremal_upper,
    extremize_on_circle,
    golden_bracket_root,
    growth_bounds,
    janowski_disc_bound,
    left_parabola,
    member_growth_modulus,
    oracle,
    parabola_map,
    sample_schwarz_function,
    target_map,
)
from support import assert_quoted, log_ratio

PI = math.pi


class TestBracketRoot:
    def test_linear(self):
        assert abs(bracket_root(lambda r: r - 0.5, 0.0, 1.0) - 0.5) < 1e-12

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            bracket_root(lambda r: 1.0 + r, 0.0, 1.0)

    def test_max_iter(self):
        cfg = BracketSolverConfig(abs_tol=1e-15, max_iter=3)
        with pytest.raises(MaxIterExceeded):
            bracket_root(lambda r: r - 1.0 / 3.0, 0.0, 1.0, cfg)

    def test_cardioid_equation(self):
        root = bracket_root(lambda r: r * math.exp(r) - 0.5, 0.0, 1.0)
        assert_quoted(root, 0.3517, digits=4)

    def test_majorization_equation(self):
        cond = lambda r: (1.0 - r * r) * left_parabola(r).real - r
        root = bracket_root(cond, 0.3, 0.5)
        assert_quoted(root, 0.4220, digits=4)

    def test_golden_agrees_with_bisection(self):
        cond = lambda r: 2.0 * log_ratio(r) ** 2 - 0.5 * PI**2
        a = bracket_root(cond, 1e-9, 1 - 1e-9)
        b = golden_bracket_root(cond, 1e-9, 1 - 1e-9)
        assert abs(a - b) < 1e-11

    def test_config_validation(self):
        with pytest.raises(ParamRange):
            BracketSolverConfig(abs_tol=0.0)

    @pytest.mark.parametrize("solver", [bracket_root, golden_bracket_root])
    def test_nan_inside_bracket_raises_at_once(self, solver):
        # NaN for 0.3 < r < 0.9: the first interior step lands there
        calls = []

        def cond(r):
            calls.append(r)
            return math.nan if 0.3 < r < 0.9 else r - 0.5

        with pytest.raises(DomainError):
            solver(cond, 0.0, 1.0)
        assert len(calls) == 3

    @pytest.mark.parametrize("solver", [bracket_root, golden_bracket_root])
    def test_nan_at_bracket_end_raises(self, solver):
        with pytest.raises(DomainError):
            solver(lambda r: math.nan if r > 0.3 else r - 0.5, 0.0, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(slope=st.floats(0.1, 10.0), sign=st.sampled_from([-1.0, 1.0]),
           lo=st.floats(-2.0, 1.0), width=st.floats(0.01, 3.0),
           frac=st.floats(0.01, 0.99), tol_exp=st.integers(-12, -4))
    def test_affine_root_within_tolerance(self, slope, sign, lo, width, frac, tol_exp):
        hi = lo + width
        root = lo + frac * width
        cfg = BracketSolverConfig(abs_tol=10.0**tol_exp)
        f = lambda x: sign * slope * (x - root)
        for solver in (bracket_root, golden_bracket_root):
            assert abs(solver(f, lo, hi, cfg) - root) <= cfg.abs_tol


class TestExtremize:
    def test_constant_at_center(self):
        res = extremize_on_circle(left_parabola, 0.0)
        assert res.min_value == res.max_value == 1.0

    def test_kernel_extremes_at_axis(self):
        res = extremize_on_circle(left_parabola, 0.5, "re")
        assert abs(res.argmin_angle) < 1e-6
        assert abs(abs(res.argmax_angle) - PI) < 1e-3
        assert abs(res.min_value - left_parabola(0.5).real) < 1e-12

    def test_sine_max_is_real_axis_value(self):
        phi = target_map("sine")
        res = extremize_on_circle(phi, 0.4, "re")
        assert abs(res.max_value - (1.0 + math.sin(0.4))) < 1e-9

    def test_abs_max_of_shifted_map_on_real_axis(self):
        # the largest |map - 1| over the circle sits at angle 0, with value
        # equal to the kernel modulus at r; this is the bound the disc
        # radii rest on
        for r in (0.3, 0.7, 0.8):
            shifted = extremize_on_circle(lambda z: left_parabola(z) - 1.0, r, "abs")
            assert abs(shifted.max_value - abs(left_parabola(r) - 1.0)) < 1e-10
            assert abs(shifted.argmax_angle) < 1e-6

    def test_singular_circle_reported(self):
        with pytest.raises(SingularOnCircle):
            extremize_on_circle(left_parabola, 1.0)

    def test_extremum_off_grid_and_off_axis(self):
        # Re(1 + sin(e^{ia} z)) peaks where e^{ia} z is real and positive,
        # at angle -a, which is no multiple of the grid step 2 pi / 4096
        alpha, r = 0.3 + 0.37 * 2.0 * PI / 4096, 0.4
        res = extremize_on_circle(lambda z: 1.0 + np.sin(np.exp(1j * alpha) * z), r, "re")
        assert abs(res.max_value - (1.0 + math.sin(r))) < 1e-12
        off = (res.argmax_angle + alpha + PI) % (2.0 * PI) - PI
        assert abs(off) < 1e-6

    def test_refinement_failure_is_singular(self):
        # the map fails only on the refinement batches, never on the grid
        def phi(z):
            if np.size(z) != 4096:
                raise DomainError("refinement point rejected")
            return left_parabola(z)

        with pytest.raises(SingularOnCircle):
            extremize_on_circle(phi, 0.5)

    def test_map_call_budget(self):
        calls = []

        def phi(z):
            calls.append(np.size(z))
            return left_parabola(z)

        extremize_on_circle(phi, 0.5)
        assert len(calls) <= 8
        assert all(n > 1 for n in calls)


class TestGrowthBounds:
    def test_degenerate_at_zero(self):
        assert growth_bounds(0.0) == (0.0, 0.0)

    def test_matches_extremal_series(self):
        f = extremal_lower(300)
        g = extremal_upper(300)
        for r in (0.1, 0.35, 0.6, 0.9):
            lo, hi = growth_bounds(r)
            assert abs(lo - f(r).real) < 1e-8
            assert abs(hi - g(r).real) < 1e-8

    def test_steep_tail_still_certified(self):
        # close to 1 the lower integrand grows like log^2(1/(1-t)); the
        # quadrature must still certify its error target, while the series
        # route converges slowly and approaches the quadrature value
        lo, hi = growth_bounds(0.999)
        assert 0.0 < lo < hi
        gap_1k = abs(lo - extremal_lower(1000)(0.999).real)
        gap_3k = abs(lo - extremal_lower(3000)(0.999).real)
        assert gap_3k < gap_1k
        assert gap_3k < 5e-6

    def test_certified_close_to_one(self):
        # within 2^-48 of the kernel's singularity at t = 1 the quadrature
        # still meets its target, and the bounds keep moving apart
        vals = [growth_bounds(1.0 - 2.0**-k) for k in (20, 30, 40, 48)]
        lows = [lo for lo, _ in vals]
        highs = [hi for _, hi in vals]
        assert all(b < a for a, b in zip(lows, lows[1:]))
        assert all(b > a for a, b in zip(highs, highs[1:]))

    def test_sandwich_for_random_members(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w_fn, _ = sample_schwarz_function(rng)
            for r in (0.3, 0.6, 0.9):
                lo, hi = growth_bounds(r)
                val = member_growth_modulus(w_fn, r)
                assert lo - 1e-8 <= val <= hi + 1e-8


class TestCovering:
    def test_convergence_and_monotonicity(self):
        est = covering_constant()
        assert est.last_delta < 1e-8
        seq = est.evaluations
        assert all(b > a for a, b in zip(seq, seq[1:]))
        assert est.value >= seq[-1]

    def test_bracketed_by_late_evaluation(self):
        # the limit sits a hair above the upper bound at r = 1 - 1e-6
        _, near_one = growth_bounds(1.0 - 1e-6)
        est = covering_constant()
        assert near_one < est.value < near_one + 1e-4

    def test_against_transformed_integral(self):
        # independent route: the limit equals exp((16/pi^2) int_0^1 atan(u)^2/u du)
        from scipy.integrate import quad

        integral, _ = quad(lambda u: math.atan(u) ** 2 / u, 0.0, 1.0,
                           epsabs=1e-14, epsrel=1e-14)
        expected = math.exp(16.0 / PI**2 * integral)
        assert abs(covering_constant().value - expected) < 1e-7


def _reference_quad(fn, a, b):
    # scipy as an independent reference.  Breakpoints 1 - (1 - b) 2^k
    # resolve the steep end near the kernel's singularity at t = 1;
    # without them it is off by 1.7e-8 at b = 1 - 2^-30 for the lower
    # integrand.
    from scipy.integrate import quad

    points = sorted(1.0 - (1.0 - b) * 2.0**k for k in range(1, 60)
                    if 1.0 - (1.0 - b) * 2.0**k > a)
    val, _ = quad(fn, a, b, points=points or None, epsabs=1e-13, epsrel=1e-13, limit=500)
    return val


class TestQuadrature:
    def test_polynomial_exact(self):
        # 20 Gauss-Legendre points integrate degree 39 exactly
        assert abs(oracle._quad_checked(lambda t: t**39, 0.0, 1.0) - 1.0 / 40.0) < 1e-16

    def test_non_finite_integrand_raises_at_once(self):
        calls = []

        def fn(t):
            calls.append(t)
            return np.where(t > 0.7, np.nan, t)

        with pytest.raises(QuadratureFailure):
            oracle._quad_checked(fn, 0.0, 1.0)
        assert len(calls) == 1

    def test_non_integrable_integrand_raises(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(QuadratureFailure):
                oracle._quad_checked(lambda t: 1.0 / (t - 0.5) ** 2, 0.0, 1.0)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("r", [0.2, 0.5, 0.8, 0.99, 1.0 - 1e-6, 1.0 - 2.0**-30,
                                   1.0 - 2.0**-48])
    def test_growth_integrands_agree_with_scipy(self, r):
        lower = lambda t: -(2.0 / PI**2) * log_ratio(t) ** 2 / t
        upper = lambda t: (8.0 / PI**2) * math.atan(math.sqrt(t)) ** 2 / t
        for vectorised, scalar in ((oracle._lower_integrand, lower),
                                   (oracle._upper_integrand, upper)):
            ours = oracle._quad_checked(vectorised, 0.1, r)
            ref = _reference_quad(scalar, 0.1, r)
            assert abs(ours - ref) <= 1e-14 * abs(ref)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_member_modulus_agrees_with_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            w_fn, _ = sample_schwarz_function(rng)
            integrand = lambda t: (parabola_map(complex(w_fn(t))) / t).real
            for r in (0.2, 0.5, 0.8, 0.95):
                ref = r * math.exp(_reference_quad(integrand, 1e-12, r))
                assert abs(member_growth_modulus(w_fn, r) - ref) <= 1e-14 * ref


class TestInclusion:
    def test_constant_map_passes(self):
        rep = check_subordination_inclusion(lambda z: np.ones_like(z), 0.5)
        assert rep.passed

    def test_cosh_sqrt_two_sided_probe(self):
        phi = target_map("cosh_sqrt")
        r = math.acosh(1.5) ** 2
        assert check_subordination_inclusion(phi, r * (1 - 1e-6)).passed
        assert not check_subordination_inclusion(phi, r * (1 + 1e-3)).passed

    def test_halfplane_probe_for_map(self):
        # image of |z| = tanh^2(pi/4) under the map grazes Re w = 1/2
        r = math.tanh(PI / 4.0) ** 2
        halfplane = (lambda w: np.real(w) - 0.5,)
        assert check_subordination_inclusion(left_parabola, r * (1 - 1e-6),
                                             margin_fns=halfplane).passed
        assert not check_subordination_inclusion(left_parabola, r * (1 + 1e-3),
                                                 margin_fns=halfplane).passed


class TestCertify:
    def test_identity_passes_all_t(self):
        f = PowerSeries([0.0, 1.0])
        for t in (0.0, 0.5, 1.0):
            rep = certify_sufficient_condition(f, t)
            assert rep.passed
            assert rep.oracle_value < 1e-14

    def test_quadratic_threshold(self):
        # sup |c z/(1+c z)| on |z| = r is c r/(1 - c r)
        good = certify_sufficient_condition(PowerSeries([0.0, 1.0, 0.3]), 0.0)
        assert good.passed
        expected = 0.3 * 0.999 / (1.0 - 0.3 * 0.999)
        assert abs(good.oracle_value - expected) < 1e-6
        bad = certify_sufficient_condition(PowerSeries([0.0, 1.0, 0.4]), 0.0)
        assert not bad.passed
        assert bad.oracle_value > 0.5

    def test_t_one_bound(self):
        rep = certify_sufficient_condition(PowerSeries([0.0, 1.0, 0.1]), 1.0)
        assert rep.closed_form == 5.0 / 6.0
        assert rep.passed

    def test_unnormalised_rejected(self):
        with pytest.raises(Exception):
            certify_sufficient_condition(PowerSeries([1.0, 1.0]), 0.0)

    def test_vanishing_derivative_detected(self):
        # place the zero of f' exactly on the sampled ring point z = 0.999
        c = -1.0 / (2.0 * 0.999)
        with pytest.raises(DerivativeVanishes):
            certify_sufficient_condition(PowerSeries([0.0, 1.0, c]), 0.0,
                                         radii=(0.999,), n_angles=4096)


class TestOrderCheck:
    @pytest.mark.parametrize("alpha", [0.0, 0.25])
    def test_map_order_two_sided(self, alpha):
        gamma = math.tanh(PI * math.sqrt(1 - alpha) / (2 * math.sqrt(2))) ** 2
        assert caratheodory_order_check(left_parabola, alpha, gamma * (1 - 1e-6)).passed
        assert not caratheodory_order_check(left_parabola, alpha, gamma * (1 + 1e-3)).passed

    def test_constant_function(self):
        assert caratheodory_order_check(lambda z: np.ones_like(z), 0.9, 0.99).passed


class TestDiscBounds:
    def test_center_at_origin_radius(self):
        assert janowski_disc_bound(0.5, -0.5, 0.0) == (1.0, 0.0)

    def test_full_disc_specialisation(self):
        r = 0.37
        center, radius = janowski_disc_bound(1.0, -1.0, r)
        assert abs(center - (1 + r * r) / (1 - r * r)) < 1e-15
        assert abs(radius - 2 * r / (1 - r * r)) < 1e-15

    def test_order_alpha_formula(self):
        alpha, r, n = 0.3, 0.5, 2
        center, radius = caratheodory_order_disc(alpha, r, n)
        r2n = r ** (2 * n)
        assert abs(center - (1 + (1 - 2 * alpha) * r2n) / (1 - r2n)) < 1e-15
        assert abs(radius - 2 * (1 - alpha) * r**n / (1 - r2n)) < 1e-15

    def test_param_range(self):
        with pytest.raises(ParamRange):
            janowski_disc_bound(-0.5, 0.5, 0.3)

    def test_ratio_class_aggregation(self):
        # value disc of (1+Az)/(1-z) plus two log-derivative bounds
        # reproduces the aggregated reach (5+A) r/(1-r^2); at A = -1 the
        # Moebius term degenerates to the constant 1
        r = 0.21
        for A in (-0.5, 0.0, 1.0):
            center, radius = janowski_disc_bound(A, -1.0, r)
            total = radius + 2.0 * caratheodory_log_derivative_bound(r)
            assert abs(center - (1 + A * r * r) / (1 - r * r)) < 1e-15
            assert abs(total - (5.0 + A) * r / (1 - r * r)) < 1e-14
        degenerate = 2.0 * caratheodory_log_derivative_bound(r)
        assert abs(degenerate - (5.0 - 1.0) * r / (1 - r * r)) < 1e-14
