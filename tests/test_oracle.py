import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parastar import cli, oracle, radii, region, verify
from parastar.errors import (
    DerivativeVanishes, DomainError, MaxIterExceeded, NoSignChange, ParamRange,
    QuadratureFailure, SingularOnCircle,
)
from parastar.maps import TARGETS, left_parabola, parabola_map, target_map
from parastar.oracle import (
    bracket_root, certify_sufficient_condition, check_subordination_inclusion,
    covering_constant, extremize_on_circle, golden_bracket_root, growth_bounds,
    member_growth_modulus, sample_schwarz_function,
)
from parastar.series import PowerSeries, extremal_lower, extremal_upper
from support import (FULL_GRID, FULL_GRID_UNIT, HALF, assert_quoted, log_ratio,
                     min_and_max, reference_horner, reference_quad_checked,
                     sequential_extremize)

PI = math.pi


class TestBracketRoot:
    def test_linear(self):
        assert abs(bracket_root(lambda r: r - 0.5, 0.0, 1.0) - 0.5) < 1e-12

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            bracket_root(lambda r: 1.0 + r, 0.0, 1.0)

    def test_max_iter(self):
        with mock.patch.object(oracle, "_ABS_TOL", 1e-15), \
                mock.patch.object(oracle, "_MAX_ITER", 3), pytest.raises(MaxIterExceeded):
            bracket_root(lambda r: r - 1.0 / 3.0, 0.0, 1.0)

    def test_cardioid_equation(self):
        root = bracket_root(lambda r: r * math.exp(r) - 0.5, 0.0, 1.0)
        assert_quoted(root, 0.3517, digits=4)

    def test_majorization_equation(self):
        cond = lambda r: (1.0 - r * r) * left_parabola(r).real - r
        root = bracket_root(cond, 0.3, 0.5)
        assert_quoted(root, 0.4220, digits=4, truncated=True)

    def test_golden_agrees_with_bisection(self):
        cond = lambda r: 2.0 * log_ratio(r) ** 2 - 0.5 * PI**2
        a = bracket_root(cond, 1e-9, 1 - 1e-9)
        b = golden_bracket_root(cond, 1e-9, 1 - 1e-9)
        assert abs(a - b) < 1e-11

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
    def test_infinite_end_value(self, solver):
        f = lambda r: -math.inf if r <= 0.0 else math.log(r) + 1.0
        assert abs(solver(f, 0.0, 1.0) - math.exp(-1.0)) <= 1e-12

    @pytest.mark.parametrize("solver", [bracket_root, golden_bracket_root])
    @pytest.mark.parametrize("lo, hi", [
        (1.0, 0.0), (0.5, 0.5), (0.0, math.inf), (-math.inf, 1.0), (math.inf, math.inf),
        (math.nan, 1.0), (0.0, math.nan)],
        ids=["reversed", "empty", "inf_hi", "inf_lo", "inf_both", "nan_lo", "nan_hi"])
    def test_bad_bracket_is_domain_error(self, solver, lo, hi):
        # a reversed, empty, infinite or NaN bracket is rejected before the
        # condition is evaluated, by one check both solvers share
        calls = []
        with pytest.raises(DomainError, match="bracket"):
            solver(lambda r: calls.append(r) or r - 0.5, lo, hi)
        assert calls == []

    @pytest.mark.parametrize("solver", [bracket_root, golden_bracket_root])
    def test_nan_at_bracket_end_raises(self, solver):
        with pytest.raises(DomainError):
            solver(lambda r: math.nan if r > 0.3 else r - 0.5, 0.0, 1.0)

    @pytest.mark.parametrize("f, root", [
        (lambda x: (x - 1.0 / 3.0) ** 3, 1.0 / 3.0),
        (lambda x: x**21 - 2.0**-21, 0.5),
        (lambda x: math.tanh(1e4 * (x - 0.618)), 0.618)],
        ids=["cube", "x21", "tanh"])
    @pytest.mark.parametrize("lo, hi, tol", [(0.0, 1.0, 1e-12), (-0.4, 1.7, 1e-9)])
    def test_worst_case_evaluations(self, f, root, lo, hi, tol):
        # interpolation is useless on these conditions; the projection still
        # bounds ITP by one step more than the ceil(log2(w / tol)) halvings,
        # plus the two end values, which is what plain bisection spends when
        # it returns the midpoint of a bracket no wider than tol
        calls = []
        with mock.patch.object(oracle, "_ABS_TOL", tol):
            r = bracket_root(lambda x: calls.append(x) or f(x), lo, hi)
        assert len(calls) <= math.ceil(math.log2((hi - lo) / tol)) + 3
        assert abs(r - root) <= tol
        assert abs(f(r)) <= tol

    @settings(max_examples=100, deadline=None)
    @given(shape=st.sampled_from(["cube", "cube_plus_line", "tanh", "expm1", "atan_cube",
                                  "signed_square"]),
           scale=st.floats(0.05, 1000.0), sign=st.sampled_from([-1.0, 1.0]),
           lo=st.floats(-2.0, 1.0), width=st.floats(0.01, 3.0), frac=st.floats(0.01, 0.99),
           tol_exp=st.integers(-12, -4))
    def test_monotone_root_within_tolerance(self, shape, scale, sign, lo, width, frac,
                                            tol_exp):
        # f(x) = sign * h(x - root) for a strictly increasing, non-affine h with
        # h(0) = 0: the sign of f changes exactly at the root, however flat or
        # steep h is there
        h = {
            "cube": lambda d: d**3,
            "cube_plus_line": lambda d: d**3 + scale * d,
            "tanh": lambda d: math.tanh(scale * d),
            "expm1": lambda d: math.expm1(min(scale, 30.0) * d),
            "atan_cube": lambda d: math.atan(scale * d) + d**3,
            "signed_square": lambda d: d * abs(d),
        }[shape]
        hi = lo + width
        root = lo + frac * width
        f = lambda x: sign * h(x - root)
        tol = 10.0**tol_exp
        for solver in (bracket_root, golden_bracket_root):
            with mock.patch.object(oracle, "_ABS_TOL", tol):
                r = solver(f, lo, hi)
            assert abs(r - root) <= tol
            assert abs(f(r)) <= tol

    @settings(max_examples=100, deadline=None)
    @given(slope=st.floats(0.1, 10.0), sign=st.sampled_from([-1.0, 1.0]),
           lo=st.floats(-2.0, 1.0), width=st.floats(0.01, 3.0),
           frac=st.floats(0.01, 0.99), tol_exp=st.integers(-12, -4))
    def test_affine_root_within_tolerance(self, slope, sign, lo, width, frac, tol_exp):
        hi = lo + width
        root = lo + frac * width
        tol = 10.0**tol_exp
        f = lambda x: sign * slope * (x - root)
        for solver in (bracket_root, golden_bracket_root):
            with mock.patch.object(oracle, "_ABS_TOL", tol):
                assert abs(solver(f, lo, hi) - root) <= tol


class TestExtremize:
    def test_constant_at_center(self):
        assert extremize_on_circle(left_parabola, 0.0).value == 1.0
        assert -extremize_on_circle(lambda z: -left_parabola(z), 0.0).value == 1.0

    def test_kernel_extremes_at_axis(self):
        # the minimum of Re is the negated maximum of the negated map
        high = extremize_on_circle(left_parabola, 0.5)
        low = extremize_on_circle(lambda z: -left_parabola(z), 0.5)
        assert abs(low.angle) < 1e-6
        assert abs(abs(high.angle) - PI) < 1e-3
        assert abs(-low.value - left_parabola(0.5).real) < 1e-12

    def test_sine_max_is_real_axis_value(self):
        phi = target_map("sine")
        res = extremize_on_circle(phi, 0.4)
        assert abs(res.value - (1.0 + math.sin(0.4))) < 1e-9

    def test_abs_max_of_shifted_map_on_real_axis(self):
        # the largest |map - 1| over the circle sits at angle 0, with value
        # equal to the kernel modulus at r; this is the bound the disc
        # radii rest on
        for r in (0.3, 0.7, 0.8):
            shifted = extremize_on_circle(lambda z: np.abs(left_parabola(z) - 1.0), r)
            assert abs(shifted.value - abs(left_parabola(r) - 1.0)) < 1e-10
            assert abs(shifted.angle) < 1e-6

    def test_singular_circle_reported(self):
        with pytest.raises(SingularOnCircle):
            extremize_on_circle(left_parabola, 1.0)

    def test_extremum_off_grid_and_off_axis(self):
        # Re(a z - z^2) = a r cos t - r^2 (2 cos^2 t - 1) on |z| = r peaks at
        # cos t = a/(4r), value r^2 (2 cos^2 t0 + 1): at t0 in the upper
        # half, which is no multiple of the grid step 2 pi / 4096
        theta0, r = 1.0 + 0.37 * 2.0 * PI / 4096, 0.4
        a = 4.0 * r * math.cos(theta0)
        res = extremize_on_circle(lambda z: a * z - z * z, r)
        assert abs(res.value - r * r * (2.0 * math.cos(theta0) ** 2 + 1.0)) < 1e-15
        assert abs(res.angle - theta0) < 1e-7

    def test_refinement_failure_is_singular(self):
        # the map fails only off the first call, the coarse pass and the
        # offsets delta > 0 of the seven rounds' windows about theta = 0:
        # left_parabola peaks at -pi, so the first call goes through, and
        # the second call, all seven speculative rounds about -pi, fails at
        # its other points
        sizes, r = [], 0.5
        first = r * np.concatenate((FULL_GRID_UNIT[HALF][np.r_[0, 1:2049:16]],
                                    np.exp(1j * oracle._REFINE_DELTAS[:, 17:]).ravel()))

        def phi(z):
            sizes.append(np.size(z))
            if not np.isin(z, first).all():
                raise DomainError("refinement point rejected")
            return left_parabola(z)

        with pytest.raises(SingularOnCircle):
            extremize_on_circle(phi, r)
        assert sizes == [129 + 7 * 16, 7 * 33]

    def test_axis_window_failure_is_singular(self):
        # the first call samples the rounds' offsets delta > 0 about
        # theta = 0 whatever the coarse pick, so a map that fails only
        # there, at angles strictly between 0 and half the coarse step in
        # modulus, raises on that call.
        # Re(a z - z^2) peaks at +-theta0 and is least at -pi: the
        # round-by-round loop refines there only and never meets a failure
        theta0, r = 1.0, 0.4
        a = 4.0 * r * math.cos(theta0)
        sizes = []

        def phi(z):
            sizes.append(np.size(z))
            t = np.abs(np.angle(z))
            if ((t > 0.0) & (t < PI / 256)).any():
                raise DomainError("point near the real axis rejected")
            return a * z - z * z

        v_max = sequential_extremize(phi, r)[1]
        assert abs(v_max - r * r * (2.0 * math.cos(theta0) ** 2 + 1.0)) < 1e-15
        sizes.clear()
        with pytest.raises(SingularOnCircle):
            extremize_on_circle(phi, r)
        assert sizes == [129 + 7 * 16]

    @pytest.mark.parametrize("round_", [0, 3, 6])
    @pytest.mark.parametrize("above", [False, True])
    def test_axis_settle_edge(self, round_, above):
        # Re sine peaks at theta = 0, the centre of every window of the first
        # call; the points at offsets +-delta of the chosen round's window
        # are overridden with the centre's value (a tie, where the round
        # holds) or one ulp above it (where the round moves), so the map
        # stays conjugate-symmetric.  The first call samples +delta only;
        # -delta reads the same value and comes first in the window
        r, base = 0.4, target_map("sine")
        spot = r * np.exp(1j * (0.0 + oracle._REFINE_DELTAS[round_, 29]))
        centre = base(r).real
        value = np.nextafter(centre, 2.0) if above else centre
        calls = []

        def phi(z):
            calls.append(np.size(z))
            w = np.array(base(z))
            w[(z == spot) | (z == np.conj(spot))] = value
            return w

        expected = sequential_extremize(phi, r)
        calls.clear()
        res = extremize_on_circle(phi, r)
        assert (res.value, res.angle) == (expected[1], expected[3])
        if above:
            # the replay moves to the raised value's first index, -delta;
            # only the last round decides without a second call
            assert (res.value, res.angle) == (value, oracle._REFINE_DELTAS[round_, 3])
            assert res.angle == -oracle._REFINE_DELTAS[round_, 29] < 0.0
            assert len(calls) == (1 if round_ == 6 else 2)
        else:
            assert (res.value, res.angle) == (centre, 0.0)
            assert len(calls) == 1

    @pytest.mark.parametrize("target, r, budget", [
        # the first call holds the coarse pass and all seven rounds about
        # theta = 0: a maximum there that stays at the centre of every
        # window takes that one call
        ("ronning_parabola", 0.4, 1),
        ("sine", 0.4, 1),
        ("cardioid", 0.4, 1),
        # a maximum at another coarse angle, here -pi, takes a second call
        # of all seven rounds about it
        ("left_parabola", 0.5, 2),
    ])
    def test_map_call_budget(self, target, r, budget):
        calls = []
        map_fn = target_map(target)

        def phi(z):
            calls.append(np.size(z))
            return map_fn(z)

        extremize_on_circle(phi, r)
        assert len(calls) == budget
        assert all(n > 1 for n in calls)

    @pytest.mark.parametrize("target, r, angle", [
        ("sine", 0.4, 0.0),
        ("cardioid", 0.4, 0.0),
        ("ronning_parabola", 0.4, 0.0),
        ("left_parabola", 0.5, -PI),
    ])
    def test_axis_peak_keeps_its_angle(self, target, r, angle):
        # a round moves only to a strictly larger value, so a peak on the
        # real axis keeps its exact angle through the late rounds, whose 33
        # values tie at the top once Re map is flat to rounding
        assert extremize_on_circle(target_map(target), r).angle == angle

    def test_half_circle_first_pass(self):
        # the first call's coarse pass samples theta = -pi and every 16th
        # angle of the upper half [0, pi) of the 4096-point grid, bit for
        # bit, and then the offsets delta > 0 of all seven rounds' windows
        # about theta = 0, 241 points in all; the second call is all seven
        # full rounds about the coarse pick, -pi
        calls = []

        def phi(z):
            calls.append(np.array(z))
            return left_parabola(z)

        r, coarse_angles = 0.5, np.r_[0, 1:2049:16]
        extremize_on_circle(phi, r)
        first, second = calls
        assert first.size == 241
        coarse, axis_rounds = first[:129], first[129:].reshape(7, 16)
        rounds = second.reshape(7, 33)
        assert np.array_equal(coarse, r * FULL_GRID_UNIT[HALF][coarse_angles])
        assert np.array_equal(axis_rounds,
                              r * np.exp(1j * (0.0 + oracle._REFINE_DELTAS[:, 17:])))
        assert np.all(axis_rounds.imag > 0.0)
        assert np.isin(rounds[:, 16], coarse).all() and np.unique(rounds[:, 16]).size == 1
        assert np.all(coarse.imag[1:] >= 0.0)
        assert r in coarse
        assert np.min(np.abs(coarse + r)) < 1e-16
        assert np.array_equal(oracle._COARSE, FULL_GRID[HALF][coarse_angles])
        assert np.array_equal(oracle._COARSE_UNIT, FULL_GRID_UNIT[HALF][coarse_angles])

    @pytest.mark.parametrize("r", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("functional", ["re", "abs"])
    def test_half_circle_values_match(self, r, functional):
        # against the full circle, an off-axis extreme may be refined at
        # its mirror angle, which can move its value in the last bits
        phi = target_map("cardioid")
        half = min_and_max(phi, r, functional)
        full = sequential_extremize(phi, r, functional, half=False)
        for a, b in zip(half[:2], full[:2]):
            assert abs(a - b) <= 1e-15 * abs(b)
        for a, b in zip(half[2:], full[2:]):
            assert abs(abs(a) - abs(b)) < 1e-6

    def test_half_circle_misses_off_axis_peak(self):
        # conjugate symmetry is a promise about the map: the rotated sine
        # has complex coefficients and peaks at 1 + sin r at angle -a in
        # the lower half, which the half circle never samples
        alpha, r = 0.3 + 0.37 * 2.0 * PI / 4096, 0.4
        phi = lambda z: 1.0 + np.sin(np.exp(1j * alpha) * z)
        assert extremize_on_circle(phi, r).value < 1.0 + math.sin(r) - 1e-3

    def test_first_pass_misses_narrow_peak(self):
        # the coarse pass resolves peaks at 16 grid steps: a spike of width
        # about 3 grid steps at a grid angle midway between two coarse
        # angles, on a broad bump a z peaking at theta = 0, is lower than
        # the bump at every coarse angle: the spike tops 1 at theta0, the
        # coarse pass picks the bump
        h = 2.0 * PI / 4096
        theta0, r, q, eps = (16 * 41 + 8) * h, 0.5, 0.995 / 0.5, 0.004
        rot = np.exp(1j * theta0)
        # real Taylor coefficients: spikes at theta0 and -theta0
        phi = lambda z: z + eps / (1.0 - q * z / rot) + eps / (1.0 - q * z * rot)
        assert phi(r * rot).real > 1.0
        res = extremize_on_circle(phi, r)
        assert res.value < 0.6
        assert abs(res.angle) < 1e-6


class TestSpeculativeRefinement:
    # the speculative windows decide every round at the angles of the
    # round-by-round loop, so the maximum of the map and the negated
    # maximum of the negated map agree with its maximum and minimum bit
    # for bit

    @pytest.mark.parametrize("name, map_fn", [
        *((cid, radii.get_entry(cid).target)
          for cid, (names, *_) in radii._CIRCLE_MAX.items() if not names),
        *((f"{cid}({a})", radii.get_entry(cid, alpha=a).target)
          for cid in ("bs", "alpha_exp") for a in (0.0, 0.3, 0.6, 0.9)),
    ])
    def test_circle_max_maps_match_sequential(self, name, map_fn):
        # r = 1e-9, where Re map is flat to rounding, moves the pick in
        # most rounds
        for r in (1e-9, *np.linspace(0.05, 0.95, 37)):
            for functional in ("re", "abs"):
                assert (min_and_max(map_fn, r, functional)
                        == sequential_extremize(map_fn, r, functional))

    @pytest.mark.parametrize("entry_id", list(radii.COROLLARY))
    def test_inner_disc_minima_match_sequential(self, entry_id):
        phi = radii.get_entry(entry_id).target

        def shifted(z):
            return phi(z) - 1.0

        assert min_and_max(shifted, 1.0, "abs") == sequential_extremize(shifted, 1.0, "abs")


# every target map, with parameters where it takes them, and bs
_MIRROR_PARAMS = {"alpha_exp": {"alpha": 0.3}, "alpha_sqrt": {"alpha": 0.3},
                  "janowski": {"A": 0.5, "B": -0.5}}
_MIRROR_MAPS = [
    *((t, target_map(t, **_MIRROR_PARAMS.get(t, {}))) for t in TARGETS),
    *((f"bs({a})", radii.get_entry("bs", alpha=a).target) for a in (0.0, 0.3, 0.6, 0.9)),
]


class TestAxisMirror:
    # the first call samples the windows about theta = 0 at delta > 0 only
    # and reads -delta from them

    def test_premise(self):
        deltas = oracle._REFINE_DELTAS
        assert oracle._COARSE[1] == 0.0
        assert np.array_equal(deltas, -deltas[:, ::-1])
        assert np.all(deltas[:, 16] == 0.0)
        # the mirror points, as e^{-i delta} and as the window points
        # e^{i (0 + delta)} at the offsets delta < 0, are the conjugates
        # of the sampled points, byte for byte
        mirror = np.conj(np.exp(1j * deltas[:, 17:]))
        assert np.exp(-1j * deltas[:, 17:]).tobytes() == mirror.tobytes()
        assert np.exp(1j * (0.0 + deltas[:, 15::-1])).tobytes() == mirror.tobytes()
        assert np.array_equal(oracle._FIRST_UNIT[129:], np.exp(1j * deltas[:, 17:]).ravel())

    @pytest.mark.parametrize("name, map_fn", _MIRROR_MAPS)
    def test_mirrored_reference_matches_sampled(self, name, map_fn):
        # every map is conjugate-symmetric bit for bit, so the values read
        # at -delta are the ones sampled there
        for r in (1e-9, *np.linspace(0.05, 0.95, 10), 0.99, 1.0 - 1e-9):
            for functional in ("re", "abs"):
                mirrored = sequential_extremize(map_fn, r, functional)
                sampled = sequential_extremize(map_fn, r, functional, mirror=False)
                assert mirrored == sampled, (r, functional)


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

    def test_limits_at_one(self):
        lo, hi = growth_bounds(1.0)
        assert abs(lo - region.COVERED_RADIUS) < 1e-12
        assert abs(hi - region.GROWTH_UPPER_LIMIT) < 1e-12

    @pytest.mark.parametrize("r", [1.0 + 1e-15, 1.5])
    def test_beyond_one_raises(self, r):
        with pytest.raises(DomainError):
            growth_bounds(r)

    def test_no_series_evaluated(self, monkeypatch):
        # growth/series_vs_quadrature compares two independent routes only
        # if the growth bounds never evaluate a series
        def fail(self, z):
            raise AssertionError("a power series was evaluated")

        monkeypatch.setattr(PowerSeries, "__call__", fail)
        for r in (0.05, *np.arange(0.1, 0.91, 0.1)):
            growth_bounds(r)
        covering_constant()

    def test_upper_bound_alone(self, monkeypatch):
        # growth_upper_bound is the upper bound of the sandwich, bit for bit,
        # and the peng_zhong quadrature condition takes only its one quadrature
        for r in (0.0, 0.3, 0.6, 0.9, 1.0):
            assert oracle.growth_upper_bound(r) == growth_bounds(r)[1]
        quad = oracle._quad_checked
        calls = []
        monkeypatch.setattr(oracle, "_quad_checked",
                            lambda fn, a, b: calls.append(fn) or quad(fn, a, b))
        radii._peng_zhong_quadrature_condition(0.5)
        assert calls == [oracle._upper_integrand]

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
        # the upper bound at r = 1 - 2^-k increases in r toward its value at r = 1
        est = covering_constant()
        assert est.last_delta < 1e-8
        seq = [growth_bounds(1.0 - 0.5**k)[1] for k in range(2, 16)]
        assert all(b > a for a, b in zip(seq, seq[1:]))
        assert est.value >= seq[-1]

    def test_one_quadrature(self, monkeypatch):
        quad = oracle._quad_checked
        calls = []
        monkeypatch.setattr(oracle, "_quad_checked",
                            lambda fn, a, b: calls.append((a, b)) or quad(fn, a, b))
        covering_constant()
        assert calls == [(0.0, 1.0)]

    def test_closed_forms_match_mpmath(self):
        # G and zeta(3) as stored, and both limits against 30-digit
        # quadrature of the integrals they close (u = sqrt t)
        import mpmath as mp

        with mp.workdps(30):
            assert region._CATALAN == float(mp.catalan)
            assert region._ZETA3 == float(mp.zeta(3))
            upper = mp.exp(16 / mp.pi**2 * mp.quad(lambda u: mp.atan(u) ** 2 / u, [0, 1]))
            lower = mp.exp(-16 / mp.pi**2 * mp.quad(lambda u: mp.atanh(u) ** 2 / u, [0, 1]))
            assert abs(mp.exp(8 * mp.catalan / mp.pi - 14 * mp.zeta(3) / mp.pi**2) - upper) < 1e-28
            assert abs(mp.exp(-14 * mp.zeta(3) / mp.pi**2) - lower) < 1e-28
            for value, ref in ((region.GROWTH_UPPER_LIMIT, upper),
                               (region.COVERED_RADIUS, lower)):
                assert abs(value - ref) <= 2 * math.ulp(value)

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

    def test_one_call_per_integrand(self, monkeypatch):
        # the first round takes [0, r] and both halves, 60 nodes, in one
        # call, and at r = 0.5 both growth quadratures end there
        calls = []
        for name in ("_lower_integrand", "_upper_integrand"):
            fn = getattr(oracle, name)
            monkeypatch.setattr(oracle, name,
                                lambda t, fn=fn, name=name: calls.append((name, t.size)) or fn(t))
        growth_bounds(0.5)
        assert sorted(calls) == [("_lower_integrand", 60), ("_upper_integrand", 60)]

    def test_further_rounds_call_again(self):
        calls = []

        def fn(t):
            calls.append(t.size)
            return np.sqrt(t)

        val = oracle._quad_checked(fn, 0.0, 1.0)
        assert calls[0] == 60 and len(calls) > 1
        assert val.hex() == reference_quad_checked(np.sqrt, 0.0, 1.0).hex()

    def test_bit_equal_to_two_call_reference(self, monkeypatch):
        # every growth and member quadrature returns the two-call driver's
        # value bit for bit, first-round and multi-round cases alike
        quad = oracle._quad_checked
        seen = []

        def both(fn, a, b):
            calls = []
            val = quad(lambda t: calls.append(t) or fn(t), a, b)
            seen.append((val.hex(), reference_quad_checked(fn, a, b).hex(), len(calls)))
            return val

        monkeypatch.setattr(oracle, "_quad_checked", both)
        rng = np.random.default_rng(11)
        radii_ = [*rng.uniform(0.0, 1.0, 197), 1.0 - 1e-6, 1.0 - 2.0**-30, 1.0]
        for r in radii_:
            growth_bounds(float(r))
        for _ in range(50):
            w_fn, _ = sample_schwarz_function(rng)
            for r in (0.3, 0.6, 0.9, 0.95):
                member_growth_modulus(w_fn, r)
        assert len(seen) == 2 * len(radii_) + 200
        assert all(ours == ref for ours, ref, _ in seen)
        assert any(n > 1 for *_, n in seen)

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["polynomial", "sqrt_end", "near_pole", "member"]),
           data=st.data())
    def test_bit_equal_property(self, kind, data):
        # any finite a != b, reversed intervals too: one round for polynomials
        # of degree <= 39, several for a square root at an end, a pole just
        # beyond an end or a member integrand.  The driver returns the
        # reference's bits, or raises as it does, in one call of fn per round
        # where the reference spends one more on [a, b] alone
        bound = 0.999 if kind == "member" else 1e6
        a = data.draw(st.floats(-bound, bound), label="a")
        b = data.draw(st.floats(-bound, bound).filter(lambda v: v != a), label="b")
        if kind == "polynomial":
            coeffs = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=40))
            fn = lambda t: np.polynomial.polynomial.polyval(t, coeffs)
        elif kind == "sqrt_end":
            fn = lambda t: np.sqrt(np.abs(t - a))
        elif kind == "near_pole":
            c = max(a, b) + abs(b - a) * 10.0 ** -data.draw(st.integers(0, 6), label="k")
            fn = lambda t: 1.0 / (c - t)
        else:
            w_fn, _ = sample_schwarz_function(np.random.default_rng(data.draw(
                st.integers(0, 2**32 - 1), label="seed")))
            fn = lambda t: (parabola_map(w_fn(t)) / t).real

        def outcome(driver):
            calls = []
            try:
                val = driver(lambda t: calls.append(t.size) or fn(t), a, b).hex()
            except QuadratureFailure as exc:
                val = f"QuadratureFailure: {exc}"
            return val, len(calls)

        with np.errstate(all="ignore"):
            ours, n_ours = outcome(oracle._quad_checked)
            ref, n_ref = outcome(reference_quad_checked)
        assert ours == ref
        if not ours.startswith("QuadratureFailure"):
            assert n_ours == n_ref - 1

    def test_non_finite_in_a_later_round_raises_at_that_call(self):
        # the first round's nodes all lie above 1e-3; the square root keeps
        # halving the panel at 0 until its nodes reach below 1e-4
        calls = []

        def fn(t):
            calls.append(t.min())
            return np.where(t < 1e-4, np.nan, np.sqrt(t))

        with pytest.raises(QuadratureFailure, match="not finite"):
            oracle._quad_checked(fn, 0.0, 1.0)
        assert len(calls) >= 2 and calls[-1] < 1e-4 <= min(calls[:-1])

    def test_exact_call_and_node_counts(self, monkeypatch):
        # a timing-free regression signal: a driver that returns the same
        # bits takes every adaptive decision the same way, so the totals of
        # integrand calls and nodes must not move (60 nodes in a first call,
        # 40 per open panel in each later round)
        quad = oracle._quad_checked
        calls = nodes = 0

        def counted(fn, a, b):
            def g(t):
                nonlocal calls, nodes
                calls, nodes = calls + 1, nodes + t.size
                return fn(t)
            return quad(g, a, b)

        monkeypatch.setattr(oracle, "_quad_checked", counted)
        for k in range(1, 51):
            growth_bounds(k / 50)
        assert (calls, nodes) == (150, 10000)
        calls = nodes = 0
        rng = np.random.default_rng(2024)
        for _ in range(50):
            w_fn, _ = sample_schwarz_function(rng)
            for r in (0.3, 0.6, 0.9, 0.95):
                member_growth_modulus(w_fn, r)
        assert (calls, nodes) == (223, 13840)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("r", [0.2, 0.5, 0.8, 0.99, 1.0 - 1e-6, 1.0 - 2.0**-30,
                                   1.0 - 2.0**-48])
    def test_growth_integrands_agree_with_scipy(self, r):
        lower = lambda t: -(2.0 / PI**2) * log_ratio(t) ** 2 / t
        upper = lambda t: (8.0 / PI**2) * math.atan(math.sqrt(t)) ** 2 / t
        for vectorised, scalar in ((oracle._lower_integrand, lower),
                                   (oracle._upper_integrand, upper)):
            ours = oracle._quad_checked(vectorised, 0.0, r)
            ref = _reference_quad(scalar, 0.0, r)
            assert abs(ours - ref) <= 1e-14 * abs(ref)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_member_modulus_agrees_with_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            w_fn, _ = sample_schwarz_function(rng)
            integrand = lambda t: (parabola_map(complex(w_fn(t))) / t).real
            for r in (0.2, 0.5, 0.8, 0.95):
                ref = r * math.exp(_reference_quad(integrand, 0.0, r))
                assert abs(member_growth_modulus(w_fn, r) - ref) <= 1e-14 * ref


def _traced_peak(fn, *args):
    # peak bytes that Python and numpy allocate during one call
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestInclusion:
    def test_constant_map_passes(self):
        rep = check_subordination_inclusion(lambda z: np.ones_like(z), 0.5)
        assert rep.passed

    @staticmethod
    def _one_array_worst(map_fn, r, samples):
        # reference: every sample in one array, angles by np.linspace
        theta = np.linspace(-PI, PI, samples, endpoint=False)
        w = map_fn(r * np.exp(1j * theta))
        return float(np.min(region.margin(w)))

    # the benchmark's inclusion targets; at 2^18 and 2^20 samples a sweep
    # spans 33 and 129 blocks
    @pytest.mark.parametrize("tid", ["sp", "sine", "lune", "cosh_sqrt", "asinh", "cardioid"])
    def test_blocks_match_one_array_sweep(self, tid):
        block = oracle._SWEEP_BLOCK
        phi = target_map("ronning_parabola" if tid == "sp" else tid)
        radius = radii.get_entry(tid).closed_form
        for r in (0.9 * radius, min(1.1 * radius, 0.999)):
            for samples in (1, block - 1, block, block + 1, 2 * block + 3, 1 << 18, 1 << 20):
                rep = check_subordination_inclusion(phi, r, samples)
                ref = self._one_array_worst(phi, r, samples)
                assert rep.oracle_value == ref
                assert rep.passed == (ref > 0.0)
                assert rep.samples == samples

    # (target map, radius entry) pairs: maps with real Taylor coefficients,
    # each swept about its entry's radius
    _SYMMETRIC = [
        (("ronning_parabola", {}), ("sp", {})),
        *(((tid, {}), (tid, {})) for tid in ("sine", "lune", "cosh_sqrt", "asinh", "cardioid")),
        (("sigmoid", {}), ("r6_sigmoid", {})),
        (("nephroid", {}), ("r7_nephroid", {})),
        (("lemniscate", {}), ("r8_lemniscate", {})),
        (("reverse_lemniscate", {}), ("r9_reverse_lemniscate", {})),
        (("alpha_exp", {"alpha": 0.0}), ("alpha_exp", {"alpha": 0.0})),
        (("janowski", {"A": 0.5, "B": -0.5}), ("janowski", {"A": 0.5, "B": -0.5})),
    ]

    @pytest.mark.parametrize("target, entry", _SYMMETRIC, ids=lambda p: p[0])
    def test_half_sweep_matches_full_circle(self, target, entry):
        # an even power of two N mirrors every lower angle onto an upper one
        # exactly: bit for bit; at other even N (2^18 + 2) the mirrored
        # angles may round apart, at odd N the grid does not mirror
        block = oracle._SWEEP_BLOCK
        phi = target_map(target[0], **target[1])
        radius = radii.get_entry(entry[0], **entry[1]).closed_form
        for r in (0.9 * radius, min(1.1 * radius, 0.999)):
            for samples in (1, 2, 3, 7, 4096, 4097, block - 1, block, block + 1, 2 * block,
                            2 * block + 3, (1 << 18) + 2):
                rep = check_subordination_inclusion(phi, r, samples)
                ref = self._one_array_worst(phi, r, samples)
                if samples % 2 == 0 and samples & (samples - 1) == 0:
                    assert rep.oracle_value == ref
                else:
                    assert abs(rep.oracle_value - ref) <= 1e-15
                assert rep.passed == (ref > 0.0)
                assert rep.samples == samples

    @pytest.mark.parametrize("samples", [1, 2, 3, 4096, (1 << 17) - 1, (1 << 17) + 1,
                                         1 << 18, 1 << 20,
                                         *(1 << k for k in (13, 14, 15, 16, 17, 19))])
    def test_points_are_minus_pi_and_upper_half(self, samples):
        theta = np.linspace(-PI, PI, samples, endpoint=False)[np.r_[0, (samples + 1) // 2:samples]]
        assert theta[0] == -PI and (theta[1:] >= 0.0).all() and (theta < PI).all()
        expected = 0.5 * np.exp(1j * theta)
        sizes = []

        def counting(z):
            done = sum(sizes)
            assert z.size <= oracle._SWEEP_BLOCK + 1
            # the bytes of r * np.exp(1j * theta), signed zeros included
            assert z.tobytes() == expected[done:done + z.size].tobytes()
            sizes.append(z.size)
            return np.ones_like(z)

        rep = check_subordination_inclusion(counting, 0.5, samples)
        assert sum(sizes) == 1 + samples // 2 == theta.size
        assert rep.samples == samples

    def test_non_finite_value_in_last_block_is_singular(self):
        # 2 * block + 3 samples: one call holds -pi and block upper angles,
        # the next the last upper angle
        block = oracle._SWEEP_BLOCK
        sizes = []

        def inf_at_last_sample(z):
            sizes.append(z.size)
            w = np.ones_like(z)
            if len(sizes) == 2:
                w[-1] = np.inf
            return w

        with pytest.raises(SingularOnCircle):
            check_subordination_inclusion(inf_at_last_sample, 0.5, 2 * block + 3)
        assert sizes == [block + 1, 1]

    @pytest.mark.parametrize("samples", [1, 7, 4096, 4097, 2 * oracle._SWEEP_BLOCK + 3])
    def test_nan_margin_at_last_sample_fails(self, samples):
        # w = -1e308 + 1e200j is finite, but its margin 3 - 2 Re w - (Im w)^2
        # is inf - inf = NaN; the running minimum must keep it, as one
        # np.min over every sample does, whichever block holds it
        last = 0.5 * np.exp(1j * np.linspace(-PI, PI, samples, endpoint=False)[-1])

        def nan_at_last_sample(z):
            w = np.ones_like(z)
            if z[-1] == last:
                w[-1] = -1e308 + 1e200j
            return w

        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(region.margin(-1e308 + 1e200j))
            rep = check_subordination_inclusion(nan_at_last_sample, 0.5, samples)
        assert math.isnan(rep.oracle_value)
        assert not rep.passed

    def test_memory_does_not_grow_with_samples(self):
        # one array of 2^20 points is 16 MiB; 2^17-point blocks peaked at
        # 7 MiB, 4096-point blocks (64 KiB each) at 225 KiB at 2^20 and 2^21
        # samples: the bound is five blocks, about 40 % headroom
        phi = target_map("cosh_sqrt")
        r = 0.9 * radii.get_entry("cosh_sqrt").closed_form
        peak_1m = _traced_peak(check_subordination_inclusion, phi, r, 1 << 20)
        peak_2m = _traced_peak(check_subordination_inclusion, phi, r, 1 << 21)
        assert peak_1m <= 5 * 2**16
        assert peak_2m <= peak_1m + 2**12

    def test_cosh_sqrt_two_sided_probe(self):
        phi = target_map("cosh_sqrt")
        r = math.acosh(1.5) ** 2
        assert check_subordination_inclusion(phi, r * (1 - 1e-6)).passed
        assert not check_subordination_inclusion(phi, r * (1 + 1e-3)).passed

    def test_halfplane_probe_for_map(self):
        # image of |z| = tanh^2(pi/4) under the map grazes Re w = 1/2
        r = math.tanh(PI / 4.0) ** 2
        negated = lambda z: -left_parabola(z)
        assert -extremize_on_circle(negated, r * (1 - 1e-6)).value > 0.5
        assert -extremize_on_circle(negated, r * (1 + 1e-3)).value < 0.5


def _zeros_in_certified_disc(f):
    # np.roots, a route independent of the certifier's winding count: does
    # f(z)/z or f' have a zero in |z| <= rho?
    polys = (np.asarray(f.coeffs)[1:], f.derivative().coeffs)
    return any((np.abs(np.roots(c[::-1])) <= oracle._CERTIFY_RHO).any() for c in polys)


def _reference_certify(f, t):
    # (oracle_value, passed, notes) of the certifier as one expression per
    # quantity on the circle |z| = rho, with the series evaluated by the
    # reference Horner; None where the certifier must raise
    if _zeros_in_certified_disc(f):
        return None
    z = oracle._CERTIFY_RHO * np.exp(1j * np.linspace(-PI, PI, 4096, endpoint=False))
    fp = f.derivative()
    fpp = fp.derivative()
    fv, fpv, fppv = (reference_horner(s.coeffs, z) for s in (f, fp, fpp))
    lhs = np.abs(t * (1.0 + z * fppv / fpv) + (1.0 - t) * z * fpv / fv - 1.0)
    sup = float(np.max(lhs))
    passed = sup < (3.0 + 2.0 * t) / 6.0
    notes = f"sup over {z.size} samples"
    if passed:
        w = z * fpv / fv
        disc_margin = 0.5 - float(np.max(np.abs(w - 1.0)))
        region_margin = float(np.min(region.margin(w)))
        passed = disc_margin > 0.0 and region_margin > 0.0
        notes += (f"; conclusion margins: disc {disc_margin:.3e}, "
                  f"region {region_margin:.3e}")
    return sup, passed, notes


def _assert_matches_reference(f, t):
    # the certifier's report against the reference, bit for bit; the
    # certifier raises exactly where np.roots finds a zero in the disc
    ref = _reference_certify(f, t)
    if ref is None:
        with pytest.raises(DerivativeVanishes):
            certify_sufficient_condition(f, t)
        return False
    rep = certify_sufficient_condition(f, t)
    sup, passed, notes = ref
    assert np.float64(rep.oracle_value).tobytes() == np.float64(sup).tobytes()
    assert (rep.passed, rep.notes) == (passed, notes)
    return passed


class TestCertify:
    def test_matches_one_expression_reference(self):
        # 200 seeded members, coefficients scaled so that about half fail,
        # and extremal members of two degrees
        rng = np.random.default_rng(26)
        members = verify.random_polynomial_members(rng, 200)
        members += [extremal_lower(8), extremal_upper(8), extremal_lower(64)]
        passes = raised = 0
        for k, f in enumerate(members):
            if k < 200:
                scale = rng.choice([1.0, 2.0, 4.0])
                f = PowerSeries(np.concatenate(([0.0, 1.0], scale * f.coeffs[2:])))
            t = float(rng.uniform(0.0, 1.0))
            raised += _zeros_in_certified_disc(f)
            passes += _assert_matches_reference(f, t)
        assert 20 < passes < len(members) - 20
        assert 20 < raised < len(members) - 20

    def test_identity_passes_all_t(self):
        f = PowerSeries([0.0, 1.0])
        for t in (0.0, 0.5, 1.0):
            rep = certify_sufficient_condition(f, t)
            assert rep.passed
            assert rep.oracle_value < 1e-14

    def test_quadratic_threshold(self):
        # sup |c z/(1+c z)| on |z| = r is c r/(1 - c r)
        rho = oracle._CERTIFY_RHO
        good = certify_sufficient_condition(PowerSeries([0.0, 1.0, 0.3]), 0.0)
        assert good.passed
        expected = 0.3 * rho / (1.0 - 0.3 * rho)
        assert abs(good.oracle_value - expected) < 1e-12
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
        # place the zero of f' exactly on the sample z = 0.999 (angle 0):
        # re-sampling the arcs next to it leaves the count unresolved
        c = -1.0 / (2.0 * 0.999)
        with pytest.raises(DerivativeVanishes, match="f': zero count unresolved"):
            certify_sufficient_condition(PowerSeries([0.0, 1.0, c]), 0.0)

    def test_interior_zero_of_derivative_detected(self):
        # f' = 1 - z/z0 vanishes at z0, well inside the circle and far from
        # every sample; f(z)/z = 1 - z/(2 z0) has no zero in the disc
        z0 = 0.55 * np.exp(0.1j)
        with pytest.raises(DerivativeVanishes, match="f' has winding number 1"):
            certify_sufficient_condition(PowerSeries([0.0, 1.0, -0.5 / z0]), 0.5)

    def test_zero_near_circle_counted_on_its_side(self):
        # f' vanishes midway between two neighbouring samples, 0.001 inside
        # the circle: counted; mirrored 0.001 outside it: not counted
        mid = np.exp(1j * (-PI + 1000.5 * 2.0 * PI / 4096))
        inside = (oracle._CERTIFY_RHO - 1e-3) * mid
        with pytest.raises(DerivativeVanishes, match="f' has winding number 1"):
            certify_sufficient_condition(PowerSeries([0.0, 1.0, -0.5 / inside]), 0.5)
        outside = (oracle._CERTIFY_RHO + 1e-3) * mid
        assert not certify_sufficient_condition(PowerSeries([0.0, 1.0, -0.5 / outside]), 0.5).passed

    @pytest.mark.parametrize("modulus", [0.9995, 0.9992, 0.9988, 0.9985])
    def test_zero_closer_than_sample_spacing_is_resolved(self, modulus):
        # a zero of f' 0.0005 or less from the circle, midway between two
        # samples (1.5e-3 apart), turns arg f' by more than pi/2 between
        # them; the count re-samples that arc and places the zero
        z0 = modulus * np.exp(1j * PI / 4096)
        f = PowerSeries([0.0, 1.0, -0.5 / z0])
        v = f.derivative()(oracle._CERTIFY_Z)
        assert np.max(np.abs(np.angle(v / np.roll(v, 1)))) >= 0.5 * PI
        if modulus > oracle._CERTIFY_RHO:
            assert not certify_sufficient_condition(f, 0.5).passed
        else:
            with pytest.raises(DerivativeVanishes, match="f' has winding number 1"):
                certify_sufficient_condition(f, 0.5)

    @pytest.mark.parametrize("n", [8, 64, 256, 4096])
    def test_extremal_members_are_not_univalent(self, n):
        # f0' and g0' have one zero in the disc, the critical point +r0 and
        # -r0, r0 = tanh^2(pi/(2 sqrt 2)): the class is not univalent.  The
        # count is resolved far from the pi/2 guard even at the CLI's
        # largest degree: the largest step between samples is 0.26 rad
        r0 = math.tanh(PI / (2.0 * math.sqrt(2.0))) ** 2
        for f, sign in ((extremal_lower(n), 1.0), (extremal_upper(n), -1.0)):
            for t in (0.0, 0.5, 1.0):
                with pytest.raises(DerivativeVanishes, match="f' has winding number 1"):
                    certify_sufficient_condition(f, t)
            v = reference_horner(f.derivative().coeffs, oracle._CERTIFY_Z)
            assert np.max(np.abs(np.angle(v / np.roll(v, 1)))) < 0.3
            if n <= 256:
                roots = np.roots(f.derivative().coeffs[::-1])
                inside = roots[np.abs(roots) <= oracle._CERTIFY_RHO]
                assert inside.size == 1 and abs(inside[0] - sign * r0) < 2e-3

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_low_degrees_match_reference_at_end_t(self, t):
        # degree 1 (f'' = 0) and degree 2 members, passing and failing,
        # and seeded members, at both ends of t
        rng = np.random.default_rng(30)
        members = [PowerSeries([0.0, 1.0]),
                   *(PowerSeries([0.0, 1.0, c]) for c in (0.1, 0.3, 0.4, -0.25, 0.2j)),
                   *verify.random_polynomial_members(rng, 20)]
        passes = sum(_assert_matches_reference(f, t) for f in members)
        assert 0 < passes < len(members)

    @pytest.mark.parametrize("degree", [2, 512, cli.MAX_DEGREE])
    def test_memory_stays_within_blocks(self, degree):
        # one 4096-point circle: the certifier peaked at 417, 425 and 481
        # KiB at these degrees (f = z + sum 0.1 z^k / k^3); Horner makes a
        # fresh array per step, so this pins that none of them is kept.
        # The bound is ten 64 KiB arrays
        coeffs = np.zeros(degree + 1)
        coeffs[1] = 1.0
        coeffs[2:] = 0.1 / np.arange(2.0, degree + 1) ** 3
        f = PowerSeries(coeffs)
        assert certify_sufficient_condition(f, 1.0).passed
        assert _traced_peak(certify_sufficient_condition, f, 1.0) <= 10 * 2**16


def _min_real_part(p_fn, r):
    # min Re p on |z| = r, as the negated maximum of the negated map
    return -extremize_on_circle(lambda z: -p_fn(z), r).value


class TestOrderCheck:
    @pytest.mark.parametrize("alpha", [0.0, 0.25])
    def test_map_order_two_sided(self, alpha):
        gamma = math.tanh(PI * math.sqrt(1 - alpha) / (2 * math.sqrt(2))) ** 2
        assert _min_real_part(left_parabola, gamma * (1 - 1e-6)) >= alpha
        assert _min_real_part(left_parabola, gamma * (1 + 1e-3)) < alpha

    def test_constant_function(self):
        assert _min_real_part(lambda z: np.ones_like(z), 0.99) >= 0.9


class TestDiscBounds:
    def test_ratio_class_aggregation(self):
        # value disc of (1+Az)/(1-z) on |z| = r, read off its largest and
        # least real parts, plus two classical log-derivative bounds
        # |z p'/p| <= 2r/(1-r^2) reproduces the aggregated reach
        # (5+A) r/(1-r^2); at A = -1 the Moebius term degenerates to the
        # constant 1
        r = 0.21
        log_derivative = 2.0 * r / (1.0 - r * r)
        for A in (-0.5, 0.0, 1.0):
            phi = target_map("janowski", A=A, B=-1.0)
            hi = extremize_on_circle(phi, r).value
            lo = _min_real_part(phi, r)
            center, radius = (hi + lo) / 2.0, (hi - lo) / 2.0
            total = radius + 2.0 * log_derivative
            assert abs(center - (1 + A * r * r) / (1 - r * r)) < 1e-15
            assert abs(total - (5.0 + A) * r / (1 - r * r)) < 1e-14
        degenerate = 2.0 * log_derivative
        assert abs(degenerate - (5.0 - 1.0) * r / (1 - r * r)) < 1e-14
