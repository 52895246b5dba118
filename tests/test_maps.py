import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parastar import maps
from parastar.errors import DomainError, ParamRange, SingularPoint, UnknownTarget
from parastar.maps import left_parabola, parabola_map, ronning_parabola, target_map

PI = math.pi


# the four entry points that check their input with maps._disc_points
_DISC_MAPS = [parabola_map, left_parabola, ronning_parabola, target_map("sine")]


class TestDiscPoints:
    def test_edge_of_tolerance_accepted(self):
        edge = 1.0 + 1e-12
        z = maps._disc_points([edge, -edge, 1j * edge])
        assert z.dtype == np.complex128 and np.array_equal(z, [edge, -edge, 1j * edge])
        with pytest.raises(DomainError, match="outside the closed unit disc"):
            maps._disc_points(np.nextafter(edge, 2.0))

    @pytest.mark.parametrize("z", [1.5, [0.1, 2j], [[0.2, 0.3], [0.4, -1.01]], 1e308 + 1e308j])
    def test_outside_rejected(self, z):
        with pytest.raises(DomainError, match="outside the closed unit disc"):
            maps._disc_points(z)
        for fn in _DISC_MAPS:
            with pytest.raises(DomainError, match="outside the closed unit disc"):
                fn(z)

    @pytest.mark.parametrize("z", [
        math.nan, math.inf, complex(0.0, -math.inf), [0.1, math.nan],
        # the non-finite point is reported even next to an outside point
        [5.0, math.nan], [math.inf, 2.0], [2.0, complex(math.nan, 0.0)],
    ])
    def test_non_finite_rejected_first(self, z):
        with pytest.raises(DomainError, match="non-finite input point"):
            maps._disc_points(z)
        for fn in _DISC_MAPS:
            with pytest.raises(DomainError, match="non-finite input point"):
                fn(z)

    def test_empty_and_scalar_accepted(self):
        assert maps._disc_points([]).shape == (0,)
        assert maps._disc_points(np.zeros((0, 3))).shape == (0, 3)
        scalar = maps._disc_points(0.25)
        assert scalar.shape == () and scalar == 0.25
        for fn in _DISC_MAPS:
            assert fn(np.array([])).shape == (0,)
            assert isinstance(fn(0.25), complex)


class TestParabolaMap:
    def test_normalisation(self):
        assert parabola_map(0) == 0

    def test_direct_substitution_quarter(self):
        # sqrt(0.25) = 0.5, ratio (1+.5)/(1-.5) = 3, value -(2/pi^2) log^2 3
        expected = -(2.0 / PI**2) * math.log(3.0) ** 2
        assert abs(parabola_map(0.25) - expected) < 1e-15

    def test_series_agreement_on_half_disc(self):
        # partial sums of the kernel series against direct evaluation,
        # with the tail controlled by a ratio bound on computed terms
        from parastar.series import p0_coefficients

        n = 40
        coeffs = p0_coefficients(n).coeffs
        rng = np.random.default_rng(7)
        z = 0.5 * rng.uniform(0.1, 1.0, 50) * np.exp(1j * rng.uniform(-PI, PI, 50))
        direct = parabola_map(z)
        partial = sum(coeffs[k] * z**k for k in range(1, n + 1))
        tail = 2.0 * abs(coeffs[n]) * 0.5 ** (n + 1) / (1.0 - 0.5)
        assert np.max(np.abs(direct - partial)) <= tail + 1e-13

    @pytest.mark.parametrize("theta", [0.0, PI])
    def test_real_on_real_axis(self, theta):
        # theta is the parabola's orientation: 0 opens to the left
        # (left_parabola), pi to the right (ronning_parabola); both share
        # parabola_map's kernel, and the principal root of x in [0, 1) is
        # real, so no map leaves an imaginary residue there, on an array or
        # at a scalar; on [-1, 0), sqrt(-s^2) = i s and artanh(i s) =
        # i atan(s) have zero real parts, so the square is real there too
        oriented = {0.0: left_parabola, PI: ronning_parabola}[theta]
        r = np.linspace(0.0, 1.0, 64, endpoint=False)
        for f in (parabola_map, oriented):
            assert (f(r).imag == 0.0).all()
            assert (f(np.linspace(-1.0, 0.0, 100_001)).imag == 0.0).all()
            assert all(f(float(x)).imag == 0.0 for x in np.r_[-r, r])

    def test_right_parabola_divergence_near_one(self):
        val = ronning_parabola(1.0 - 1e-6)
        assert val.real > 15.0

    def test_singular_point_flagged(self):
        with pytest.raises(SingularPoint):
            parabola_map(1.0)
        with pytest.raises(SingularPoint):
            parabola_map(1.0 - 1e-30)

    def test_outside_disc_rejected(self):
        with pytest.raises(DomainError):
            parabola_map(1.5)

    @pytest.mark.parametrize("r", [1e-9, 0.3, 0.7, 0.99, 1.0 - 1e-9])
    def test_principal_root_exact_symmetry(self, r):
        # artanh is odd, so artanh^2 is even in sqrt z and the maps take the
        # principal root: on the upper half circle it is the upper root, and
        # on the first call's points there (all but theta = -pi) the values
        # are the upper-root artanh formula's bit for bit, at a 0-d point
        # too; on the lower half they are the exact conjugates, as the
        # extremizer's mirrored windows read them
        from parastar import oracle

        k = 8.0 / PI**2
        upper = r * oracle._FIRST_UNIT[1:]
        for z in (upper, np.asarray(upper[200])):
            root = np.sqrt(z)
            root = np.where(root.imag < 0.0, -root, root)  # the Im >= 0 root
            atanh_sq = np.arctanh(root) ** 2
            for got, want in ((left_parabola(z), 1.0 - k * atanh_sq),
                              (ronning_parabola(z), 1.0 + k * atanh_sq),
                              (parabola_map(z), -k * atanh_sq)):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
                assert isinstance(got, np.ndarray) == (z.ndim > 0)
        z = upper[upper.imag > 0.0]
        for f in (left_parabola, ronning_parabola, parabola_map):
            w, w_conj = f(z), f(np.conj(z))
            assert w_conj.real.tobytes() == w.real.tobytes()
            assert w_conj.imag.tobytes() == (-w.imag).tobytes()
        with pytest.raises(SingularPoint):
            left_parabola(np.array([0.5, 1.0]))

    @pytest.mark.parametrize("z", [1e-4, 1e-8, 1e-12, 1e-16, 1e-20j, 1e-30])
    def test_matches_mpmath_near_zero(self, z):
        # k(z) = -(8/pi^2) artanh^2(sqrt z) to 40 digits or more: mpmath's
        # complex artanh cancels about log10(1/|z|)/2 digits near 0, so it
        # works at 80; |k(r)| and k(-r) take mpmath's real route at 40
        import mpmath as mp

        with mp.workdps(80):
            k = -8 / mp.pi**2 * mp.atanh(mp.sqrt(mp.mpc(z))) ** 2
        with mp.workdps(40):
            root = mp.sqrt(mp.mpf(abs(z)))
            modulus = 8 / mp.pi**2 * mp.atanh(root) ** 2
            reflection = 8 / mp.pi**2 * mp.atan(root) ** 2
            assert abs(parabola_map(z) - k) <= 5e-16 * abs(k)
            assert abs(maps.kernel_modulus(abs(z)) - modulus) <= 5e-16 * modulus
            assert abs(maps.kernel_reflection(abs(z)) - reflection) <= 5e-16 * reflection

    def test_generic_matches_specialisations(self):
        # left_parabola = 1 + kernel and ronning_parabola = 1 - kernel bit
        # for bit, on first-call circles, random disc points and a 0-d point
        from parastar import oracle

        rng = np.random.default_rng(3)
        rand = 0.9 * rng.uniform(0, 1, 32) * np.exp(1j * rng.uniform(-PI, PI, 32))
        for z in [r * oracle._FIRST_UNIT for r in (1e-9, 0.3, 0.99, 1.0 - 1e-9)] + [rand]:
            for pts in (z, np.asarray(z[20])):
                kernel = parabola_map(pts)
                for got, want in ((left_parabola(pts), 1.0 + kernel),
                                  (ronning_parabola(pts), 1.0 - kernel)):
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestLeftParabola:
    def test_values(self):
        assert left_parabola(0) == 1.0
        assert abs(left_parabola(-1) - 1.5) < 1e-15

    def test_zero_at_starlikeness_radius(self):
        r = math.tanh(PI / (2.0 * math.sqrt(2.0))) ** 2
        assert abs(left_parabola(r)) < 1e-12

    @given(st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False))
    @settings(max_examples=150, deadline=None)
    def test_conjugation_symmetry(self, z):
        # bit for bit: np.sqrt, np.arctanh and the square are each symmetric
        assert left_parabola(z.conjugate()) == left_parabola(z).conjugate()

    def test_real_on_reals(self):
        # exactly real on [0, 1) and on (-1, 0)
        pos = left_parabola(np.linspace(0.0, 0.9, 10))
        assert np.max(np.abs(pos.imag)) == 0.0
        neg = left_parabola(np.linspace(-0.9, -0.1, 9))
        assert np.max(np.abs(neg.imag)) == 0.0


class TestKernelRestrictions:
    @given(st.floats(min_value=1e-300, max_value=1.0, exclude_max=True))
    @settings(max_examples=300, deadline=None)
    def test_accurate_to_a_few_ulps(self, r):
        # against 40-digit mpmath, relative to the conditioning: r -> |k(r)|
        # has condition number kappa = sqrt r/((1 - r) artanh sqrt r), 1 near
        # 0 and unbounded as r -> 1, and the rounded sqrt r passes it on;
        # r -> k(-r) has kappa <= 1
        import mpmath as mp

        eps = 2.0**-52
        s = math.sqrt(r)
        kappa = s / ((1.0 - r) * math.atanh(s))
        modulus, reflection = maps.kernel_modulus(r), maps.kernel_reflection(r)
        assert isinstance(modulus, float) and isinstance(reflection, float)
        assert modulus > 0.0 and reflection > 0.0
        with mp.workdps(40):
            root = mp.sqrt(mp.mpf(r))
            want_modulus = 8 / mp.pi**2 * mp.atanh(root) ** 2
            want_reflection = 8 / mp.pi**2 * mp.atan(root) ** 2
            assert abs(modulus - want_modulus) <= 2.0 * eps * (1.0 + kappa) * want_modulus
            assert abs(reflection - want_reflection) <= 4.0 * eps * want_reflection

    def test_arrays_match_scalars(self):
        r = np.linspace(0.0, 0.99, 100)
        for f in (maps.kernel_modulus, maps.kernel_reflection):
            assert f(r).tobytes() == np.array([f(float(x)) for x in r]).tobytes()

    def test_restrictions_of_the_complex_kernel(self):
        # |k(r)| = -k(r) and k(-r) on [0, 1), to rounding of the complex route
        r = np.linspace(0.0, 0.99, 100)
        assert np.allclose(maps.kernel_modulus(r), -parabola_map(r).real, rtol=1e-15, atol=0)
        assert np.allclose(maps.kernel_reflection(r), parabola_map(-r).real, rtol=1e-15, atol=0)


class TestTargets:
    @pytest.mark.parametrize("target,params", [
        ("alpha_exp", {"alpha": 0.3}),
        ("alpha_sqrt", {"alpha": 0.3}),
        ("cardioid", {}),
        ("sigmoid", {}),
        ("sine", {}),
        ("asinh", {}),
        ("cosh_sqrt", {}),
        ("lune", {}),
        ("lemniscate", {}),
        ("janowski", {"A": 0.5, "B": -0.5}),
        ("nephroid", {}),
        ("ronning_parabola", {}),
        ("reverse_lemniscate", {}),
        ("left_parabola", {}),
    ])
    def test_normalised_at_zero(self, target, params):
        assert abs(target_map(target, **params)(0.0) - 1.0) <= 1e-15

    def test_sine_real_on_reals(self):
        for r in (0.1, 0.4, 0.9):
            val = target_map("sine")(r)
            assert val.imag == 0.0
            assert val.real == 1.0 + math.sin(r)

    def test_janowski_moebius_identity(self):
        # (1 + 0.5)/(1 - 0.5) = 3
        assert abs(target_map("janowski", A=1.0, B=-1.0)(0.5) - 3.0) < 1e-14

    def test_janowski_pole_flagged(self):
        # B = -1 puts the pole at z = 1 on the closed disc
        with pytest.raises(SingularPoint):
            target_map("janowski", A=1.0, B=-1.0)(1.0)

    def test_janowski_param_validation(self):
        with pytest.raises(ParamRange):
            target_map("janowski", A=-0.5, B=0.5)

    def test_unknown_target(self):
        # names are exact strings: no case folding, and an unhashable key is
        # unknown too, not a TypeError
        for target in ("spiral", "nope", "SINE", 3, None, ["sine"]):
            with pytest.raises(UnknownTarget, match="unknown target map"):
                target_map(target)

    def test_alpha_validation(self):
        with pytest.raises(ParamRange):
            target_map("alpha_exp", alpha=1.0)
        with pytest.raises(ParamRange):
            target_map("sine", alpha=0.5)

    def test_lune_explicit_value(self):
        # 5/12 + sqrt(1 + 25/144) = 5/12 + 13/12 = 3/2
        val = target_map("lune")(5.0 / 12.0)
        assert abs(val - 1.5) < 1e-15

    def test_reverse_lemniscate_endpoints(self):
        # z = 1 gives sqrt(2); z = -1 gives 0
        s2 = math.sqrt(2.0)
        assert abs(target_map("reverse_lemniscate")(1.0) - s2) < 1e-14
        assert abs(target_map("reverse_lemniscate")(-1.0)) < 1e-14
