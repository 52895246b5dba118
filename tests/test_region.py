import math

import numpy as np
import pytest

from parastar.errors import ArgUndefined, CenterOutsideRange, DomainError
from parastar.maps import parabola_map
from parastar.region import (
    argument_sector_check, boundary_distance_profile, distance_critical_points, inscribed_disc,
    margin, real_part_bounds, real_part_profile,
)

PI = math.pi


class TestMembership:
    def test_center_inside(self):
        assert margin(1.0) == 1.0

    def test_vertex_excluded(self):
        assert margin(1.5) <= 0.0

    def test_tangency_point_excluded(self):
        assert margin(1 + 1j) <= 0.0


class TestRealPartBounds:
    def test_at_zero(self):
        assert real_part_bounds(0.0) == (0.0, 0.0)

    def test_min_closed_form_quarter(self):
        lo, _ = real_part_bounds(0.25)
        assert abs(lo - (-(2.0 / PI**2) * math.log(3.0) ** 2)) < 1e-15

    @pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_against_brute_force(self, r):
        angles = np.linspace(-PI, PI, 10_000, endpoint=False)
        vals = np.real(parabola_map(r * np.exp(1j * angles)))
        lo, hi = real_part_bounds(r)
        assert abs(vals.min() - lo) < 1e-8
        assert abs(vals.max() - hi) < 1e-8
        assert abs(angles[vals.argmin()]) < 1e-12
        assert abs(abs(angles[vals.argmax()]) - PI) < 1e-3

    def test_profile_matches_kernel(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            r = rng.uniform(0.05, 0.9)
            alpha = rng.uniform(-PI, PI)
            direct = parabola_map(r * complex(math.cos(alpha), math.sin(alpha))).real
            prof = real_part_profile(r, math.cos(alpha / 2.0))
            assert abs(direct - prof) < 1e-10

    def test_profile_monotonicity(self):
        rs = np.arange(0.05, 0.96, 0.05)
        maxima = [real_part_profile(r, 0.0) for r in rs]
        minima = [real_part_profile(r, 1.0) for r in rs]
        assert all(b > a for a, b in zip(maxima, maxima[1:]))
        assert all(b < a for a, b in zip(minima, minima[1:]))


class TestInscribedDisc:
    def test_linear_case_values(self):
        assert inscribed_disc(1.0).radius == 0.5
        assert abs(inscribed_disc(1.4).radius - 0.1) < 1e-15

    def test_case_boundary_agreement(self):
        # both formulas must agree at a = 1/2 (zeta -> 0 gives 1; 3/2 - a gives 1)
        disc = inscribed_disc(0.5)
        assert abs(disc.radius - 1.0) < 1e-9
        assert abs(disc.zeta) < 1e-15

    def test_zeta_eta_relation(self):
        for a in (-2.0, -1.0, 0.0, 0.4):
            disc = inscribed_disc(a)
            expect = math.log(math.sqrt(disc.eta) / math.sqrt(1.0 - disc.eta))
            assert abs(disc.zeta - expect) < 1e-12

    def test_origin_disc_against_minimisation(self):
        # 1-d oracle: refine the distance profile minimum over X in (0, 1)
        disc = inscribed_disc(0.0)
        xs = np.linspace(1e-6, 1 - 1e-6, 20_001)
        vals = np.array([boundary_distance_profile(0.0, x) for x in xs])
        i = int(vals.argmin())
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
        for _ in range(200):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if boundary_distance_profile(0.0, m1) < boundary_distance_profile(0.0, m2):
                hi = m2
            else:
                lo = m1
        best = boundary_distance_profile(0.0, 0.5 * (lo + hi))
        assert abs(disc.radius**2 - best) < 1e-9

    def test_center_range(self):
        with pytest.raises(CenterOutsideRange):
            inscribed_disc(1.5)

    def test_containment_probes(self):
        phis = np.linspace(-PI, PI, 256, endpoint=False)
        for a in (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.4):
            r = inscribed_disc(a).radius
            assert np.all(margin(a + r * (1 - 1e-9) * np.exp(1j * phis)) > 0)
            assert np.any(margin(a + r * (1 + 1e-3) * np.exp(1j * phis)) <= 0)


class TestDistanceProfile:
    def test_log_free_point(self):
        # X = 1/sqrt(2) kills the log term: profile = (a - 3/2)^2
        assert abs(boundary_distance_profile(0.5, 1.0 / math.sqrt(2.0)) - 1.0) < 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            boundary_distance_profile(0.0, 1.0)
        with pytest.raises(DomainError):
            boundary_distance_profile(0.0, 0.0)

    @pytest.mark.parametrize("a", [-1.0, -0.25, 0.0, 0.25])
    def test_critical_points_match_argmin(self, a):
        xs = np.linspace(1e-4, 1 - 1e-6, 50_001)
        vals = np.array([boundary_distance_profile(a, x) for x in xs])
        x_min = xs[vals.argmin()]
        points = distance_critical_points(a)
        assert min(abs(x_min - p) for p in points) < 1e-3

    @pytest.mark.parametrize("a", [-1.0, -0.5, 0.0, 0.25, 0.5])
    def test_profile_at_critical_points_equals_radius_sq(self, a):
        r = inscribed_disc(a).radius
        best = min(boundary_distance_profile(a, x) for x in distance_critical_points(a))
        assert abs(best - r * r) < 1e-9


class TestArgumentSector:
    def test_interior_point(self):
        assert argument_sector_check(1.0)

    def test_tangency_boundary_strict(self):
        assert not argument_sector_check(1 + 1j)

    def test_undefined_at_two(self):
        with pytest.raises(ArgUndefined):
            argument_sector_check(2.0)

    def test_region_samples_all_pass(self):
        rng = np.random.default_rng(9)
        x = 1.5 - rng.exponential(1.5, 100_000)
        y = rng.uniform(-0.999, 0.999, 100_000) * np.sqrt(3.0 - 2.0 * x)
        w = x + 1j * y
        inside = margin(w) > 0
        assert inside.all()
        assert np.all(argument_sector_check(w))

    def test_array_matches_scalar(self):
        # interior points, the tangency points 1 +- i and points outside the
        # sector: the numpy route gives the scalar route's booleans
        rng = np.random.default_rng(4)
        w = np.concatenate((rng.normal(1.0, 2.0, 500) + 1j * rng.normal(0.0, 2.0, 500),
                            [1 + 1j, 1 - 1j, 3.0, -1.0, 2.0 + 1e-300j]))
        got = argument_sector_check(w)
        assert got.shape == w.shape
        assert got.tolist() == [argument_sector_check(x) for x in w]

    def test_array_undefined_at_two(self):
        with pytest.raises(ArgUndefined):
            argument_sector_check(np.array([1.0, 2.0 + 0j]))
