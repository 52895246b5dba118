import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parastar.errors import ArgUndefined, CenterOutsideRange
from parastar.maps import parabola_map
from parastar.region import argument_sector_check, inscribed_disc_radius, margin, real_part_bounds
from support import nearest_boundary_distance_sq

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

    def test_profile_monotonicity(self):
        bounds = [real_part_bounds(r) for r in np.arange(0.05, 0.96, 0.05)]
        assert all(b[1] > a[1] for a, b in zip(bounds, bounds[1:]))
        assert all(b[0] < a[0] for a, b in zip(bounds, bounds[1:]))


class TestInscribedDisc:
    def test_linear_case_values(self):
        assert inscribed_disc_radius(1.0) == 0.5
        assert abs(inscribed_disc_radius(1.4) - 0.1) < 1e-15

    def test_case_boundary_agreement(self):
        # both formulas must agree at a = 1/2 (sqrt(2 - 2a) gives 1; 3/2 - a gives 1)
        assert abs(inscribed_disc_radius(0.5) - 1.0) < 1e-9

    def test_origin_disc_against_minimisation(self):
        # 1-d oracle: minimise the distance to y^2 = 3 - 2x over y directly
        assert abs(inscribed_disc_radius(0.0) ** 2 - nearest_boundary_distance_sq(0.0)) < 1e-9

    def test_center_range(self):
        with pytest.raises(CenterOutsideRange):
            inscribed_disc_radius(1.5)

    @pytest.mark.parametrize("a", [-math.inf, math.inf, math.nan])
    def test_non_finite_center_raises(self, a):
        # -inf would give an infinite radius and a disc of NaN points
        with pytest.raises(CenterOutsideRange):
            inscribed_disc_radius(a)

    def test_containment_probes(self):
        phis = np.linspace(-PI, PI, 256, endpoint=False)
        for a in (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.4):
            r = inscribed_disc_radius(a)
            assert np.all(margin(a + r * (1 - 1e-9) * np.exp(1j * phis)) > 0)
            assert np.any(margin(a + r * (1 + 1e-3) * np.exp(1j * phis)) <= 0)

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(-1e3, 1.5, exclude_max=True))
    def test_disc_over_whole_domain(self, a):
        r = inscribed_disc_radius(a)
        circle = np.exp(1j * np.linspace(-PI, PI, 256, endpoint=False))
        assert np.any(margin(a + r * (1 + 1e-3) * circle) <= 0)
        # within 2^-20 of the vertex r * 1e-9 nears an ulp of 3/2 and the
        # inner probe rounds onto the boundary; the radius is then 3/2 - a
        if r > 2.0**-20:
            assert np.all(margin(a + r * (1 - 1e-9) * circle) > 0)
        else:
            assert r == 1.5 - a
        if a <= 0.5:
            # the nearest boundary points (1 + a, +-sqrt(1 - 2a)) lie at distance r_a
            s = math.sqrt(1.0 - 2.0 * a)
            for p in (complex(1.0 + a, s), complex(1.0 + a, -s)):
                assert abs(abs(p - a) - r) <= 1e-14 * r
                assert abs(margin(p)) <= 1e-14 * (1.0 + abs(a))

    @given(d=st.floats(0.0, 0.5))
    def test_branches_meet_continuously(self, d):
        # sqrt(1 + 2d) - (1 - d) lies in [0, 2d]: no jump at a = 1/2
        left, right = inscribed_disc_radius(0.5 - d), inscribed_disc_radius(0.5 + d)
        assert left - right <= 2.0 * d + 1e-15
        assert left >= 1.0 >= right


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
