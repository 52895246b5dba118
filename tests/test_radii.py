import math
import re
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parastar.errors import DomainError, ParamRange, UnknownTarget
from parastar.maps import left_parabola, target_map
from parastar.oracle import _ABS_TOL, extremize_on_circle
from parastar.radii import (
    RadiusEntry, default_entries, get_entry, inner_disc_radius, majorization_phi,
    majorization_psi, oracle_root, COROLLARY, TABLE_ROWS, _CIRCLE_MAX, _REGISTRY,
)
from support import assert_quoted, min_and_max, sequential_extremize

PI = math.pi
SQRT2 = math.sqrt(2.0)


def tanh_sq(x):
    return math.tanh(x) ** 2


class TestCatalogContract:
    @pytest.mark.parametrize("entry", default_entries(), ids=lambda e: e.label)
    def test_closed_form_in_range(self, entry):
        assert 0.0 < entry.closed_form <= 1.0

    @pytest.mark.parametrize("entry", default_entries(), ids=lambda e: e.label)
    def test_oracle_agreement(self, entry):
        assert abs(entry.closed_form - oracle_root(entry)) < 1e-9

    @pytest.mark.parametrize("entry", default_entries(), ids=lambda e: e.label)
    def test_condition_sign_crossing(self, entry):
        if entry.capped:
            assert entry.condition(1.0 - 1e-9) < 0.0
            return
        r = entry.closed_form
        assert abs(entry.condition(r)) < 1e-6
        lo = entry.condition(max(r - 1e-3, entry.bracket[0]))
        hi = entry.condition(min(r + 1e-3, entry.bracket[1]))
        assert lo * hi < 0.0

    @pytest.mark.parametrize("entry", default_entries(), ids=lambda e: e.label)
    def test_witness_margins(self, entry):
        if entry.witness_margin is not None:
            assert abs(entry.witness_margin()) < 1e-9


class TestMainTheoremValues:
    def test_parabolic_starlike(self):
        assert get_entry("sp").closed_form == tanh_sq(PI / 4.0)

    def test_sine(self):
        assert get_entry("sine").closed_form == PI / 6.0

    def test_lune(self):
        assert abs(get_entry("lune").closed_form - 5.0 / 12.0) < 1e-15

    def test_cosh_sqrt(self):
        assert get_entry("cosh_sqrt").closed_form == math.acosh(1.5) ** 2

    def test_asinh(self):
        assert get_entry("asinh").closed_form == math.sinh(0.5)

    def test_cardioid_quoted(self):
        assert_quoted(get_entry("cardioid").closed_form, 0.3517, digits=4)

    def test_bs_family(self):
        assert get_entry("bs", alpha=0.0).closed_form == 0.5
        for alpha in (0.25, 0.5, 0.75):
            expect = 1.0 / (1.0 + math.sqrt(1.0 + alpha))
            assert get_entry("bs", alpha=alpha).closed_form == expect
        # continuity toward alpha = 0
        assert abs(get_entry("bs", alpha=1e-8).closed_form - 0.5) < 1e-8
        # no cancellation near alpha = 0: (sqrt(1 + alpha) - 1)/alpha missed
        # the oracle root by 4.15e-8 at 1e-9 and by 4.45e-5 at 1e-12
        for alpha in (1e-9, 1e-12):
            entry = get_entry("bs", alpha=alpha)
            assert abs(entry.closed_form - oracle_root(entry)) <= 1e-9

    def test_alpha_exp_values(self):
        assert abs(get_entry("alpha_exp", alpha=0.0).closed_form
                   - math.log(1.5)) < 1e-15
        threshold = 1.0 - 1.0 / (2.0 * (math.e - 1.0))
        assert get_entry("alpha_exp", alpha=threshold + 0.01).closed_form == 1.0
        just_below = get_entry("alpha_exp", alpha=threshold - 1e-9).closed_form
        assert abs(just_below - 1.0) < 1e-8

    def test_janowski_piecewise(self):
        entry = get_entry("janowski", A=0.5, B=-0.5)
        assert entry.closed_form == 1.0 / 2.5
        assert get_entry("janowski", A=0.3, B=-0.1).closed_form == 1.0
        with pytest.raises(ParamRange):
            get_entry("janowski", A=0.5, B=0.7)
        with pytest.raises(ParamRange):
            get_entry("janowski", A=0.5, B=-1.0)

    def test_janowski_condition_matches_circle_max(self):
        # the circle extremization agrees with the algebraic value disc,
        # whose rightmost point is phi(r): phi(r) - phi(-r) = 2 (A - B) r /
        # (1 - B^2 r^2) > 0, on pairs with B > 0 and on capped pairs too
        for A, B in ((0.5, -0.5), (1.0, -0.9), (0.3, -0.1), (0.9, 0.2), (0.4, 0.3),
                     (1.0, 0.95), (-0.5, -0.99)):
            entry = get_entry("janowski", A=A, B=B)
            phi = target_map("janowski", A=A, B=B)
            for r in (1e-9, 0.2, 0.35, 0.6, 0.9, 0.99):
                assert phi(r).real > phi(-r).real
                assert abs(entry.condition(r) - (phi(r).real - 1.5)) <= 1e-15, (A, B, r)


class TestOrderAndDiscRadii:
    def test_starlikeness_radius_quoted(self):
        assert_quoted(get_entry("caratheodory", alpha=0.0).closed_form, 0.6469, digits=4)

    def test_order_limit(self):
        assert get_entry("caratheodory", alpha=1.0 - 1e-12).closed_form < 1e-11

    def test_half_order_equals_sp_radius(self):
        # the root of map(r) = 1/2 coincides with tanh^2(pi/4)
        assert abs(get_entry("caratheodory", alpha=0.5).closed_form - tanh_sq(PI / 4.0)) < 1e-15

    def test_small_alpha_asymptotics(self):
        # tanh^2(pi sqrt(alpha)/(2 sqrt 2)) ~ alpha pi^2 / 8
        alpha = 1e-8
        r = get_entry("disc_class", alpha=alpha).closed_form
        assert abs(r / (alpha * PI**2 / 8.0) - 1.0) < 1e-6

    def test_duality_exact(self):
        for beta in (0.1, 0.25, 0.5, 0.9):
            assert get_entry("beta_disc", beta=beta).closed_form == \
                get_entry("caratheodory", alpha=1.0 - beta).closed_form

    def test_beta_disc_degenerates_at_zero(self):
        # the formula value at beta = 0 is radius 0 (no entry is built for it)
        assert math.tanh(PI * math.sqrt(0.0) / (2.0 * SQRT2)) ** 2 == 0.0
        assert get_entry("beta_disc", beta=1e-10).closed_form < 1e-9
        with pytest.raises(ParamRange):
            get_entry("beta_disc", beta=0.0)

    @pytest.mark.parametrize("entry_id, name, in_domain, level", [
        ("disc_class", "alpha", lambda v: 0.0 < v <= 1.0, lambda v: v),
        ("beta_disc", "beta", lambda v: 0.0 < v < 1.0, lambda v: v),
        ("caratheodory", "alpha", lambda v: 0.0 <= v < 1.0, lambda v: 1.0 - v),
        ("mbeta", "beta", lambda v: 1.0 < v < 1.5, lambda v: v - 1.0),
    ], ids=["disc_class", "beta_disc", "caratheodory", "mbeta"])
    @settings(max_examples=150, deadline=None)
    @given(value=st.floats(0.0, 1.5))
    @example(value=1e-12)
    @example(value=1.0 - 1e-12)
    @example(value=1.0 - 1e-15)
    @example(value=math.nextafter(1.0, 0.0))
    @example(value=1e-30)
    @example(value=1e-300)
    @example(value=1.0 + 2.0**-52)
    @example(value=1.0 + 1e-12)
    @example(value=1.5 - 1e-12)
    @example(value=math.nextafter(1.5, 0.0))
    def test_oracle_root_over_whole_domain(self, entry_id, name, in_domain, level, value):
        # each condition is nonzero at r = 0, where its bracket starts; a
        # floor of 1e-9 lost the roots of about 1.2e-12 at the examples.
        # mbeta's bracket ends at 1.0, where k(-1) = 1/2 > beta - 1, so its
        # roots just below 1 are found too.  ITP narrows a bracket from 0.0
        # to 1e-9 of its root, so the kernel-level roots (disc_class,
        # beta_disc, mbeta) keep their digits down to a level of 1e-300, and
        # caratheodory's, k(r) + (1 - alpha) with 1 - alpha exact, down to
        # 1 - alpha = 2^-53; golden's root below the absolute tolerance may
        # be 0.0
        if not in_domain(value):
            with pytest.raises(ParamRange):
                get_entry(entry_id, **{name: value})
            return
        entry = get_entry(entry_id, **{name: value})
        for method in ("bisect", "golden"):
            root = oracle_root(entry, method)
            assert abs(root - entry.closed_form) <= 1e-9, method
            assert root > 0.0 or entry.closed_form <= _ABS_TOL, method
            if method == "bisect" and level and level(value) >= 1e-300:
                assert 0.0 < root and abs(root - entry.closed_form) <= 1e-9 * entry.closed_form

    def test_monotonicity(self):
        alphas = np.linspace(0.05, 0.95, 10)
        gammas = [get_entry("caratheodory", alpha=a).closed_form for a in alphas]
        discs = [get_entry("disc_class", alpha=a).closed_form for a in alphas]
        assert all(b < a for a, b in zip(gammas, gammas[1:]))
        assert all(b > a for a, b in zip(discs, discs[1:]))
        bs = [get_entry("bs", alpha=a).closed_form for a in alphas]
        assert all(b < a for a, b in zip(bs, bs[1:]))


# the corollary closed forms as tanh^2 expressions, each simplified by hand
# from tanh^2(pi sqrt(c)/(2 sqrt 2)) at its inner-disc constant c
_ETA = math.sqrt(2.0 * (SQRT2 - 1.0))
_PRINTED_COROLLARY = {
    "r1_exp": tanh_sq(PI * 0.5 * math.sqrt((math.e - 1.0) / (2.0 * math.e))),
    "r2_sine": tanh_sq(PI / (2.0 * math.sqrt(2.0 / math.sin(1.0)))),
    "r3_cosh_sqrt": tanh_sq(PI * math.sin(0.5) / 2.0),
    "r4_cardioid": tanh_sq(PI / (2.0 * math.sqrt(2.0 * math.e))),
    "r5_asinh": tanh_sq(PI * math.sqrt(0.5 * math.asinh(1.0)) / 2.0),
    "r6_sigmoid": tanh_sq(PI * math.sqrt((math.e - 1.0) / (math.e + 1.0)) / (2.0 * SQRT2)),
    "r7_nephroid": tanh_sq(PI / (2.0 * math.sqrt(3.0))),
    "r8_lemniscate": tanh_sq(PI * math.sqrt(SQRT2 - 1.0) / (2.0 * SQRT2)),
    "r9_reverse_lemniscate": tanh_sq(PI * (_ETA * (1.0 - _ETA)) ** 0.25 / (2.0 * SQRT2)),
}


class TestCorollaryRadii:
    def test_closed_forms_near_printed_forms(self):
        # each closed form is tanh^2(pi sqrt(c)/(2 sqrt 2)) at its stated c,
        # so it may round apart from the printed form: by 3 ulps at most as
        # measured (r3_cosh_sqrt, r7_nephroid), by none for r4, r5, r6, r8, r9
        assert list(_PRINTED_COROLLARY) == list(COROLLARY)
        for entry_id, printed in _PRINTED_COROLLARY.items():
            closed = get_entry(entry_id).closed_form
            assert abs(closed - printed) <= 4 * math.ulp(printed), entry_id

    def test_r8_r9_quoted_truncated(self):
        assert_quoted(get_entry("r8_lemniscate").closed_form, 0.376,
                      digits=3, truncated=True)
        assert_quoted(get_entry("r9_reverse_lemniscate").closed_form, 0.283,
                      digits=3, truncated=True)

    def test_r1_equals_disc_radius_at_exp_constant(self):
        # the corollary value is the disc radius at alpha = 1 - 1/e
        r1 = get_entry("r1_exp").closed_form
        assert abs(r1 - get_entry("disc_class", alpha=1.0 - 1.0 / math.e).closed_form) < 1e-15

    @pytest.mark.parametrize("target,params,expected", [
        ("alpha_exp", {"alpha": 0.0}, 1.0 - 1.0 / math.e),
        ("sine", {}, math.sin(1.0)),
        ("cosh_sqrt", {}, 1.0 - math.cos(1.0)),
        ("cardioid", {}, 1.0 / math.e),
        ("asinh", {}, math.asinh(1.0)),
        ("sigmoid", {}, (math.e - 1.0) / (math.e + 1.0)),
        ("nephroid", {}, 2.0 / 3.0),
        ("lemniscate", {}, SQRT2 - 1.0),
        ("reverse_lemniscate", {}, math.sqrt(_ETA * (1.0 - _ETA))),
    ])
    def test_inner_disc_constants(self, target, params, expected):
        # the COROLLARY row states the constant c, and c is min |phi - 1| on
        # the unit circle to 2 ulps of 1/2 at most (r8_lemniscate, measured)
        (c,) = [c for c, t, p in COROLLARY.values() if (t, p) == (target, params)]
        assert c == expected
        assert abs(inner_disc_radius(target, **params) - c) <= 4.4e-16

    def test_unknown_id(self):
        with pytest.raises(UnknownTarget):
            get_entry("r10")


def _half_and_full(monkeypatch):
    """Make every radii extremization also run the round-by-round loop on
    the full circle; returns the list that collects (map, half-circle
    result, full-circle maximum) per call."""
    import parastar.oracle as oracle

    calls = []
    extremize = oracle.extremize_on_circle

    def both(map_fn, r):
        half = extremize(map_fn, r)
        calls.append((map_fn, half, sequential_extremize(map_fn, r, half=False)[1]))
        return half

    monkeypatch.setattr(oracle, "extremize_on_circle", both)
    return calls


_CIRCLE_MAX_ROWS = [
    *((cid, {}) for cid, (names, *_) in _CIRCLE_MAX.items() if not names),
    *(("bs", {"alpha": a}) for a in (0.0, 0.3, 0.6, 0.9)),
    *(("alpha_exp", {"alpha": a}) for a in (0.0, 0.3, 0.6, 0.9)),
    *(("janowski", {"A": A, "B": B}) for A, B in ((0.5, -0.5), (1.0, -0.9), (0.3, -0.1))),
]


class TestHalfCircle:
    # the circle-max conditions and the inner-disc constants sample the
    # coarse pass on the upper half circle only; their maps have real
    # coefficients, so the extremes match the full circle bit for bit

    @pytest.mark.parametrize("entry_id, params", _CIRCLE_MAX_ROWS)
    def test_circle_max_bit_equal(self, monkeypatch, entry_id, params):
        entry = get_entry(entry_id, **params)
        calls = _half_and_full(monkeypatch)
        radii = np.linspace(0.05, 0.95, 13)
        for r in radii:
            entry.condition(r)
        assert len(calls) == radii.size
        assert [h.value for _, h, _ in calls] == [f for _, _, f in calls]

    @pytest.mark.parametrize("entry_id", list(COROLLARY))
    def test_inner_disc_minimum_bit_equal(self, monkeypatch, entry_id):
        _, target, params = COROLLARY[entry_id]
        calls = _half_and_full(monkeypatch)
        constant = inner_disc_radius.__wrapped__(target, **params)
        ((_, half, full),) = calls
        assert constant == -half.value == -full


def _map_call_sizes(monkeypatch):
    """Record the map calls of every radii extremization; returns the list
    that collects, per extremization, the point count of each call."""
    import parastar.oracle as oracle

    calls = []
    extremize = oracle.extremize_on_circle

    def counted(map_fn, r):
        sizes = []
        calls.append(sizes)
        return extremize(lambda z: sizes.append(np.size(z)) or map_fn(z), r)

    monkeypatch.setattr(oracle, "extremize_on_circle", counted)
    return calls


class TestBracketEnds:
    # peaks are sharpest at the ends of the solver bracket, where the
    # coarse pass and the speculative rounds must still pick as the
    # round-by-round loop does

    @pytest.mark.parametrize("entry_id, params", _CIRCLE_MAX_ROWS)
    def test_bit_equal_at_bracket_ends(self, entry_id, params):
        phi = get_entry(entry_id, **params).target
        for r in (0.0, 1e-9, 0.99, 0.999, 1.0 - 1e-9):
            for functional in ("re", "abs"):
                assert min_and_max(phi, r, functional) == sequential_extremize(phi, r, functional)

    def test_point_budget(self, monkeypatch):
        # one condition call: a first call of the 129-angle coarse pass and
        # the offsets delta > 0 of all seven rounds about theta = 0,
        # 129 + 7 x 16 points; then, after a coarse pick elsewhere, all
        # seven rounds about it, and speculative calls of the rounds left,
        # 33 points each, at most 6 + 5 + ... + 1 rounds when every round
        # moves the maximum; fewer points in all than the 2049 angles of a
        # half-grid pass alone
        calls = _map_call_sizes(monkeypatch)
        get_entry("sp").condition(0.4)
        (points,) = calls
        assert points[0] == 129 + 7 * 16
        assert all(n % 33 == 0 for n in points[1:])
        assert sum(points) <= 129 + 7 * 16 + 7 * 33 + 21 * 33 < 2049


class TestTieRule:
    # a round moves only to a strictly larger value; the earlier rule moved
    # to the first tied point, as argmax does.  The rule changes the angles
    # that are returned, not the values on the catalog maps

    @pytest.mark.parametrize("entry_id, params", _CIRCLE_MAX_ROWS)
    def test_condition_values_as_first_index_rule(self, entry_id, params):
        phi = get_entry(entry_id, **params).target
        for r in (0.0, 1e-9, *np.linspace(0.05, 0.95, 19), 0.99, 0.999, 1.0 - 1e-9):
            first = sequential_extremize(phi, r, first_index=True)[1]
            assert extremize_on_circle(phi, r).value == first

    @pytest.mark.parametrize("entry_id", list(COROLLARY))
    def test_inner_disc_constant_as_first_index_rule(self, entry_id):
        _, target, params = COROLLARY[entry_id]
        phi = get_entry(entry_id).target
        shifted = lambda z: phi(z) - 1.0
        first = sequential_extremize(shifted, 1.0, "abs", first_index=True)[0]
        assert inner_disc_radius.__wrapped__(target, **params) == first

    def test_map_call_count(self, monkeypatch):
        # every circle-max condition of the default catalog at fixed radii,
        # up to the solver bracket's ends, and the nine inner-disc
        # constants: 117 extremizations in 152 map calls, 105 of them one
        # call, as measured (235 calls for 105 extremizations when the
        # first call held the coarse pass alone, 485 when every round took
        # the first tied point and round 0, the window about the coarse
        # pick, had a call of its own); a maximum at theta = 0 that stays
        # at the centre of every window takes one call, as janowski's 12
        # do, since max Re (1 + Az)/(1 + Bz) on |z| = r is at z = r
        entries = default_entries()
        calls = _map_call_sizes(monkeypatch)
        for entry in entries:
            for r in (1e-9, *np.linspace(0.1, 0.9, 9), 0.99, 1.0 - 1e-9):
                entry.condition(r)
        for _, target, params in COROLLARY.values():
            inner_disc_radius.__wrapped__(target, **params)
        counts = [len(sizes) for sizes in calls]
        assert len(counts) == 117
        assert sum(counts) <= 152
        assert counts.count(1) >= 105


# 2^17 equally spaced angles of the whole circle, built apart from the
# extremizer's coarse angles and windows
_DENSE_UNIT = np.exp(1j * np.linspace(-PI, PI, 1 << 17, endpoint=False))
_DENSE_RADII = (1e-9, 0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.99, 0.999, 1.0 - 1e-9)
_DENSE_FUNCTIONALS = {"re": np.real, "-re": lambda w: -w.real,
                      "abs": np.abs, "-abs": lambda w: -np.abs(w)}
# relative to max(1, |value|): rounding of the map where the dense angle
# and the extremizer's final angle differ, far below a missed peak that
# could move a radius by 1e-9
_DENSE_TOL = 1e-12


class TestDenseReference:
    # a brute-force maximum on a dense uniform grid may not exceed the
    # extremizer's value by more than rounding: a peak narrower than the
    # coarse step that the extremizer misses shows here once it is wider
    # than the dense step, 1/512 of the coarse step

    @pytest.mark.parametrize("entry_id, params", _CIRCLE_MAX_ROWS)
    def test_circle_max_maps(self, entry_id, params):
        phi = get_entry(entry_id, **params).target
        for r in _DENSE_RADII:
            w = phi(r * _DENSE_UNIT)
            for name, fn in _DENSE_FUNCTIONALS.items():
                value = extremize_on_circle(lambda z: fn(phi(z)), r).value
                assert np.max(fn(w)) <= value + _DENSE_TOL * max(1.0, abs(value)), (name, r)

    @pytest.mark.parametrize("entry_id", list(COROLLARY))
    def test_inner_disc_constants(self, entry_id):
        _, target, params = COROLLARY[entry_id]
        constant = inner_disc_radius(target, **params)
        dense = np.min(np.abs(get_entry(entry_id).target(_DENSE_UNIT) - 1.0))
        assert dense >= constant - _DENSE_TOL * max(1.0, constant)


def _assert_conjugate_symmetric(phi):
    # phi(conj z) = conj phi(z) on seeded points of the disc |z| < 0.95, to
    # 1e-15 relative; a value below 1 in modulus is measured against 1, the
    # scale of a map normalised to phi(0) = 1 (left_parabola's 1 - (...)
    # cancels to 0.4 with a 2-ulp error of 1)
    rng = np.random.default_rng(7)
    z = 0.95 * np.sqrt(rng.uniform(0.0, 1.0, 256)) * np.exp(1j * rng.uniform(-PI, PI, 256))
    w = np.asarray(phi(z))
    gap = np.abs(np.asarray(phi(np.conj(z))) - np.conj(w))
    assert np.all(gap <= 1e-15 * np.maximum(np.abs(w), 1.0))


class TestConjugateSymmetry:
    # extremize_on_circle samples the upper half circle only, which is
    # exact for phi(conj z) = conj phi(z); a target without this symmetry
    # fails here instead of being extremized on the wrong half circle.
    # Together the two row lists hold every entry that carries a target

    @pytest.mark.parametrize("entry_id, params", _CIRCLE_MAX_ROWS)
    def test_circle_max_target(self, entry_id, params):
        _assert_conjugate_symmetric(get_entry(entry_id, **params).target)

    @pytest.mark.parametrize("entry_id", list(COROLLARY))
    def test_corollary_target(self, entry_id):
        _assert_conjugate_symmetric(get_entry(entry_id).target)

    def test_rows_cover_every_target(self):
        from parastar.verify import _verification_catalog

        rows = {entry_id for entry_id, _ in _CIRCLE_MAX_ROWS} | set(COROLLARY)
        with_target = {e.entry_id for e in _verification_catalog() if e.target is not None}
        assert with_target == rows

    def test_left_parabola(self):
        _assert_conjugate_symmetric(left_parabola)


class TestEntryTarget:
    # the map on the entry is the map its condition samples: the tests above
    # read it from entry.target rather than from the extremizer's arguments

    @pytest.mark.parametrize("entry_id, params", _CIRCLE_MAX_ROWS)
    def test_condition_extremizes_target(self, monkeypatch, entry_id, params):
        import parastar.oracle as oracle

        entry = get_entry(entry_id, **params)
        extremize = oracle.extremize_on_circle
        seen = []
        monkeypatch.setattr(oracle, "extremize_on_circle",
                            lambda map_fn, r: seen.append(map_fn) or extremize(map_fn, r))
        for r in (1e-9, 0.5, 1.0 - 1e-9):
            entry.condition(r)
        assert len(seen) == 3 and all(phi is entry.target for phi in seen)


class TestRatioClass:
    def test_endpoint_values(self):
        assert abs(get_entry("ratio", A=-1.0).closed_form - (math.sqrt(17.0) - 4.0)) < 1e-15
        assert abs(get_entry("ratio", A=1.0).closed_form - (math.sqrt(41.0) - 6.0) / 5.0) < 1e-15

    def test_quoted(self):
        assert_quoted(get_entry("ratio", A=-1.0).closed_form, 0.123, digits=3)
        assert_quoted(get_entry("ratio", A=1.0).closed_form, 0.080, digits=3, truncated=True)

    def test_decreasing_in_A(self):
        vals = [get_entry("ratio", A=a).closed_form for a in np.linspace(-1, 1, 9)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("A", [-1.0, 0.0, 1.0])
    def test_aggregated_disc_containment(self, A):
        # the value disc with center (1+Ar^2)/(1-r^2) and radius
        # (5+A) r/(1-r^2) sits inside the region up to the radius and
        # escapes just past it; verified rather than assumed
        from parastar.region import margin

        phis = np.linspace(-PI, PI, 512, endpoint=False)
        root = get_entry("ratio", A=A).closed_form
        for r, expect_inside in ((root * (1 - 1e-6), True), (root * (1 + 1e-3), False)):
            center = (1.0 + A * r * r) / (1.0 - r * r)
            radius = (5.0 + A) * r / (1.0 - r * r)
            disc = center + radius * np.exp(1j * phis)
            assert bool(np.all(margin(disc) > 0)) == expect_inside
            assert 0.5 <= 1.0 <= center < 1.5

    def test_param_range(self):
        with pytest.raises(ParamRange):
            get_entry("ratio", A=1.5)


class TestMClass:
    def test_limits(self):
        # near beta = 1 the radius is tiny and must stay positive: a form
        # that cancels 1 + 2 cot^2 against 2 |sec|/tan^2 gave -5.96e-8
        beta = 1.0 + 1e-9
        closed = get_entry("mbeta", beta=beta).closed_form
        expected = math.tan(PI * math.sqrt(beta - 1.0) / math.sqrt(2.0) / 2.0) ** 2
        assert 0.0 < closed < 1e-6
        assert abs(closed - expected) <= 1e-12 * expected
        assert get_entry("mbeta", beta=1.5 - 1e-9).closed_form > 1.0 - 1e-3

    @pytest.mark.parametrize("beta", [1.1, 1.25, 1.4])
    def test_closed_form_equals_condition_root(self, beta):
        entry = get_entry("mbeta", beta=beta)
        assert abs(entry.closed_form - oracle_root(entry)) < 1e-9

    def test_closed_form_is_tan_half_delta_sq(self):
        for beta in (1.1, 1.25, 1.4):
            delta = PI * math.sqrt(beta - 1.0) / math.sqrt(2.0)
            closed = get_entry("mbeta", beta=beta).closed_form
            assert abs(closed - math.tan(delta / 2.0) ** 2) < 1e-12

    def test_param_range(self):
        with pytest.raises(ParamRange):
            get_entry("mbeta", beta=1.6)


class TestRootOnlyRadii:
    def test_majorization_quoted(self):
        assert_quoted(get_entry("majorization").closed_form, 0.4220, digits=4, truncated=True)

    def test_majorization_feasibility_profile(self):
        r_star = tanh_sq(PI / (2.0 * SQRT2))
        for sigma in (0.0, 0.5, 1.0):
            assert majorization_phi(0.0, sigma) == 1.0
            assert majorization_phi(r_star, sigma) < 0.0

    def test_majorization_bound_crossing(self):
        rm = get_entry("majorization").closed_form
        assert majorization_psi(rm * (1 - 1e-6), 0.0) < 1.0
        assert majorization_psi(rm * (1 + 1e-3), 0.0) > 1.0

    def test_peng_zhong_condition_shape(self):
        entry = get_entry("peng_zhong")
        assert entry.condition(1e-9) < 0.0
        assert entry.condition(0.6) > 0.0
        # two independent solvers agree
        assert abs(oracle_root(entry, "bisect") - oracle_root(entry, "golden")) < 1e-10

    def test_peng_zhong_against_dense_series(self):
        # degree-64 default against a degree-200 re-derivation
        from parastar.oracle import bracket_root
        from parastar.series import extremal_upper

        g = extremal_upper(200)

        def cond(r):
            s = math.sqrt(r)
            return g(r).real * (2.0 / PI**2) * math.log((1 + s) / (1 - s)) ** 2 - 0.5

        dense_root = bracket_root(cond, 0.1, 0.646)
        assert abs(get_entry("peng_zhong").closed_form - dense_root) < 1e-10


_ABOVE_ONE = math.nextafter(1.0, 2.0)
# entry id: (the range get_entry names, parameter sets on the range's closed
# ends, parameter sets just outside it)
_GATE = {
    "bs": ("alpha in [0, 1)", [{"alpha": 0.0}], [{"alpha": 1.0}]),
    "alpha_exp": ("alpha in [0, 1)", [{"alpha": 0.0}], [{"alpha": 1.0}]),
    "janowski": ("-1 < B < A <= 1", [{"A": 1.0, "B": -0.5}],
                 [{"A": 0.5, "B": -1.0}, {"A": 0.5, "B": 0.5}, {"A": _ABOVE_ONE, "B": 0.0}]),
    "caratheodory": ("alpha in [0, 1)", [{"alpha": 0.0}], [{"alpha": 1.0}, {"alpha": -1e-300}]),
    "disc_class": ("alpha in (0, 1]", [{"alpha": 1.0}], [{"alpha": 0.0}, {"alpha": _ABOVE_ONE}]),
    "beta_disc": ("beta in (0, 1)", [], [{"beta": 0.0}, {"beta": 1.0}]),
    "ratio": ("A in [-1, 1]", [{"A": -1.0}, {"A": 1.0}], [{"A": -_ABOVE_ONE}, {"A": _ABOVE_ONE}]),
    "mbeta": ("beta in (1, 3/2)", [], [{"beta": 1.0}, {"beta": 1.5}]),
}


class TestRegistry:
    def test_get_entry_round_trip(self):
        assert get_entry("sp").entry_id == "sp"
        assert get_entry("bs", alpha=0.5).params == {"alpha": 0.5}
        assert get_entry("r4_cardioid").entry_id == "r4_cardioid"

    def test_unknown_entry(self):
        with pytest.raises(UnknownTarget):
            get_entry("nope")

    @pytest.mark.parametrize("entry_id, name", [
        ("caratheodory", "alpha"), ("disc_class", "alpha"), ("beta_disc", "beta"),
        ("ratio", "A"), ("mbeta", "beta")])
    def test_missing_parameter(self, entry_id, name):
        with pytest.raises(ParamRange, match=f"{entry_id} needs {name}"):
            get_entry(entry_id)

    @pytest.mark.parametrize("entry_id, params", [
        ("sp", {"alpha": 0.3}), ("r7_nephroid", {"beta": 0.5}),
        ("majorization", {"A": 0.1}), ("bs", {"alpha": 0.5, "B": 0.1}),
        ("janowski", {"A": 0.5, "B": -0.5, "alpha": 0.2}),
        ("caratheodory", {"alpha": 0.2, "beta": 0.5}), ("sine", {"alpha": 0.3})])
    def test_unexpected_parameters(self, entry_id, params):
        # the last parameter of each row is the unexpected one
        message = f"unexpected parameters for {entry_id}: {[list(params)[-1]]}"
        with pytest.raises(ParamRange, match=re.escape(message)):
            get_entry(entry_id, **params)

    def test_default_catalog_size(self):
        assert len(default_entries()) >= 20

    def test_registry_parameter_names(self):
        # every table parameter set of an entry names the same parameters,
        # the ones get_entry requires, and every table and verify row lies
        # inside its entry's range
        from parastar.verify import _EXTRA_ROWS

        for entry_id, params in TABLE_ROWS + _EXTRA_ROWS:
            admissible = _REGISTRY[entry_id][2]
            assert admissible is None or admissible[0](**params), (entry_id, params)
        for entry_id, (_, (params, *others), _) in _REGISTRY.items():
            assert all(set(other) == set(params) for other in others), entry_id
            assert get_entry(entry_id, **params).params == params
            for name in params:
                missing = {k: v for k, v in params.items() if k != name}
                with pytest.raises(ParamRange,
                                   match=re.escape(f"{entry_id} needs {' and '.join(params)}")):
                    get_entry(entry_id, **missing)
            with pytest.raises(ParamRange, match=re.escape(
                    f"unexpected parameters for {entry_id}: ['extra']")):
                get_entry(entry_id, **params, extra=0.5)

    @pytest.mark.parametrize("entry_id", [
        eid for eid, (_, (params, *_), _) in _REGISTRY.items() if params])
    def test_parameter_gate(self, entry_id):
        # the sets on the range's closed ends build and solve; get_entry
        # refuses the sets just outside it, and NaN in place of each
        # parameter, naming the range
        text, inside, outside = _GATE[entry_id]
        for params in inside:
            entry = get_entry(entry_id, **params)
            assert abs(oracle_root(entry) - entry.closed_form) <= 1e-9, params
        table = _REGISTRY[entry_id][1][0]
        for params in (*outside, *({**table, name: math.nan} for name in table)):
            with pytest.raises(ParamRange, match=re.escape(f"{entry_id} needs {text}")):
                get_entry(entry_id, **params)


# alpha_exp is capped from 1 - 1/(2(e - 1)) on, where its closed form reaches 1
_EXP_THRESHOLD = 1.0 - 1.0 / (2.0 * (math.e - 1.0))


class TestDomainEdges:
    # the families at the ends of their ranges.  An entry must be capped
    # exactly when its condition is already negative at the bracket's end,
    # or the solver finds no sign change: a closed form in (1 - 1e-9, 1),
    # as alpha_exp's 1e-10 below its threshold and janowski's where
    # 2A - 3B rounds to 1 + 2^-52, was not capped and raised NoSignChange

    @pytest.mark.parametrize("entry_id, params", [
        ("alpha_exp", {"alpha": _EXP_THRESHOLD - 1e-9}),
        ("alpha_exp", {"alpha": _EXP_THRESHOLD - 1e-10}),
        ("alpha_exp", {"alpha": _EXP_THRESHOLD}),
        ("alpha_exp", {"alpha": _EXP_THRESHOLD + 1e-9}),
        *(("janowski", {"A": (1.0 + 3.0 * B) / 2.0, "B": B})
          for B in np.linspace(-0.99, 1.0 / 3.0, 23).tolist()),
        ("janowski", {"A": -0.3773028202844947, "B": -0.5848685468563298}),
        ("bs", {"alpha": 1e-12}),
        ("ratio", {"A": -1.0}),
        ("ratio", {"A": 1.0}),
    ])
    def test_closed_form_and_cap(self, entry_id, params):
        entry = get_entry(entry_id, **params)
        assert entry.capped == (entry.condition(entry.bracket[1]) < 0.0)
        assert abs(entry.closed_form - oracle_root(entry)) <= 1e-9


class TestOracleRoute:
    def test_default_route_is_itp(self, monkeypatch):
        # every uncapped verify entry is solved once by ITP and never by
        # golden section; a capped entry runs no solver at all
        import parastar.oracle as oracle
        from parastar.verify import _verification_catalog

        catalog = _verification_catalog()
        used = []
        for name, attr in (("bisect", "bracket_root"), ("golden", "golden_bracket_root")):
            solver = getattr(oracle, attr)
            monkeypatch.setattr(oracle, attr,
                                lambda *args, _n=name, _s=solver: used.append(_n) or _s(*args))
        for entry in catalog:
            used.clear()
            root = oracle_root(entry)
            assert used == ([] if entry.capped else ["bisect"]), entry.label
            assert abs(root - entry.closed_form) <= 1e-9, entry.label

    @pytest.mark.parametrize("entry_id", ["cardioid", "majorization", "peng_zhong"])
    def test_golden_route_agrees(self, entry_id):
        entry = get_entry(entry_id)
        assert abs(oracle_root(entry, method="golden") - entry.closed_form) <= 1e-9

    @pytest.mark.parametrize("entry_id, closed_route", [
        ("majorization", "left_parabola"), ("peng_zhong", "_upper_extremal_64")])
    def test_oracle_independent_of_closed_form_route(self, monkeypatch, entry_id,
                                                     closed_route):
        # the memoized closed form is an ITP root of a condition evaluated
        # through this name; with it broken the oracle must still reach it
        import parastar.radii as radii

        entry = get_entry(entry_id)

        def broken(*args):
            raise AssertionError(f"oracle used {closed_route}")

        monkeypatch.setattr(radii, closed_route, broken)
        assert abs(oracle_root(entry) - entry.closed_form) <= 1e-9

    def test_unknown_method(self):
        with pytest.raises(ParamRange):
            oracle_root(get_entry("sine"), method="brent")

    def test_capped_nan_condition_raises(self):
        # a capped entry runs no solver, but its one condition value is
        # still checked: NaN is a domain error, not a cap
        entry = RadiusEntry("nan_cap", {}, 1.0, lambda r: math.nan, capped=True)
        with pytest.raises(DomainError):
            oracle_root(entry)

    def test_itp_evaluation_budget(self):
        # every uncapped verify condition solved by ITP: each of the 12
        # circle-max conditions, janowski's two among them (one circle
        # extremization per evaluation, 9 to 11 measured), needs at most
        # 13 evaluations, and the median condition at most 12.  No point is
        # evaluated twice (a regula-falsi point that rounds onto a bracket
        # end becomes the midpoint, in the projected steps too), so
        # peng_zhong (one growth quadrature per evaluation) needs at most 16
        import parastar.oracle as oracle
        from parastar.radii import _CIRCLE_MAX
        from parastar.verify import _verification_catalog

        def evaluations(entry):
            calls = []
            root = oracle.bracket_root(lambda r: calls.append(r) or entry.condition(r),
                                       *entry.bracket)
            assert abs(root - entry.closed_form) <= 1e-9, entry.label
            assert len(set(calls)) == len(calls), (entry.label, sorted(calls))
            return len(calls)

        circle_max = set(_CIRCLE_MAX)
        counts = {e.label: (evaluations(e), e.entry_id in circle_max)
                  for e in _verification_catalog() if not e.capped}
        assert len(counts) == 34
        assert sum(is_circle for _, is_circle in counts.values()) == 12
        assert all(n <= 13 for n, is_circle in counts.values() if is_circle), counts
        assert statistics.median(n for n, _ in counts.values()) <= 12
        assert counts["peng_zhong"][0] <= 16, counts
