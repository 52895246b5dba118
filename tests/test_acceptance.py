"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 1 includes the quoted-decimal fidelity check for every radius
the source text prints; one of those values (the small-perturbation
radius, quoted 0.522864) is not reproducible from its own defining
condition (computed root 0.519347) and is asserted faithfully anyway,
so that sub-check fails by design.  The analysis is in README.md, in the
paragraph on the sub-check that is red by design.
"""

import json
import math
import subprocess
import sys

import numpy as np

from parastar import region
from parastar.maps import parabola_map
from parastar.oracle import (
    certify_sufficient_condition, covering_constant, growth_bounds, member_growth_modulus,
    sample_schwarz_function,
)
from parastar.radii import get_entry, oracle_root
from parastar.region import inscribed_disc_radius, margin, real_part_bounds
from parastar.series import PowerSeries, extremal_lower, extremal_upper
from support import nearest_boundary_distance_sq, quoted_ok

PI = math.pi
SQRT2 = math.sqrt(2.0)


def announce(capsys, number, name, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        tail = f" ({detail})" if detail else ""
        print(f"\nacceptance criterion {number} [{name}]: {status}{tail}")


def test_criterion_1_radius_agreement(capsys):
    failures = []

    def check(entry, quoted=None, digits=4, truncated=False, symbolic=None):
        root = oracle_root(entry)
        if abs(entry.closed_form - root) >= 1e-9:
            failures.append(f"{entry.label}: closed {entry.closed_form!r} vs "
                            f"oracle {root!r}")
        if symbolic is not None and abs(entry.closed_form - symbolic) > 1e-14:
            failures.append(f"{entry.label}: closed form differs from symbolic value")
        if quoted is not None and not quoted_ok(entry.closed_form, quoted,
                                                digits, truncated):
            failures.append(f"{entry.label}: closed {entry.closed_form:.7f} does not "
                            f"match quoted {quoted}")

    # containment radii of the classical classes into the parabolic class
    check(get_entry("sp"), symbolic=math.tanh(PI / 4.0) ** 2)
    check(get_entry("sine"), symbolic=PI / 6.0)
    check(get_entry("lune"), symbolic=5.0 / 12.0)
    check(get_entry("cosh_sqrt"), symbolic=math.acosh(1.5) ** 2)
    check(get_entry("asinh"), symbolic=math.sinh(0.5))
    check(get_entry("cardioid"), quoted=0.3517, digits=4)
    for alpha in (0.0, 0.25, 0.5, 0.75):
        sym = 0.5 if alpha == 0 else (math.sqrt(1 + alpha) - 1) / alpha
        check(get_entry("bs", alpha=alpha), symbolic=sym)
    check(get_entry("alpha_exp", alpha=0.0), symbolic=math.log(1.5))
    for alpha in (0.25, 0.5, 0.8):
        check(get_entry("alpha_exp", alpha=alpha))
    for A in (-0.6, -0.2, 0.2, 0.6, 1.0):
        for B in (-0.9, -0.5, -0.1, 0.3, 0.7):
            if B < A:
                sym = 1.0 / (2 * A - 3 * B) if 2 * A - 3 * B > 1 else 1.0
                check(get_entry("janowski", A=A, B=B), symbolic=sym)

    # order and disc radii on alpha grids
    check(get_entry("caratheodory", alpha=0.0), quoted=0.6469, digits=4,
          symbolic=math.tanh(PI / (2 * SQRT2)) ** 2)
    for alpha in (0.25, 0.5, 0.75):
        check(get_entry("caratheodory", alpha=alpha))
    for alpha in (0.25, 0.5, 0.75, 1.0):
        check(get_entry("disc_class", alpha=alpha),
              symbolic=math.tanh(PI * math.sqrt(alpha) / (2 * SQRT2)) ** 2)

    # corollary radii
    for rid in ("r1_exp", "r2_sine", "r3_cosh_sqrt", "r4_cardioid",
                "r5_asinh", "r6_sigmoid", "r7_nephroid"):
        check(get_entry(rid))
    check(get_entry("r7_nephroid"),
          symbolic=math.tanh(PI / (2 * math.sqrt(3.0))) ** 2)
    check(get_entry("r8_lemniscate"), quoted=0.376, digits=3, truncated=True)
    check(get_entry("r9_reverse_lemniscate"), quoted=0.283, digits=3,
          truncated=True)

    # ratio class, upper-bound class, root-only radii
    check(get_entry("ratio", A=-1.0), quoted=0.123, digits=3,
          symbolic=math.sqrt(17.0) - 4.0)
    check(get_entry("ratio", A=0.0))
    check(get_entry("ratio", A=1.0), quoted=0.080, digits=3, truncated=True,
          symbolic=(math.sqrt(41.0) - 6.0) / 5.0)
    for beta in (1.1, 1.25, 1.4):
        check(get_entry("mbeta", beta=beta))
    check(get_entry("majorization"), quoted=0.4220, digits=4, truncated=True)
    check(get_entry("peng_zhong"), quoted=0.522864, digits=6)

    ok = not failures
    announce(capsys, 1, "radius agreement", ok,
             detail="" if ok else f"{len(failures)} sub-check(s): " + "; ".join(failures))
    assert ok, failures


def test_criterion_2_series_reproduction(capsys):
    g = extremal_upper(8).coeffs
    expected = {
        2: 8.0 / PI**2,
        3: -8.0 * (PI**2 - 12.0) / (3.0 * PI**4),
        4: 8.0 * (1440.0 - 360.0 * PI**2 + 23.0 * PI**4) / (135.0 * PI**6),
    }
    gaps = {n: abs(g[n].real - v) for n, v in expected.items()}
    ok = all(gap < 1e-12 for gap in gaps.values()) and np.max(np.abs(g.imag)) < 1e-14
    announce(capsys, 2, "series reproduction", ok, detail=f"max gap {max(gaps.values()):.2e}")
    assert ok, gaps


def test_criterion_3_real_part_bounds(capsys):
    angles = np.linspace(-PI, PI, 4096, endpoint=False)
    worst = 0.0
    axis_ok = True
    prev = None
    monotone_ok = True
    for r in np.arange(0.05, 0.951, 0.05):
        vals = np.real(parabola_map(r * np.exp(1j * angles)))
        lo, hi = real_part_bounds(r)
        worst = max(worst, abs(vals.min() - lo), abs(vals.max() - hi))
        axis_ok &= abs(angles[vals.argmin()]) < 1e-12
        axis_ok &= abs(abs(angles[vals.argmax()]) - PI) < 2e-3
        if prev is not None:
            monotone_ok &= hi > prev[1] and lo < prev[0]
        prev = (lo, hi)
    ok = worst < 1e-8 and axis_ok and monotone_ok
    announce(capsys, 3, "kernel real-part bounds", ok, detail=f"worst gap {worst:.2e}")
    assert ok


def test_criterion_4_inscribed_discs(capsys):
    phis = np.linspace(-PI, PI, 256, endpoint=False)
    containment_ok = True
    critical_ok = True
    for a in (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.4):
        r = inscribed_disc_radius(a)
        inner = a + r * (1.0 - 1e-9) * np.exp(1j * phis)
        outer = a + r * (1.0 + 1e-3) * np.exp(1j * phis)
        containment_ok &= bool(np.all(margin(inner) > 0.0))
        containment_ok &= bool(np.any(margin(outer) <= 0.0))
        if a <= 0.5:
            # the directly minimised distance to y^2 = 3 - 2x, not sqrt(2 - 2a)
            critical_ok &= abs(nearest_boundary_distance_sq(a) - r**2) <= 1e-9
    ok = containment_ok and critical_ok
    announce(capsys, 4, "inscribed discs", ok)
    assert ok


def test_criterion_5_sharpness_witnesses(capsys):
    margins = {
        "sp": get_entry("sp").witness_margin(),
        "cosh_sqrt": get_entry("cosh_sqrt").witness_margin(),
        "janowski": get_entry("janowski", A=0.5, B=-0.5).witness_margin(),
    }
    ok = all(abs(m) < 1e-9 for m in margins.values())
    announce(capsys, 5, "sharpness witnesses", ok,
             detail=", ".join(f"{k}={v:.2e}" for k, v in margins.items()))
    assert ok, margins


def test_criterion_6_sufficiency_implication(capsys):
    from parastar.verify import certify_sample_members

    ok = True
    counts = []
    for i, t in enumerate((0.0, 0.5, 1.0)):
        passing = certify_sample_members(n_members=200, t=t, seed=100 + i)
        contained = sum(1 for rep in passing if rep.passed)
        counts.append(f"t={t:g}: {contained}/{len(passing)}")
        ok &= len(passing) == 200 and contained == 200

    good = certify_sufficient_condition(PowerSeries([0.0, 1.0, 0.3]), 0.0)
    bad = certify_sufficient_condition(PowerSeries([0.0, 1.0, 0.4]), 0.0)
    ok &= good.passed and not bad.passed
    announce(capsys, 6, "sufficiency implication", ok,
             detail="; ".join(counts) + f"; c=0.3 {'pass' if good.passed else 'FAIL'}"
                                        f", c=0.4 {'fail' if not bad.passed else 'PASS'}")
    assert ok


def test_criterion_7_growth_sandwich(capsys):
    f = extremal_lower(300)
    g = extremal_upper(300)
    worst = 0.0
    for r in np.arange(0.1, 0.91, 0.1):
        lo, hi = growth_bounds(r)
        worst = max(worst, abs(lo - f(r).real), abs(hi - g(r).real))
    two_route_ok = worst < 1e-8

    rng = np.random.default_rng(2024)
    violation = -math.inf
    for _ in range(100):
        w_fn, _zeros = sample_schwarz_function(rng)
        for r in (0.3, 0.6, 0.9):
            lo, hi = growth_bounds(r)
            val = member_growth_modulus(w_fn, r)
            violation = max(violation, lo - val, val - hi)
    members_ok = violation <= 1e-8

    # both limits at r = 1 against their closed forms
    upper = covering_constant().value
    covered = growth_bounds(1.0)[0]
    upper_gap = abs(upper - region.GROWTH_UPPER_LIMIT)
    covered_gap = abs(covered - region.COVERED_RADIUS)
    covering_ok = upper_gap < 1e-8 and covered_gap < 1e-8

    ok = two_route_ok and members_ok and covering_ok
    announce(capsys, 7, "growth sandwich and covering", ok,
             detail=f"two-route gap {worst:.2e}, worst member violation "
                    f"{violation:.2e}, |f| < {upper:.8f} (gap {upper_gap:.2e}), "
                    f"covered radius {covered:.8f} (gap {covered_gap:.2e})")
    assert ok


def test_criterion_8_determinism(capsys):
    cmd = [sys.executable, "-m", "parastar", "verify", "--all"]
    first = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    second = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    identical = first.stdout == second.stdout and first.stdout != ""
    every_line_json = all(json.loads(line) for line in first.stdout.splitlines())
    ok = identical and every_line_json
    announce(capsys, 8, "verify determinism", ok,
             detail=f"{len(first.stdout.splitlines())} JSONL lines, "
                    f"exit codes {first.returncode}/{second.returncode}")
    assert ok
