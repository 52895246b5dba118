"""Named verification checks pairing every closed-form claim with an oracle.

This registry backs the ``verify`` command; the acceptance tests run the
same machinery at full sample counts.  Check ids are hierarchical
(``radius/...``, ``region/...``, ``series/...``) and live in one ordered
table, so a substring filter selects checks before any of them runs.
"""

from __future__ import annotations

import math
import random
from functools import partial

import numpy as np

from . import oracle, radii, region
from .errors import DerivativeVanishes, ParamRange
from .maps import parabola_map
from .oracle import VerificationReport
from .series import PowerSeries, extremal_lower, extremal_upper, p0_coefficients

_PI = math.pi


# verify's radius rows beyond the radius table: (entry id, parameters)
_EXTRA_ROWS = (
    ("bs", {"alpha": 0.25}),
    ("alpha_exp", {"alpha": 0.3}),
    ("alpha_exp", {"alpha": 0.8}),
    ("janowski", {"A": 1.0, "B": -0.9}),
    ("janowski", {"A": 0.3, "B": -0.1}),
    ("caratheodory", {"alpha": 0.5}),
    ("disc_class", {"alpha": 0.5}),
    ("ratio", {"A": 0.0}),
    ("mbeta", {"beta": 1.1}),
    ("mbeta", {"beta": 1.4}),
)


def _verification_catalog() -> list[radii.RadiusEntry]:
    return [radii.get_entry(entry_id, **params)
            for entry_id, params in radii.TABLE_ROWS + _EXTRA_ROWS]


def _radius(check_id, entry, tol):
    root = radii.oracle_root(entry)
    # a capped entry's condition is only checked at the bracket end
    solver = "cap" if entry.capped else "itp"
    return VerificationReport.from_pair(
        check_id, entry.closed_form, root, tol,
        notes=(entry.notes + "; " if entry.notes else "") + f"oracle={solver}")


def _witness(check_id, entry, tol):
    return VerificationReport.from_pair(check_id, 0.0, entry.witness_margin(), tol,
                                        notes="extremal identity margin at z0 = radius")


def _upper_coefficients(check_id):
    pi2 = _PI**2
    g = extremal_upper(8)
    expected = {
        2: 8.0 / pi2,
        3: -8.0 * (pi2 - 12.0) / (3.0 * pi2**2),
        4: 8.0 * (1440.0 - 360.0 * pi2 + 23.0 * pi2**2) / (135.0 * pi2**3),
    }
    dev = max(abs(g.coeffs[n].real - v) for n, v in expected.items())
    dev = max(dev, float(np.max(np.abs(g.coeffs.imag))))
    return VerificationReport.from_pair(check_id, 0.0, dev, 1e-12,
                                        notes="a2..a4 against closed expressions")


def _defining_ode(check_id):
    # n a_n against the Cauchy product of f and 1 + k, through z^31
    n_max = 32
    f = extremal_lower(n_max).coeffs
    lp = p0_coefficients(n_max).coeffs
    lp[0] = 1.0
    resid = float(np.max(np.abs(f[:n_max] * np.arange(n_max) - np.convolve(f, lp)[:n_max])))
    return VerificationReport.from_pair(check_id, 0.0, resid, 1e-12,
                                        notes="z f' = f * map series, coefficientwise")


_PROFILE_RADII = np.arange(0.05, 0.951, 0.05)


def _real_part_bounds(check_id):
    # sharp real-part bounds against brute-force angular extremization,
    # one map call on the radii x 4096 angles grid; Re map repeats on the
    # lower half circle, so only theta = -pi and [0, pi) are evaluated
    angles = np.linspace(-_PI, _PI, 4096, endpoint=False)[np.r_[0, 2048:4096]]
    vals = np.real(parabola_map(_PROFILE_RADII[:, None] * np.exp(1j * angles)))
    worst = 0.0
    for r, row in zip(_PROFILE_RADII, vals):
        lo, hi = region.real_part_bounds(r)
        worst = max(worst, abs(row.min() - lo), abs(row.max() - hi))
    return VerificationReport.from_pair(check_id, 0.0, worst, 1e-8, samples=4096,
                                        notes="19-radius grid")


def _profile_monotone(check_id):
    bounds = [region.real_part_bounds(r) for r in _PROFILE_RADII]
    violations = sum(not (hi > prev_hi and lo < prev_lo)
                     for (prev_lo, prev_hi), (lo, hi) in zip(bounds, bounds[1:]))
    return VerificationReport.from_pair(check_id, 0.0, violations, 0.0,
                                        notes="max increasing, min decreasing in r")


def _inscribed_disc_probes(check_id):
    # inner probe holds, outer probe fails; counts the probes that do not
    violations = 0
    phis = np.linspace(-_PI, _PI, 256, endpoint=False)
    for a in (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.4):
        r = region.inscribed_disc_radius(a)
        inner = a + r * (1.0 - 1e-9) * np.exp(1j * phis)
        outer = a + r * (1.0 + 1e-3) * np.exp(1j * phis)
        violations += not (region.margin(inner) > 0.0).all()
        violations += not (region.margin(outer) <= 0.0).any()
    return VerificationReport.from_pair(check_id, 0.0, violations, 0.0, samples=256)


def _argument_sector(check_id, seed):
    # interior points satisfy the sharp argument sector; counts those that
    # do not.  20000 uniforms give exponential depths (mean 2), 20000 more
    # the heights
    u = np.fromiter(iter(random.Random(seed).random, None), float, count=40000)
    xs = 1.5 + 2.0 * np.log1p(-u[:20000])
    ys = (2.0 * u[20000:] - 1.0) * np.sqrt(3.0 - 2.0 * xs)
    w = (xs * 0.9999 + 0.00005) + 1j * (ys * 0.9999)
    violations = np.count_nonzero(~region.argument_sector_check(w))
    return VerificationReport.from_pair(check_id, 0.0, violations, 0.0, samples=20000)


def _series_vs_quadrature(check_id):
    f = extremal_lower(300)
    g = extremal_upper(300)
    worst = 0.0
    for r in np.arange(0.1, 0.91, 0.1):
        lo, hi = oracle.growth_bounds(r)
        worst = max(worst, abs(lo - float(f(r).real)), abs(hi - float(g(r).real)))
    return VerificationReport.from_pair(check_id, 0.0, worst, 1e-8, notes="r in 0.1..0.9")


def _random_members(check_id, samples, seed):
    rng = random.Random(seed)
    sandwiches = [(r, *oracle.growth_bounds(r)) for r in (0.3, 0.6, 0.9)]
    violation = -math.inf
    for _ in range(samples):
        w_fn, _zeros = oracle.sample_schwarz_function(rng)
        for r, lo, hi in sandwiches:
            val = oracle.member_growth_modulus(w_fn, r)
            violation = max(violation, lo - val, val - hi)
    # how far the worst modulus leaves the sandwich; 0 when every one is inside
    return VerificationReport.from_pair(
        check_id, 0.0, max(violation, 0.0), 1e-8, samples=samples,
        notes=f"worst signed sandwich violation {violation:.3e}, seed={seed}")


def _covering_constant(check_id):
    return VerificationReport.from_pair(
        check_id, region.GROWTH_UPPER_LIMIT, oracle.growth_upper_bound(1.0), 1e-12,
        notes="upper growth bound at r = 1: |f| below it on the disc")


def _covered_radius(check_id):
    return VerificationReport.from_pair(
        check_id, region.COVERED_RADIUS, oracle.growth_bounds(1.0)[0], 1e-12,
        notes="lower growth bound at r = 1: every image covers this disc")


def _implication(check_id, samples, seed):
    passing = certify_sample_members(n_members=samples, t=0.0, seed=seed)
    contained = sum(1 for rep in passing if rep.passed)
    # passes only when all ``samples`` members were drawn and contained
    return VerificationReport.from_pair(
        check_id, samples, contained, 0.0, samples=len(passing),
        notes=f"{contained}/{len(passing)} certified members inside the region, seed={seed}")


def _quadratic(check_id, c):
    # for f = z + c z^2 at t = 0 the certified quantity is |c z/(1 + c z)|,
    # whose sup over the circle |z| = rho is rho c/(1 - rho c), at z = -rho
    rho = oracle._CERTIFY_RHO
    rep = oracle.certify_sufficient_condition(PowerSeries([0.0, 1.0, c]), 0.0)
    return VerificationReport.from_pair(
        check_id, rho * c / (1.0 - rho * c), rep.oracle_value, 1e-12, samples=rep.samples,
        notes=f"certifier {'pass' if rep.passed else 'fail'} against bound {rep.closed_form}")


def _checks(tol, samples, seed):
    """Ordered (check id, report function) table; a function gets its id."""
    catalog = _verification_catalog()
    rows = [(f"radius/{e.label}", partial(_radius, entry=e, tol=tol)) for e in catalog]
    rows += [(f"witness/{e.label}", partial(_witness, entry=e, tol=tol))
             for e in catalog if e.witness_margin is not None]
    return rows + [
        ("series/upper_coefficients", _upper_coefficients),
        ("series/defining_ode", _defining_ode),
        ("region/real_part_bounds", _real_part_bounds),
        ("region/profile_monotone", _profile_monotone),
        ("region/inscribed_disc_probes", _inscribed_disc_probes),
        ("region/argument_sector", partial(_argument_sector, seed=seed)),
        ("growth/series_vs_quadrature", _series_vs_quadrature),
        ("growth/random_members",
         partial(_random_members, samples=20 if samples is None else samples, seed=seed)),
        ("growth/covering_constant", _covering_constant),
        ("growth/covered_radius", _covered_radius),
        ("certify/implication_t0",
         partial(_implication, samples=50 if samples is None else samples, seed=seed)),
        ("certify/quadratic_c0.3", partial(_quadratic, c=0.3)),
        ("certify/quadratic_c0.4", partial(_quadratic, c=0.4)),
    ]


def random_polynomial_members(rng, n: int):
    """Seeded stream of ``n`` normalised polynomials with modest coefficients.

    ``rng`` is any object whose ``random()`` returns a uniform float in
    [0, 1) (``random.Random`` or ``numpy.random.Generator``); only that
    method is called.  Per member: the degree (uniform in 2..5), then the
    moduli of a_2..a_deg (a_k uniform in [0, 0.25/k)), then their angles
    (uniform in [-pi, pi)).
    """
    out = []
    for _ in range(n):
        deg = 2 + int(4.0 * rng.random())
        mags = np.array([0.25 * rng.random() for _ in range(deg - 1)]) / np.arange(2, deg + 1)
        args = np.array([_PI * (2.0 * rng.random() - 1.0) for _ in range(deg - 1)])
        coeffs = np.zeros(deg + 1, dtype=complex)
        coeffs[1] = 1.0
        coeffs[2:] = mags * np.exp(1j * args)
        out.append(PowerSeries(coeffs))
    return out


def _check_draw(seed, name: str, count, least: int) -> None:
    """Raise ``ParamRange`` unless ``seed`` is a non-negative int and the
    draw count ``count`` (called ``name``) an int of at least ``least``.

    ``random.Random(-s)`` replays seed ``s``, so a negative seed is refused;
    a ``bool`` is an ``int`` subclass but no seed or count, so it is refused.
    """
    if type(seed) is not int or seed < 0:
        raise ParamRange(f"seed must be a non-negative int, got {seed!r}")
    if type(count) is not int:
        raise ParamRange(f"{name} must be an int, got {count!r}")
    if count < least:
        raise ParamRange(f"{name} must be at least {least}, got {count}")


def certify_sample_members(n_members: int, t: float, seed: int = 0):
    """Certification reports for seeded random members that pass the bound.

    Draws random polynomials until ``n_members`` of them satisfy the
    differential inequality at parameter ``t``; each passing member's
    report already includes the containment conclusion.  A member whose
    f(z)/z or f' has a zero in the certified disc is skipped; any other
    error, such as ``ParamRange`` for t outside [0, 1], propagates.
    Members are drawn from ``random.Random(seed)``; ``seed`` must be a
    non-negative int and ``n_members`` an int of at least 0.
    """
    _check_draw(seed, "n_members", n_members, 0)
    rng = random.Random(seed)
    passing = []
    attempts = 0
    while len(passing) < n_members and attempts < 100 * n_members:
        attempts += 1
        f = random_polynomial_members(rng, 1)[0]
        try:
            rep = oracle.certify_sufficient_condition(f, t)
        except DerivativeVanishes:
            continue
        if rep.oracle_value < rep.closed_form:  # inequality held at all samples
            passing.append(rep)
    return passing


def run_all(only: str | None = None, tol: float = 1e-9, samples: int | None = None,
            seed: int = 0) -> list[VerificationReport]:
    """Run every registered check whose id contains ``only`` (all by default).

    Checks are selected before any of them runs.  ``samples`` sets the
    random-member counts of the growth and certify checks (default 20
    and 50); it must be an int of at least 1.  ``tol`` must be finite
    and non-negative.  ``seed`` seeds ``random.Random`` for the sampled
    checks; it must be a non-negative int.
    """
    if not 0.0 <= tol < math.inf:
        raise ParamRange(f"tol must be non-negative and finite, got {tol}")
    _check_draw(seed, "samples", 1 if samples is None else samples, 1)
    rows = [(cid, fn) for cid, fn in _checks(tol, samples, seed)
            if only is None or only in cid]
    if not rows:
        raise ParamRange(f"no check id contains {only!r}")
    return [fn(cid) for cid, fn in rows]
