"""Independent numerical machinery: extremizers, root bracketing, quadrature.

Everything here re-derives quantities that also have closed forms
elsewhere in the package, so agreement between the two routes is a real
check rather than a tautology.  Sampling loops are deterministic for a
fixed seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cache

import numpy as np

from . import region
from .errors import (
    DerivativeVanishes,
    DomainError,
    MaxIterExceeded,
    NoSignChange,
    ParamRange,
    ParastarError,
    QuadratureFailure,
    SingularOnCircle,
)
from .maps import kernel_modulus, kernel_reflection, parabola_map
from .series import PowerSeries

# version of every JSON and CSV output format
SCHEMA = 1

# root solvers: bracket width and |f| both reach _ABS_TOL within _MAX_ITER steps
_ABS_TOL = 1e-12
_REL_TOL = 1e-9
_MAX_ITER = 200
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class VerificationReport:
    """Outcome of one closed-form-versus-oracle comparison."""

    check_id: str
    closed_form: float
    oracle_value: float
    gap: float
    tolerance: float
    samples: int
    passed: bool
    notes: str = ""

    @classmethod
    def from_pair(cls, check_id, closed_form, oracle_value, tolerance,
                  samples=0, notes="", passed=None):
        """Report on the gap between two values; passes iff gap <= tolerance.

        Every verify row passes by its gap.  Only the inclusion sweep (worst
        margin > 0) and the certifier (sup < bound, then the conclusion
        margins) give ``passed``: a strict inequality is not a gap, and
        perfbench and ``parastar certify`` read those reports' fields as
        they are.
        """
        gap = abs(closed_form - oracle_value)
        return cls(check_id=check_id, closed_form=float(closed_form),
                   oracle_value=float(oracle_value), gap=float(gap),
                   tolerance=float(tolerance), samples=int(samples),
                   passed=bool(gap <= tolerance if passed is None else passed),
                   notes=notes)

    def to_json(self) -> str:
        fields = asdict(self)
        fields["id"] = fields.pop("check_id")
        return json.dumps({"schema": SCHEMA, **fields}, sort_keys=True)


def _value(f, x: float) -> float:
    fx = f(x)
    if math.isnan(fx):
        raise DomainError(f"condition is NaN at {x!r}")
    return fx


def _end_values(f, lo: float, hi: float) -> tuple[float, float, float | None]:
    """f at both bracket ends, and the end where f is exactly 0 (else None).

    Raises ``DomainError`` before f is evaluated unless lo < hi and both
    ends are finite, and ``NoSignChange`` when f has the same sign at
    both ends.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"bracket [{lo}, {hi}] needs finite ends with lo < hi")
    flo, fhi = _value(f, lo), _value(f, hi)
    root = lo if flo == 0.0 else hi if fhi == 0.0 else None
    if root is None and math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise NoSignChange(f"no sign change on [{lo}, {hi}]")
    return flo, fhi, root


def bracket_root(f, lo: float, hi: float) -> float:
    """ITP root of f on [lo, hi]; needs a sign change at the ends.

    Interpolate, truncate, project (Oliveira & Takahashi 2020): each step
    takes the regula-falsi point, moves it toward the midpoint by
    0.2 w^2 / (hi - lo) for bracket width w, and projects it into a ball
    around the midpoint that shrinks so that the width reaches
    ``_ABS_TOL`` within ceil(log2((hi - lo) / _ABS_TOL)) + 1 steps, one
    more than halving alone.  Smooth roots converge superlinearly.  After
    those steps, plain regula-falsi steps go on until |f| is small too.
    Returns an evaluated end r of a bracket whose width and |f(r)| are
    both at most ``_ABS_TOL``, and from lo = 0.0 at most ``_REL_TOL`` r
    (or ulp(r)) wide, so tiny roots keep their digits.  A bracket that is
    not finite with lo < hi, or a NaN value of f, raises ``DomainError``
    at once; an infinite value of f makes that step a midpoint.
    """
    tol = _ABS_TOL
    flo, fhi, root = _end_values(f, lo, hi)
    if root is not None:
        return root
    from_zero = lo == 0.0
    kappa = 0.2 / (hi - lo)
    n_max = max(0, math.ceil(math.log2((hi - lo) / tol))) + 1
    # the projection aims two ulps under tol, so rounded iterates still
    # bring the width to tol within n_max steps
    target = max(tol - 2.0 * math.ulp(max(abs(lo), abs(hi))), 0.5 * tol)
    for j in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        x = (lo * fhi - hi * flo) / (fhi - flo)
        delta = kappa * (hi - lo) ** 2
        if hi - lo <= tol and min(abs(flo), abs(fhi)) <= tol:
            end = lo if abs(flo) <= abs(fhi) else hi
            if not from_zero or hi - lo <= max(_REL_TOL * end, math.ulp(end)):
                return end
            # secants that cannot underflow alternate with midpoints, geometric once lo > 0
            x = ((math.sqrt(lo) * math.sqrt(hi) if lo else mid) if j % 2
                 else lo + (hi - lo) * (flo / (flo - fhi)))
            delta = 0.25 * _REL_TOL * x
        step = mid - x
        x = x + math.copysign(delta, step) if delta <= abs(step) else mid
        if j < n_max:
            radius = max(math.ldexp(target, n_max - j - 1) - 0.5 * (hi - lo), 0.0)
            if abs(x - mid) > radius:
                x = mid - math.copysign(radius, step)
        # a point rounded onto a bracket end would repeat that end's value;
        # the midpoint lies inside every projection ball
        if not lo < x < hi:
            x = mid
        fx = _value(f, x)
        if fx == 0.0:
            return x
        if math.copysign(1.0, fx) == math.copysign(1.0, flo):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
    raise MaxIterExceeded("ITP did not reach tolerance")


def golden_bracket_root(f, lo: float, hi: float) -> float:
    """Root by golden-ratio bracket shrinking; the independent cross-check solver."""
    flo, _, root = _end_values(f, lo, hi)
    if root is not None:
        return root
    for _ in range(_MAX_ITER):
        if hi - lo <= _ABS_TOL:
            mid = 0.5 * (lo + hi)
            if abs(_value(f, mid)) <= _ABS_TOL:
                return mid
        cut = hi - _GOLDEN * (hi - lo)
        fcut = _value(f, cut)
        if fcut == 0.0:
            return cut
        if math.copysign(1.0, fcut) == math.copysign(1.0, flo):
            lo, flo = cut, fcut
        else:
            hi = cut
    raise MaxIterExceeded("golden-section bracketing did not reach tolerance")


@dataclass(frozen=True)
class ExtremeResult:
    """Maximum of Re map on a circle and an angle where it is taken."""

    value: float
    angle: float


def _circle_values(map_fn, r: float, z: np.ndarray) -> np.ndarray:
    """Map values at points z of the circle |z| = r; a failing or
    non-finite map is singular."""
    try:
        w = np.asarray(map_fn(z))
    except ParastarError as exc:
        raise SingularOnCircle(f"map failed on |z| = {r}: {exc}") from exc
    if not np.isfinite(w).all():
        raise SingularOnCircle(f"non-finite map value on |z| = {r}")
    return w


# Coarse pass: theta = -pi and the upper half [0, pi) of a uniform 256-point
# grid, 129 angles and their points e^{i theta} on the unit circle (both
# computed once).
_COARSE = np.linspace(-math.pi, math.pi, 256, endpoint=False)[np.r_[0, 128:256]]
_COARSE_UNIT = np.exp(1j * _COARSE)
_COARSE.setflags(write=False)
_COARSE_UNIT.setflags(write=False)
_ANGLE_TOL = 1e-10
# Refinement windows: _REFINE_POINTS offsets in [-1, 1] (odd, so each window
# keeps its centre) times one step per round.  The steps start at the coarse
# step and shrink by (_REFINE_POINTS - 1)/2 = 16 per round while they exceed
# _ANGLE_TOL, seven rounds in all; _REFINE_DELTAS[j] is round j's window
# about its centre.  Round 0 spans the coarse neighbours at the spacing of a
# 4096-point grid.
_REFINE_POINTS = 33
_CENTRE = _REFINE_POINTS // 2


def _refine_steps() -> list[float]:
    h, steps = 2.0 * math.pi / 256, []
    while h > _ANGLE_TOL:
        steps.append(h)
        h *= 2.0 / (_REFINE_POINTS - 1)
    return steps


_REFINE_DELTAS = np.array(_refine_steps())[:, None] * np.linspace(-1.0, 1.0, _REFINE_POINTS)
_REFINE_DELTAS.setflags(write=False)
# The first map call's points on the unit circle: the coarse pass, then the
# offsets delta > 0 of the seven round windows about theta = 0 (_COARSE[1]),
# where every circle-max map of the radius catalog peaks (computed once).
_FIRST_UNIT = np.concatenate((_COARSE_UNIT, np.exp(1j * _REFINE_DELTAS[:, _CENTRE + 1:]).ravel()))
_FIRST_UNIT.setflags(write=False)


def extremize_on_circle(map_fn, r: float) -> ExtremeResult:
    """Maximum of Re ``map_fn`` over the circle |z| = r, and its angle.

    ``map_fn`` must be conjugate-symmetric, map(conj z) = conj map(z), as
    every map with real Taylor coefficients is (each target of the
    package, and real-valued functions of them like -|phi - 1|).  Only
    theta = -pi and the upper half circle are sampled, and values at -delta
    are read from +delta, so a map without the symmetry may peak where
    the extremizer never looks, and one symmetric only to rounding can
    move the result by that rounding (every target is symmetric bit for
    bit, ``TestAxisMirror``).  A minimum is the maximum of the negated
    map, at no cost in accuracy.

    A coarse pass over 129 angles, theta = -pi and every 2 pi / 256 from
    0, resolves peaks at 16 steps of a 4096-point grid: a peak narrower
    than that between two coarse angles can lose to a broader one, and
    the lower maximum is returned.  Seven rounds of 33-point windows
    refine the best angle to a step of at most 1e-10; a round moves only
    to a strictly larger value than its centre's.

    The first map call also samples the offsets delta > 0 of the seven
    windows about theta = 0, 241 points in all.  A maximum at theta = 0
    costs one map call, one at another coarse angle two, and the worst
    case is eight (about 1.05 over the radius catalog).  A failing or
    non-finite map value anywhere in the first call raises
    ``SingularOnCircle``, whatever the coarse pick.
    """
    if not 0.0 <= r <= 1.0:
        raise DomainError("circle radius must lie in [0, 1]")
    first = _circle_values(map_fn, r, r * _FIRST_UNIT).real
    th = _COARSE[first[:_COARSE.size].argmax()]
    ahead = None
    if th == _COARSE[1]:
        # a pick at theta = 0 finds every round's window in the first call:
        # its centre is z = r, coarse point 1, and its offsets delta < 0
        # mirror the sampled delta > 0 (the offsets are antisymmetric and
        # e^{-i delta} is conj(e^{i delta}) bit for bit), so every round
        # holds exactly when no sampled value exceeds that point's
        pos = first[_COARSE.size:].reshape(len(_REFINE_DELTAS), _CENTRE)
        if pos.max() <= first[1]:
            return ExtremeResult(value=float(first[1]), angle=float(th))
        # rebuild the full windows; a tie of +-delta takes -delta, the
        # first index, as a sampled window would
        ahead = np.concatenate((pos[:, ::-1], np.full((len(pos), 1), first[1]), pos), axis=1)
    j = 0
    while j < len(_REFINE_DELTAS):
        deltas = _REFINE_DELTAS[j:]
        if ahead is None:
            ahead = _circle_values(map_fn, r, r * np.exp(1j * (th + deltas).ravel())).real
        vals, ahead = ahead.reshape(deltas.shape), None
        # replay the rounds while the pick stays at the window centre; a
        # round moves only to a strictly larger value than the centre's
        stay = vals[:, _CENTRE] == vals.max(axis=1)
        picks = np.where(stay, _CENTRE, vals.argmax(axis=1)).tolist()
        k = next((k for k, i in enumerate(picks) if i != _CENTRE), len(picks) - 1)
        th, v = th + deltas[k, picks[k]], vals[k, picks[k]]
        j += k + 1
    return ExtremeResult(value=float(v), angle=float(th))


# --- growth bounds -------------------------------------------------------

# Integrands of int_0^r k(+-t)/t dt for the parabola kernel k, on arrays of
# t: k(t) = -|k(t)| and k(-t) is its reflection; both extend analytically
# to t = 0, which no Gauss node reaches.


def _lower_integrand(t: np.ndarray) -> np.ndarray:
    return -kernel_modulus(t) / t


def _upper_integrand(t: np.ndarray) -> np.ndarray:
    return kernel_reflection(t) / t


_QUAD_TARGET = 1e-10
# Adaptive Gauss-Legendre panels: a panel is accepted when its own rule
# and the sum over its two halves differ by at most _PANEL_TOL times the
# integral of |fn| (estimated on the first panel); otherwise both halves
# stay open.  The bound is absolute, so panels at a steep end whose
# values carry rounding noise are still accepted once they are small.
_GAUSS_POINTS = 20
_PANEL_TOL = 1e-14
_MAX_PANELS = 500


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    # Golub-Welsch nodes (eigenvalues of the Jacobi matrix of the Legendre
    # recurrence), polished by Newton steps on P_n; the weights
    # 2/((1 - x^2) P_n'(x)^2) then sum to 2 to rounding.
    n = _GAUSS_POINTS
    k = np.arange(1.0, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    for _ in range(2):
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / ((x - 1.0) * (x + 1.0))
        x = x - p / dp
    return x, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)


def _node_values(fn, centre: np.ndarray, half: np.ndarray) -> np.ndarray:
    """fn at the Gauss nodes of the panels centre +- half, a row per panel, in one call of fn."""
    t = centre[:, None] + half[:, None] * _gauss_legendre()[0]
    vals = np.asarray(fn(t.ravel()), dtype=np.float64).reshape(t.shape)
    if not np.isfinite(vals).all():
        raise QuadratureFailure("integrand is not finite at a quadrature node")
    return vals


def _quad_checked(fn, a: float, b: float) -> float:
    """Integral over [a, b] of ``fn``, which maps an array of t to values.

    One call of fn takes [a, b] and both halves, and most integrals end
    there; each later round halves every open panel in one call, left
    halves first.  The bits are fixed by the nodes (lo + h) + h x for
    h = 0.5 (hi - lo) and by the shapes of the products h (v @ w): (1, 20)
    for [a, b], (2k, 20) per round; a (3, 20) one differs in the last bits.
    The rest is one IEEE operation per value, so Python-float bookkeeping
    keeps those bits.  Raises ``QuadratureFailure`` at the call of fn that
    gives a non-finite value, past 500 panels, or when the summed
    disagreement of the accepted panels misses the 1e-10 target.
    """
    weights = _gauss_legendre()[1]
    m = 0.5 * (a + b)
    h, hl, hr = 0.5 * (b - a), 0.5 * (m - a), 0.5 * (b - m)
    vals = _node_values(fn, np.array([a + h, a + hl, m + hr]), np.array([h, hl, hr]))
    whole = h * (vals[:1] @ weights).item()
    sl, sr = (vals[1:] @ weights).tolist()
    left, right = hl * sl, hr * sr
    accepted = [left + right]
    err = abs(accepted[0] - whole)
    tol = _PANEL_TOL * (abs(h) * (np.abs(vals[:1]) @ weights).item())
    if not err <= tol:
        lo, hi, whole = np.array([a, m]), np.array([m, b]), np.array([left, right])
        accepted, err = [], 0.0
        while True:
            ends = np.concatenate((lo, 0.5 * (lo + hi), hi))
            starts, stops = ends[:2 * lo.size], ends[lo.size:]
            half = 0.5 * (stops - starts)
            sums = half * (_node_values(fn, starts + half, half) @ weights)
            pair = sums[:lo.size] + sums[lo.size:]
            diff = np.abs(pair - whole)
            ok = diff <= tol
            done = ok.all()
            accepted.extend((pair if done else pair[ok]).tolist())
            err += float((diff if done else diff[ok]).sum())
            if done:
                break
            split = np.concatenate((~ok, ~ok))
            lo, hi, whole = starts[split], stops[split], sums[split]
            if len(accepted) + lo.size > _MAX_PANELS:
                raise QuadratureFailure(f"quadrature needs more than {_MAX_PANELS} panels")
    val = math.fsum(accepted)
    if err > _QUAD_TARGET * (1.0 + abs(val)):
        raise QuadratureFailure(f"quadrature error estimate {err:.3e} too large")
    return val


def _growth(integrand, r: float) -> float:
    """r exp(int_0^r integrand(t) dt), by adaptive quadrature from 0."""
    return r * math.exp(_quad_checked(integrand, 0.0, r))


def growth_bounds(r: float) -> tuple[float, float]:
    """Sharp growth sandwich (lower, upper) for |f| at |z| = r, 0 <= r <= 1.

    Both bounds are r exp(int_0^r k(+-t)/t dt), evaluated by adaptive
    quadrature from 0, the one route for these bounds and member moduli;
    relative accuracy 1e-10.  No Gauss node reaches t = 1, so r = 1 gives
    the limits: |f| < 1.8727 on the disc, and every image covers
    |w| < 0.18175 (f(0) = 0, the lower bound on every circle, and Rouche).
    """
    upper = growth_upper_bound(r)
    return (_growth(_lower_integrand, r) if r else 0.0), upper


def growth_upper_bound(r: float) -> float:
    """The upper bound of ``growth_bounds(r)`` alone, by one quadrature."""
    if not 0.0 <= r <= 1.0:
        raise DomainError("radius must lie in [0, 1]")
    return _growth(_upper_integrand, r) if r else 0.0


@dataclass(frozen=True)
class CoveringEstimate:
    """Upper growth bound at r = 1 and its distance from the closed form."""

    value: float
    last_delta: float


def covering_constant() -> CoveringEstimate:
    """Upper growth bound at r = 1, by one quadrature: |f| < 1.8727 on the disc.

    An outer bound, not a covered radius; that is ``growth_bounds(1.0)[0]``.
    ``last_delta`` is the distance from ``region.GROWTH_UPPER_LIMIT``.
    """
    value = growth_upper_bound(1.0)
    return CoveringEstimate(value=value, last_delta=abs(value - region.GROWTH_UPPER_LIMIT))


# --- containment and certification ---------------------------------------


# Points per block of the inclusion sweep: 4096 points are 64 KiB of
# complex128.  Every temporary of the sweep then stays below glibc's
# default 128 KiB mmap threshold and in cache, so its speed does not
# depend on the thresholds that earlier calls left the allocator at
# (mallopt(3), M_MMAP_THRESHOLD).  In a warm loop of growth, certifier and
# sweep calls, 2^17-point blocks took 120-2460 minor faults per sweep from
# 2^16 samples on, and 8192-point blocks (128 KiB) faulted as well;
# 4096-point blocks took none, and 2048-point blocks were slower, by their
# extra ufunc calls.
_SWEEP_BLOCK = 1 << 12


def check_subordination_inclusion(map_fn, r: float, samples: int = 4096) -> VerificationReport:
    """Sample-based containment of map(|z| = r) in the parabolic region.

    Each sample is checked by the region's signed margin
    (``region.margin``), positive inside.  Failure at any sample is
    conclusive; a pass is necessary-condition evidence only and the report
    says at how many samples it was verified.

    ``map_fn`` must be conjugate-symmetric, map(conj z) = conj map(z), as
    every map with real Taylor coefficients is (each target of the
    package).  The region is symmetric about the real axis, so the
    margin repeats on the lower half circle: of the N = ``samples`` angles
    equally spaced from -pi the sweep evaluates theta = -pi and the upper
    half [0, pi), 1 + N // 2 points, and reports N.  A map without the
    symmetry may leave the region where the sweep never looks.  The worst
    margin is the whole grid's within 1e-15, and bit for bit at the
    powers of two N the tests pin.  Elsewhere it may differ in the last
    bit: at odd N the grid does not mirror, and at other even N the
    angles -theta_k and theta_{N-k} need not round to exact negatives.
    Blocks of at most 4096 points (the first also holds theta = -pi), one
    map call each, keep only the running minimum of the margin, so memory
    does not depend on N.
    """
    if samples < 1:
        raise DomainError("need at least one sample")
    # angles of np.linspace(-pi, pi, samples, endpoint=False), bit for bit:
    # index 0, which the first block's extra slot holds, and [ceil(N/2), N)
    step = 2.0 * math.pi / samples
    worst = np.inf
    half = (samples + 1) // 2
    for start in range(half, max(samples, half + 1), _SWEEP_BLOCK):
        first = start == half
        theta = np.arange(start - first, min(start + _SWEEP_BLOCK, samples)) * step - math.pi
        if first:
            theta[0] = -math.pi
        # np.minimum keeps a NaN margin, as one np.min over every sample
        # does; no name holds a block's map values into the next block's
        # map call, so the peak stays one block's arrays
        worst = np.minimum(worst, np.min(region.margin(
            _circle_values(map_fn, r, r * np.exp(1j * theta)))))
    worst = float(worst)
    passed = worst > 0.0
    note = (f"verified at {samples} samples (necessary-condition check)"
            if passed else f"violated at {samples}-sample sweep")
    return VerificationReport.from_pair("inclusion", 0.0, worst, 0.0, samples=samples,
                                        notes=note, passed=passed)


# the certifier's samples: 4096 equally spaced angles from -pi on the
# circle |z| = _CERTIFY_RHO (computed once)
_CERTIFY_RHO = 0.999
_CERTIFY_Z = _CERTIFY_RHO * np.exp(1j * np.linspace(-math.pi, math.pi, 4096, endpoint=False))
_CERTIFY_Z.setflags(write=False)


# the 63 inner points of a re-sampled arc, as fractions of the sample step
_ARC_FRACTIONS = np.arange(1, 64) / 64.0


def _angle_steps(v: np.ndarray, prev: np.ndarray) -> np.ndarray:
    # arg(v/prev), NaN where the ratio is not finite (a zero at a sample)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = v / prev
        steps = np.angle(ratios)
    steps[~np.isfinite(ratios)] = np.nan
    return steps


def _winding_number(name: str, v: np.ndarray, g) -> int:
    """Winding number around 0 of v = g(_CERTIFY_Z) along the circle.

    A step that is not below pi/2 (a zero near the circle, on either
    side, or at a sample) is replaced by the 64 sub-steps of its arc; a
    sub-step that is not below pi/2 either raises ``DerivativeVanishes``.
    """
    steps = _angle_steps(v, np.roll(v, 1))
    for i in np.flatnonzero(~(np.abs(steps) < 0.5 * math.pi)):
        # the arc runs from sample i - 1 to sample i
        theta = -math.pi + (2.0 * math.pi / v.size) * (i - 1 + _ARC_FRACTIONS)
        arc = np.concatenate(([v[i - 1]], g(_CERTIFY_RHO * np.exp(1j * theta)), [v[i]]))
        sub = _angle_steps(arc[1:], arc[:-1])
        if not np.max(np.abs(sub)) < 0.5 * math.pi:
            raise DerivativeVanishes(f"{name}: zero count unresolved near the circle")
        steps[i] = np.sum(sub)
    return round(float(np.sum(steps)) / (2.0 * math.pi))


def certify_sufficient_condition(f: PowerSeries, t: float) -> VerificationReport:
    """Check |t(1 + z f''/f') + (1-t) z f'/f - 1| < (3+2t)/6 on |z| <= 0.999.

    ``f`` must be normalised (f(0) = 0, f'(0) = 1).  When the inequality
    holds the implied conclusion is asserted as well: w = z f'/f stays in
    the disc |w - 1| < 1/2 and inside the parabolic region.

    Only the circle |z| = rho = 0.999 is sampled, at 4096 equally spaced
    angles, and strict inequality at every sample is required to pass.
    By the argument principle the winding numbers of f(z)/z and f' around
    the circle count their zeros in the disc; unless both are 0 the call
    raises ``DerivativeVanishes``.  Then the left side is analytic, so its
    largest modulus lies on the circle, and so do the largest |w - 1|
    (subharmonic) and the least region margin (superharmonic).  A winding
    number is the sum of the angles between neighbouring samples over
    2 pi; an arc with a step of pi/2 or more is re-sampled in 64 sub-steps
    (``_winding_number``), and a sub-step of pi/2 or more leaves the count
    unresolved and raises too.  The largest step measured on the extremal
    series of degree 4096 (``cli.MAX_DEGREE``) was 0.26 rad, for f'.
    """
    if not 0.0 <= t <= 1.0:
        raise ParamRange("t must lie in [0, 1]")
    if abs(f.coeffs[0]) > 1e-15 or abs(f.coeffs[1] - 1.0) > 1e-12:
        raise DomainError("series must be normalised: f(0) = 0, f'(0) = 1")
    z = _CERTIFY_Z
    fp = f.derivative()
    fv = f(z)
    fpv = fp(z)
    for name, v, g in (("f(z)/z", fv / z, lambda s: f(s) / s), ("f'", fpv, fp)):
        winding = _winding_number(name, v, g)
        if winding:
            raise DerivativeVanishes(f"{name} has winding number {winding} on the circle")
    fppv = fp.derivative()(z)
    lhs = t * (1.0 + z * fppv / fpv) + (1.0 - t) * z * fpv / fv - 1.0
    bound = (3.0 + 2.0 * t) / 6.0
    sup = float(np.max(np.abs(lhs)))
    passed = sup < bound
    notes = f"sup over {z.size} samples"
    if passed:
        w = z * fpv / fv
        disc_margin = 0.5 - float(np.max(np.abs(w - 1.0)))
        region_margin = float(np.min(region.margin(w)))
        passed = disc_margin > 0.0 and region_margin > 0.0
        notes += (f"; conclusion margins: disc {disc_margin:.3e}, "
                  f"region {region_margin:.3e}")
    return VerificationReport.from_pair("certify", bound, sup, 0.0, samples=z.size,
                                        notes=notes, passed=passed)


# --- random class members --------------------------------------------------


def sample_schwarz_function(rng):
    """Random Schwarz function z * product of one to three Blaschke factors.

    ``rng`` is any object whose ``random()`` returns a uniform float in
    [0, 1) (``random.Random`` or ``numpy.random.Generator``); only that
    method is called.  The factor count, then the zeros' moduli (uniform
    in [0, 0.8)), then their angles (uniform in [-pi, pi)) are drawn.
    The factors themselves are returned so the draw can be recorded.
    """
    k = 1 + int(3.0 * rng.random())
    moduli = np.array([0.8 * rng.random() for _ in range(k)])
    angles = np.array([math.pi * (2.0 * rng.random() - 1.0) for _ in range(k)])
    zeros = moduli * np.exp(1j * angles)

    def w(z):
        z = out = np.asarray(z, dtype=np.complex128)
        for a in zeros:
            out = out * (a - z) / (1.0 - np.conj(a) * z)
        return out if out.ndim else complex(out)

    return w, tuple(zeros)


def member_growth_modulus(w_fn, r: float) -> float:
    """|f(r)| for the member with z f'/f driven through the Schwarz map w.

    Computed by path quadrature of Re[k(w(t))/t] along [0, r], where k is
    the parabola kernel; only the real part enters the modulus.
    """
    if not 0.0 <= r < 1.0:
        raise DomainError("radius must lie in [0, 1)")
    if r == 0.0:
        return 0.0

    def integrand(t: np.ndarray) -> np.ndarray:
        return (parabola_map(w_fn(t)) / t).real

    return _growth(integrand, r)
