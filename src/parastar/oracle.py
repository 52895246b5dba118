"""Independent numerical machinery: extremizers, root bracketing, quadrature.

Everything here re-derives quantities that also have closed forms
elsewhere in the package, so agreement between the two routes is a real
check rather than a tautology.  Sampling loops are deterministic for a
fixed seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import region
from .errors import (
    DerivativeVanishes,
    DomainError,
    MaxIterExceeded,
    NoConvergence,
    NoSignChange,
    ParamRange,
    ParastarError,
    QuadratureFailure,
    SingularOnCircle,
)
from .maps import parabola_map
from .series import PowerSeries, integrate_over_t, p0_coefficients

# version of every JSON and CSV output format
SCHEMA = 1

_PI_SQ = math.pi**2
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class BracketSolverConfig:
    abs_tol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self):
        if not self.abs_tol > 0.0:
            raise ParamRange("abs_tol must be positive")
        if self.max_iter < 1:
            raise ParamRange("max_iter must be at least 1")


_DEFAULT_CFG = BracketSolverConfig()


@dataclass
class VerificationReport:
    """Outcome of one closed-form-versus-oracle comparison."""

    check_id: str
    closed_form: float | None
    oracle_value: float | None
    gap: float | None
    tolerance: float
    samples: int
    passed: bool
    notes: str = ""

    @classmethod
    def from_pair(cls, check_id, closed_form, oracle_value, tolerance,
                  samples=0, notes="", passed=None):
        """Report on the gap between two values; passes iff gap <= tolerance
        unless ``passed`` gives the outcome of a check the gap does not decide."""
        gap = abs(closed_form - oracle_value)
        return cls(check_id=check_id, closed_form=float(closed_form),
                   oracle_value=float(oracle_value), gap=float(gap),
                   tolerance=float(tolerance), samples=int(samples),
                   passed=bool(gap <= tolerance if passed is None else passed),
                   notes=notes)

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "id": self.check_id,
            "closed_form": self.closed_form,
            "oracle_value": self.oracle_value,
            "gap": self.gap,
            "tolerance": self.tolerance,
            "samples": self.samples,
            "passed": self.passed,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def _value(f, x: float) -> float:
    fx = f(x)
    if math.isnan(fx):
        raise DomainError(f"condition is NaN at {x!r}")
    return fx


def bracket_root(f, lo: float, hi: float, cfg: BracketSolverConfig | None = None) -> float:
    """Bisection root of f on [lo, hi]; needs a sign change at the ends.

    Returns r with bracket width and |f(r)| both below ``cfg.abs_tol``.
    A NaN value of f raises ``DomainError`` at once.
    """
    cfg = cfg or _DEFAULT_CFG
    flo, fhi = _value(f, lo), _value(f, hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise NoSignChange(f"no sign change on [{lo}, {hi}]")
    for _ in range(cfg.max_iter):
        mid = 0.5 * (lo + hi)
        fmid = _value(f, mid)
        if fmid == 0.0 or (hi - lo <= cfg.abs_tol and abs(fmid) <= cfg.abs_tol):
            return mid
        if math.copysign(1.0, fmid) == math.copysign(1.0, flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    raise MaxIterExceeded("bisection did not reach tolerance")


def golden_bracket_root(f, lo: float, hi: float, cfg: BracketSolverConfig | None = None) -> float:
    """Root by golden-ratio bracket shrinking; an independent second solver."""
    cfg = cfg or _DEFAULT_CFG
    flo, fhi = _value(f, lo), _value(f, hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise NoSignChange(f"no sign change on [{lo}, {hi}]")
    for _ in range(cfg.max_iter):
        if hi - lo <= cfg.abs_tol:
            mid = 0.5 * (lo + hi)
            if abs(_value(f, mid)) <= cfg.abs_tol:
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
    min_value: float
    max_value: float
    argmin_angle: float
    argmax_angle: float


_FUNCTIONALS = {
    "re": lambda w: np.real(w),
    "abs": lambda w: np.abs(w),
}


def _circle_values(map_fn, r: float, theta: np.ndarray) -> np.ndarray:
    """Map values at r e^{i theta}; a failing or non-finite map is singular."""
    try:
        w = np.asarray(map_fn(r * np.exp(1j * theta)))
    except ParastarError as exc:
        raise SingularOnCircle(f"map failed on |z| = {r}: {exc}") from exc
    if not np.all(np.isfinite(w)):
        raise SingularOnCircle(f"non-finite map value on |z| = {r}")
    return w


# Uniform angular grid of the first pass, and the angle step refinement stops at.
_N_GRID = 4096
_ANGLE_TOL = 1e-10
# Points per refinement window (odd, so each window keeps its centre); each
# round shrinks the half-width by (K - 1)/2 = 16 and costs one map call.
_REFINE_POINTS = 33


def extremize_on_circle(map_fn, r: float, functional: str = "re") -> ExtremeResult:
    """Extremes of a functional of ``map_fn`` over the circle |z| = r.

    A uniform 4096-point angular grid (which contains 0 and -pi) is refined
    around the best grid points by nested local grids: each round samples
    both windows in one map call, re-centres each on its best point and
    shrinks it to one step, until the step is at most 1e-10.
    """
    if not 0.0 <= r <= 1.0:
        raise DomainError("circle radius must lie in [0, 1]")
    if functional not in _FUNCTIONALS:
        raise DomainError(f"unknown functional {functional!r}")
    fun = _FUNCTIONALS[functional]
    theta = np.linspace(-math.pi, math.pi, _N_GRID, endpoint=False)
    vals = fun(_circle_values(map_fn, r, theta))
    i_min, i_max = int(np.argmin(vals)), int(np.argmax(vals))
    th_min, v_min = theta[i_min], vals[i_min]
    th_max, v_max = theta[i_max], vals[i_max]

    k = _REFINE_POINTS
    offsets = np.linspace(-1.0, 1.0, k)
    h = 2.0 * math.pi / _N_GRID
    while h > _ANGLE_TOL:
        angles = np.concatenate((th_min + h * offsets, th_max + h * offsets))
        vals = fun(_circle_values(map_fn, r, angles))
        j_min, j_max = int(np.argmin(vals[:k])), k + int(np.argmax(vals[k:]))
        th_min, v_min = angles[j_min], vals[j_min]
        th_max, v_max = angles[j_max], vals[j_max]
        h *= 2.0 / (k - 1)
    return ExtremeResult(min_value=float(v_min), max_value=float(v_max),
                         argmin_angle=float(th_min), argmax_angle=float(th_max))


# --- growth bounds -------------------------------------------------------

# Integrands of int_0^r k(+-t)/t dt for the parabola kernel k, on arrays of
# t.  Near 0 the removable singularity is handled by the kernel series on
# [0, 0.1].


def _lower_integrand(t: np.ndarray) -> np.ndarray:
    return -region.kernel_modulus(t) / t


def _upper_integrand(t: np.ndarray) -> np.ndarray:
    return (8.0 / _PI_SQ) * np.arctan(np.sqrt(t)) ** 2 / t


@cache
def _kernel_integral_series() -> PowerSeries:
    # int_0^x k(t)/t dt to degree 64; evaluated at -x it gives the
    # reflected-kernel integral.
    return integrate_over_t(p0_coefficients(64))


_SERIES_CUT = 0.1


@cache
def _series_at_cut() -> tuple[float, float]:
    # (lower, upper) kernel integrals over [0, _SERIES_CUT]
    iser = _kernel_integral_series()
    return iser(_SERIES_CUT).real, iser(-_SERIES_CUT).real


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


def _panel_sums(fn, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre sums of fn and |fn| over the panels [lo, hi], in one call of fn."""
    nodes, weights = _gauss_legendre()
    half = 0.5 * (hi - lo)
    t = (lo + half)[:, None] + half[:, None] * nodes
    vals = np.asarray(fn(t.ravel()), dtype=np.float64).reshape(t.shape)
    if not np.all(np.isfinite(vals)):
        raise QuadratureFailure("integrand is not finite at a quadrature node")
    return half * (vals @ weights), np.abs(half) * (np.abs(vals) @ weights)


def _quad_checked(fn, a: float, b: float) -> float:
    """Integral over [a, b] of ``fn``, which maps an array of t to values.

    Each round halves every open panel and evaluates all halves in one
    call.  Raises ``QuadratureFailure`` on a non-finite value, when the
    partition would exceed 500 panels, or when the summed disagreement
    of the accepted panels misses the 1e-10 target.
    """
    lo, hi = np.array([a], dtype=np.float64), np.array([b], dtype=np.float64)
    whole, (scale,) = _panel_sums(fn, lo, hi)
    accepted, err = [], 0.0
    while lo.size:
        mid = 0.5 * (lo + hi)
        halves, _ = _panel_sums(fn, np.concatenate((lo, mid)), np.concatenate((mid, hi)))
        left, right = halves[:lo.size], halves[lo.size:]
        pair = left + right
        diff = np.abs(pair - whole)
        ok = diff <= _PANEL_TOL * scale
        accepted.extend(pair[ok].tolist())
        err += float(np.sum(diff[ok]))
        split = ~ok
        lo = np.concatenate((lo[split], mid[split]))
        hi = np.concatenate((mid[split], hi[split]))
        whole = np.concatenate((left[split], right[split]))
        if len(accepted) + lo.size > _MAX_PANELS:
            raise QuadratureFailure(f"quadrature needs more than {_MAX_PANELS} panels")
    val = math.fsum(accepted)
    if err > _QUAD_TARGET * (1.0 + abs(val)):
        raise QuadratureFailure(f"quadrature error estimate {err:.3e} too large")
    return val


def growth_bounds(r: float) -> tuple[float, float]:
    """Sharp growth sandwich (lower, upper) for |f| at |z| = r.

    Both bounds are r exp(int_0^r k(+-t)/t dt), evaluated by kernel series
    on [0, 0.1] and adaptive quadrature beyond; relative accuracy 1e-10.
    """
    if not 0.0 <= r < 1.0:
        raise DomainError("radius must lie in [0, 1)")
    if r == 0.0:
        return 0.0, 0.0
    if r <= _SERIES_CUT:
        iser = _kernel_integral_series()
        return r * math.exp(iser(r).real), r * math.exp(iser(-r).real)
    i_lower, i_upper = _series_at_cut()
    i_lower += _quad_checked(_lower_integrand, _SERIES_CUT, r)
    i_upper += _quad_checked(_upper_integrand, _SERIES_CUT, r)
    return r * math.exp(i_lower), r * math.exp(i_upper)


@dataclass(frozen=True)
class CoveringEstimate:
    """Limit of the upper extremal modulus along the real axis toward 1."""

    value: float
    refinements: int
    last_delta: float
    evaluations: tuple[float, ...]


_MAX_REFINEMENTS = 48


def covering_constant(tol: float = 1e-8) -> CoveringEstimate:
    """Radius of the disc covered by every class member's image.

    Evaluates the upper growth bound at r = 1 - 2^{-k}; the raw sequence
    converges linearly in 2^{-k}, so successive Richardson extrapolants
    are compared until they differ by less than ``tol``.
    """

    def upper(rr: float) -> float:
        return rr * math.exp(_series_at_cut()[1]
                             + _quad_checked(_upper_integrand, _SERIES_CUT, rr))

    evals = [upper(1.0 - 0.5**k) for k in (2, 3)]
    prev = 2.0 * evals[-1] - evals[-2]
    for k in range(4, _MAX_REFINEMENTS + 1):
        evals.append(upper(1.0 - 0.5**k))
        extrap = 2.0 * evals[-1] - evals[-2]
        delta = abs(extrap - prev)
        if delta < tol:
            return CoveringEstimate(value=extrap, refinements=k, last_delta=delta,
                                    evaluations=tuple(evals))
        prev = extrap
    raise NoConvergence(f"covering sequence not stable after {_MAX_REFINEMENTS} refinements: "
                        f"{evals}")


# --- containment and certification ---------------------------------------


def check_subordination_inclusion(map_fn, r: float, margin_fns=None,
                                  samples: int = 4096) -> VerificationReport:
    """Sample-based containment of map(|z| = r) in a region.

    ``margin_fns`` are signed margins, positive inside; by default both
    defining forms of the parabolic region are checked.  Failure at any
    sample is conclusive; a pass is necessary-condition evidence only and
    the report says at how many samples it was verified.
    """
    if samples < 1:
        raise DomainError("need at least one sample")
    if margin_fns is None:
        margin_fns = (region.margin, region.support_margin)
    theta = np.linspace(-math.pi, math.pi, samples, endpoint=False)
    w = _circle_values(map_fn, r, theta)
    worst = min(float(np.min(np.asarray(mf(w)))) for mf in margin_fns)
    passed = worst > 0.0
    note = (f"verified at {samples} samples (necessary-condition check)"
            if passed else f"violated at {samples}-sample sweep")
    return VerificationReport.from_pair("inclusion", 0.0, worst, 0.0, samples=samples,
                                        notes=note, passed=passed)


_CERTIFY_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999)


def certify_sufficient_condition(f: PowerSeries, t: float, radii=None,
                                 n_angles: int = 1024) -> VerificationReport:
    """Sample check of |t(1 + z f''/f') + (1-t) z f'/f - 1| < (3+2t)/6.

    ``f`` must be normalised (f(0) = 0, f'(0) = 1).  When the inequality
    holds at every sample the implied conclusion is asserted as well:
    z f'/f stays in the disc |w - 1| < 1/2 and inside the parabolic
    region.  Strict inequality everywhere is required to pass.
    """
    if not 0.0 <= t <= 1.0:
        raise ParamRange("t must lie in [0, 1]")
    if abs(f.coeffs[0]) > 1e-15 or abs(f.coeffs[1] - 1.0) > 1e-12:
        raise DomainError("series must be normalised: f(0) = 0, f'(0) = 1")
    radii = _CERTIFY_RADII if radii is None else tuple(radii)
    theta = np.linspace(-math.pi, math.pi, n_angles, endpoint=False)
    rings = np.asarray(radii)[:, None] * np.exp(1j * theta)[None, :]
    z = rings.ravel()
    fp = f.derivative()
    fpp = fp.derivative()
    fv = np.asarray(f(z))
    fpv = np.asarray(fp(z))
    fppv = np.asarray(fpp(z))
    if np.any(np.abs(fv) < 1e-14) or np.any(np.abs(fpv) < 1e-14):
        raise DerivativeVanishes("f or f' vanishes on the sample grid")
    lhs = np.abs(t * (1.0 + z * fppv / fpv) + (1.0 - t) * z * fpv / fv - 1.0)
    bound = (3.0 + 2.0 * t) / 6.0
    sup = float(np.max(lhs))
    passed = sup < bound
    notes = f"sup over {z.size} samples"
    if passed:
        w = z * fpv / fv
        disc_margin = 0.5 - float(np.max(np.abs(w - 1.0)))
        region_margin = float(np.min(region.margin(w)))
        conclusion_ok = disc_margin > 0.0 and region_margin > 0.0
        passed = passed and conclusion_ok
        notes += (f"; conclusion margins: disc {disc_margin:.3e}, "
                  f"region {region_margin:.3e}")
    return VerificationReport.from_pair("certify", bound, sup, 0.0, samples=z.size,
                                        notes=notes, passed=passed)


def caratheodory_order_check(p_fn, alpha: float, r: float) -> VerificationReport:
    """Is min Re p on |z| = r at least alpha?  (p normalised to p(0) = 1.)"""
    ext = extremize_on_circle(p_fn, r, "re")
    return VerificationReport.from_pair("caratheodory", alpha, ext.min_value, 0.0,
                                        samples=_N_GRID,
                                        notes=f"argmin angle {ext.argmin_angle:.6f}",
                                        passed=ext.min_value >= alpha)


# --- disc bounds for Carathéodory-type functions --------------------------


def janowski_disc_bound(A: float, B: float, r: float, n: int = 1) -> tuple[float, float]:
    """Center and radius of the value disc of p with p - subordinate
    to (1+Az^n)/(1+Bz^n) type bounds, on |z| = r.

    Returns ((1 - A B r^{2n})/(1 - B^2 r^{2n}), |A - B| r^n/(1 - B^2 r^{2n})).
    """
    if not (-1.0 <= B < A <= 1.0):
        raise ParamRange("need -1 <= B < A <= 1")
    if not 0.0 <= r < 1.0:
        raise ParamRange("radius must lie in [0, 1)")
    if n < 1:
        raise ParamRange("n must be at least 1")
    r2n = r ** (2 * n)
    den = 1.0 - B * B * r2n
    return (1.0 - A * B * r2n) / den, abs(A - B) * r**n / den


def caratheodory_order_disc(alpha: float, r: float, n: int = 1) -> tuple[float, float]:
    """Value disc for functions of positive real part of order alpha."""
    if not 0.0 <= alpha < 1.0:
        raise ParamRange("alpha must lie in [0, 1)")
    return janowski_disc_bound(1.0 - 2.0 * alpha, -1.0, r, n)


def caratheodory_log_derivative_bound(r: float) -> float:
    """Classical bound |z p'/p| <= 2r/(1-r^2) for Re p > 0, p(0) = 1."""
    if not 0.0 <= r < 1.0:
        raise ParamRange("radius must lie in [0, 1)")
    return 2.0 * r / (1.0 - r * r)


# --- random class members --------------------------------------------------


def sample_schwarz_function(rng: np.random.Generator):
    """Random Schwarz function z * product of one to three Blaschke factors.

    Factor zeros are drawn with modulus at most 0.8; the factors
    themselves are returned so the draw can be recorded.
    """
    k = int(rng.integers(1, 4))
    zeros = rng.uniform(0.0, 0.8, k) * np.exp(1j * rng.uniform(-math.pi, math.pi, k))

    def w(z):
        z = np.asarray(z, dtype=np.complex128)
        out = z.astype(np.complex128).copy()
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

    val = _quad_checked(integrand, 1e-12, r)
    return r * math.exp(val)
