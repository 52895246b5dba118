"""Geometry of the parabolic region {w : (Im w)^2 < 3 - 2 Re w}.

The region is open and convex, has its vertex at w = 3/2, is symmetric
about the real axis and lies mostly in the left half-plane.  Membership
is exposed through a signed margin so tests can assert sign and
magnitude rather than a bare boolean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgUndefined, CenterOutsideRange, DomainError

VERTEX = 1.5

_PI_SQ = math.pi**2


def margin(w):
    """Signed margin 3 - 2 Re w - (Im w)^2; positive strictly inside."""
    w = np.asarray(w, dtype=np.complex128)
    m = 3.0 - 2.0 * w.real - w.imag**2
    return m if m.ndim else float(m)


def log_ratio(r):
    """log((1+sqrt r)/(1-sqrt r)), the kernel's logarithm on 0 <= r < 1.

    An array is evaluated elementwise; a scalar gives a float.
    """
    s = np.sqrt(r)
    out = np.log((1.0 + s) / (1.0 - s))
    return out if out.ndim else float(out)


def kernel_modulus(r):
    """|k(r)| = (2/pi^2) log^2((1+sqrt r)/(1-sqrt r)) on 0 <= r < 1; r may be an array."""
    return (2.0 / _PI_SQ) * log_ratio(r) ** 2


# Catalan's G, Apery's zeta(3), and the growth bounds' limits at r = 1: with
# u = sqrt t, int_0^1 atan^2(u)/u du = pi G/2 - 7 zeta(3)/8 and int_0^1
# artanh^2(u)/u du = 7 zeta(3)/8.  The upper limit bounds |f| < 1.8727 on the
# disc; by Rouche (f(0) = 0) every image covers |w| < the lower limit, 0.18175.
_CATALAN = 0.915965594177219
_ZETA3 = 1.2020569031595942
GROWTH_UPPER_LIMIT = math.exp(8.0 * _CATALAN / math.pi - 14.0 * _ZETA3 / _PI_SQ)
COVERED_RADIUS = math.exp(-14.0 * _ZETA3 / _PI_SQ)


def real_part_bounds(r: float) -> tuple[float, float]:
    """Sharp (min, max) of the real part of the parabola kernel on |z| = r.

    The minimum sits on the positive real axis,
    -(2/pi^2) log^2((1+sqrt r)/(1-sqrt r)), the maximum on the negative
    one, +(2/pi^2) arctan^2(2 sqrt r/(1-r)).
    """
    if not 0.0 <= r < 1.0:
        raise DomainError("radius must lie in [0, 1)")
    if r == 0.0:
        return 0.0, 0.0
    hi = (2.0 / _PI_SQ) * math.atan(2.0 * math.sqrt(r) / (1.0 - r)) ** 2
    return -kernel_modulus(r), hi


def real_part_profile(r: float, c: float) -> float:
    """Re of the parabola kernel at z = r e^{i alpha} with c = cos(alpha/2).

    Closed two-term form: the extremes over c in [-1, 1] occur at c = 1
    (minimum, alpha = 0) and c = 0 (maximum, alpha = pi); the profile is
    increasing in r at c = 0 and decreasing at c = 1.
    """
    if not 0.0 <= r < 1.0:
        raise DomainError("radius must lie in [0, 1)")
    if not -1.0 <= c <= 1.0:
        raise DomainError("c must lie in [-1, 1]")
    if r == 0.0:
        return 0.0
    s = math.sqrt(r)
    mu1 = 1.0 + r + 2.0 * c * s
    mu2 = 1.0 + r - 2.0 * c * s
    log_term = 0.0 if mu1 == mu2 else 0.5 * math.log(mu1 / mu2)
    atan_term = math.atan(2.0 * math.sqrt(max(1.0 - c * c, 0.0)) * s / (1.0 - r))
    return -(2.0 / _PI_SQ) * log_term**2 + (2.0 / _PI_SQ) * atan_term**2


@dataclass(frozen=True)
class InscribedDisc:
    """Largest open disc centred at (center, 0) inside the region."""

    center: float
    radius: float
    zeta: float
    eta: float


def inscribed_disc(a: float) -> InscribedDisc:
    """Maximal disc |w - a| < r_a contained in the region, for a < 3/2.

    For a <= 1/2 the nearest boundary points are off-axis and
    r_a = sqrt((a - 3/2 + 2 zeta^2/pi^2)^2 + 4 zeta^2/pi^2) with
    zeta = log(sqrt(eta)/sqrt(1-eta)), eta = q/(1+q), q = e^{-pi sqrt(1-2a)};
    for 1/2 < a < 3/2 the vertex is nearest and r_a = 3/2 - a.  Both
    branches give r_a = 1 at a = 1/2.
    """
    if not a < VERTEX:
        raise CenterOutsideRange("disc center must satisfy a < 3/2")
    if a <= 0.5:
        s = math.sqrt(1.0 - 2.0 * a)
        q = math.exp(-math.pi * s)
        eta = q / (1.0 + q)
        zeta = -0.5 * math.pi * s  # equals log(sqrt(eta)/sqrt(1-eta)) exactly
        radius = math.hypot(a - VERTEX + 2.0 * zeta**2 / _PI_SQ, 2.0 * zeta / math.pi)
        return InscribedDisc(center=a, radius=radius, zeta=zeta, eta=eta)
    return InscribedDisc(center=a, radius=VERTEX - a, zeta=0.0, eta=0.5)


def boundary_distance_profile(a: float, X: float) -> float:
    """Squared distance from (a, 0) to the boundary point parametrised by X.

    With L = log(X/sqrt(1-X^2)) the boundary point is
    (3/2 - 2L^2/pi^2, +-2L/pi) and the value returned is
    (a + 2L^2/pi^2 - 3/2)^2 + 4L^2/pi^2.  X must lie strictly in (0, 1);
    the profile is even under X -> -X.
    """
    if not a < VERTEX:
        raise CenterOutsideRange("disc center must satisfy a < 3/2")
    if not 0.0 < X < 1.0:
        raise DomainError("X must lie strictly in (0, 1)")
    L = math.log(X / math.sqrt(1.0 - X * X))
    t = 2.0 * L**2 / _PI_SQ
    return (a + t - VERTEX) ** 2 + 2.0 * t


def distance_critical_points(a: float) -> tuple[float, ...]:
    """Positive critical points of the boundary-distance profile.

    For a < 1/2 there are two, e^{+-pi s/2}/sqrt(1+e^{+-pi s}) with
    s = sqrt(1-2a) (their mirror images -X are critical as well and give
    the same distance); for 1/2 <= a < 3/2 the single point 1/sqrt(2).
    """
    if not a < VERTEX:
        raise CenterOutsideRange("disc center must satisfy a < 3/2")
    if a < 0.5:
        s = math.sqrt(1.0 - 2.0 * a)
        q = math.exp(-math.pi * s)
        x_plus = 1.0 / math.sqrt(1.0 + q)
        x_minus = math.sqrt(q) / math.sqrt(1.0 + q)
        return (x_plus, x_minus)
    return (1.0 / math.sqrt(2.0),)


def argument_sector_check(w):
    """True iff |arg(w - 2)| > 3 pi/4 (strict; tangency points fail).

    The whole parabolic region satisfies this: its boundary touches the
    sector's rays y = +-(x - 2) at the points 1 +- i only.  An array is
    checked elementwise and gives a boolean array; a scalar gives a bool.
    Any point equal to 2 raises ``ArgUndefined``.
    """
    u = np.asarray(w, dtype=np.complex128) - 2.0
    if (u == 0).any():
        raise ArgUndefined("argument undefined at w = 2")
    ok = np.abs(np.angle(u)) > 0.75 * math.pi
    return ok if ok.ndim else bool(ok)


def boundary_points(n: int) -> np.ndarray:
    """Points on the boundary parabola y^2 = 3 - 2x, swept by y in [-3, 3]."""
    if n < 2:
        raise DomainError("need at least two points")
    y = np.linspace(-3.0, 3.0, n)
    x = (3.0 - y**2) / 2.0
    return x + 1j * y
