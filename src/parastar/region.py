"""Geometry of the parabolic region {w : (Im w)^2 < 3 - 2 Re w}.

The region is open and convex, has its vertex at w = 3/2, is symmetric
about the real axis and lies mostly in the left half-plane.  Membership
is exposed through a signed margin so tests can assert sign and
magnitude rather than a bare boolean.  The sharp real-part bounds of the
kernel k on |z| = r are its two real restrictions from ``maps``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ArgUndefined, CenterOutsideRange, DomainError
from .maps import kernel_modulus, kernel_reflection

VERTEX = 1.5

_PI_SQ = math.pi**2


def margin(w):
    """Signed margin 3 - 2 Re w - (Im w)^2; positive strictly inside."""
    w = np.asarray(w, dtype=np.complex128)
    m = 3.0 - 2.0 * w.real - w.imag**2
    return m if m.ndim else float(m)


# Catalan's G, Apery's zeta(3), and the growth bounds' limits at r = 1: with
# u = sqrt t, int_0^1 atan^2(u)/u du = pi G/2 - 7 zeta(3)/8 and int_0^1
# artanh^2(u)/u du = 7 zeta(3)/8.  The upper limit bounds |f| < 1.8727 on the
# disc; by Rouche (f(0) = 0) every image covers |w| < the lower limit, 0.18175.
_CATALAN = 0.915965594177219
_ZETA3 = 1.2020569031595942
GROWTH_UPPER_LIMIT = math.exp(8.0 * _CATALAN / math.pi - 14.0 * _ZETA3 / _PI_SQ)
COVERED_RADIUS = math.exp(-14.0 * _ZETA3 / _PI_SQ)


def real_part_bounds(r: float) -> tuple[float, float]:
    """Sharp (min, max) of the real part of the parabola kernel k on |z| = r.

    The minimum sits on the positive real axis, k(r) = -``kernel_modulus(r)``,
    the maximum on the negative one, k(-r) = ``kernel_reflection(r)``.
    """
    if not 0.0 <= r < 1.0:
        raise DomainError("radius must lie in [0, 1)")
    if r == 0.0:
        return 0.0, 0.0
    return -kernel_modulus(r), kernel_reflection(r)


def inscribed_disc_radius(a: float) -> float:
    """Radius r_a of the largest disc |w - a| < r_a inside the region, for a < 3/2.

    The boundary point (3/2 - t, +-sqrt(2t)) is at squared distance
    (3/2 - t - a)^2 + 2t from (a, 0).  For a <= 1/2 the nearest points are
    (1 + a, +-sqrt(1 - 2a)), at t = 1/2 - a, and r_a = sqrt(2 - 2a); for
    1/2 < a < 3/2 the vertex is, and r_a = 3/2 - a.  Both give 1 at a = 1/2.
    """
    if not -math.inf < a < VERTEX:
        raise CenterOutsideRange("disc center must be finite with a < 3/2")
    return math.sqrt(2.0 - 2.0 * a) if a <= 0.5 else VERTEX - a


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
