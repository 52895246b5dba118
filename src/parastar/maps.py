"""Branch-correct evaluation of the parabolic target maps on the closed disc.

The central map is

    left_parabola(z) = 1 + k(z),  k(z) = -(8/pi^2) * artanh(sqrt(z))**2,

the same as 1 - (2/pi^2) log^2((1 + sqrt z)/(1 - sqrt z)), which sends the
open unit disc onto the horizontal parabolic region
{w : (Im w)^2 < 3 - 2 Re w}, vertex 3/2, opening into the left half-plane.
The kernel k is written once, in ``parabola_map``, with its two real
restrictions beside it: ``kernel_modulus(r)`` = |k(r)| and
``kernel_reflection(r)`` = k(-r).  ``TARGETS`` names the two parabola maps and
the twelve classical target maps (exponential, sine, cardioid,
lemniscates, Janowski, ...) used to state membership radii, once each;
``target_map`` looks them up by name.

Branch conventions
------------------
The parabola maps take the principal square root.  artanh is odd, so
artanh^2 is even in sqrt z and both roots give the same value; the
principal one keeps the maps conjugate-symmetric bit for bit,
map(conj z) = conj map(z), as ``np.sqrt``, ``np.arctanh`` and the square
each are.  artanh's cuts lie on the real axis beyond +-1, which the
principal root of a disc point never reaches, and artanh, unlike the
log of a rounded ratio, keeps full relative accuracy as z -> 0 and is
exactly real on (-1, 1).  All evaluation is double precision and
vectorised; every function is pure.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ParamRange, SingularPoint, UnknownTarget

# Points closer than this to a log singularity raise instead of returning
# a huge value, keeping tests deterministic.
SINGULAR_TOL = 1e-12

_EIGHT_OVER_PI_SQ = 8.0 / math.pi**2
_SQRT2 = math.sqrt(2.0)


def _disc_points(z) -> np.ndarray:
    """z as a complex array whose points are finite and in the closed disc.

    One pass: NaN and inf fail the modulus test too, and only then is
    finiteness checked, so a non-finite point is reported first.
    """
    arr = np.asarray(z, dtype=np.complex128)
    if not np.abs(arr).max(initial=0.0) <= 1.0 + 1e-12:
        if not np.isfinite(arr).all():
            raise DomainError("non-finite input point")
        raise DomainError("point outside the closed unit disc")
    return arr


def _ret(val: np.ndarray):
    # an array as it is, a 0-d result as a Python complex or float
    return val if val.ndim else val.item()


def parabola_map(z):
    """Kernel k(z) = -(8/pi^2) artanh^2(sqrt z) of the parabola maps.

    Maps the unit circle onto a left-opening parabola with focus at the
    origin; 0 at z = 0, exactly real on (-1, 1), and singular only at
    z = 1, within ``SINGULAR_TOL`` of which it raises ``SingularPoint``.
    """
    w = np.sqrt(_disc_points(z))
    if (np.abs(1.0 - w) < SINGULAR_TOL).any():
        raise SingularPoint("evaluation within tolerance of the log singularity")
    return _ret(-_EIGHT_OVER_PI_SQ * np.arctanh(w) ** 2)


def kernel_modulus(r):
    """|k(r)| = (8/pi^2) artanh^2(sqrt r) = -min Re k on |z| = r, for 0 <= r < 1.

    An array is evaluated elementwise; a scalar gives a float.
    """
    return _ret(_EIGHT_OVER_PI_SQ * np.arctanh(np.sqrt(r)) ** 2)


def kernel_reflection(r):
    """k(-r) = (8/pi^2) arctan^2(sqrt r) = max Re k on |z| = r, for 0 <= r < 1.

    An array is evaluated elementwise; a scalar gives a float.
    """
    return _ret(_EIGHT_OVER_PI_SQ * np.arctan(np.sqrt(r)) ** 2)


def left_parabola(z):
    """Map of the disc onto {w : (Im w)^2 < 3 - 2 Re w}, normalised to 1 at 0.

    1 + ``parabola_map``: real on (-1, 1); sends -1 to the vertex value
    3/2 and blows up only at z = 1.
    """
    return 1.0 + parabola_map(z)


def ronning_parabola(z):
    """Right-opening parabolic map 1 + (8/pi^2) artanh^2(sqrt z).

    1 - ``parabola_map``, the classical parabolic-starlike target; its
    image is {w : Re w > |w-1|}.
    """
    return 1.0 - parabola_map(z)


def _check_alpha(alpha) -> None:
    if alpha is None or not 0.0 <= alpha < 1.0:
        raise ParamRange("alpha must lie in [0, 1)")


def _check_janowski(A, B) -> None:
    if A is None or B is None:
        raise ParamRange("janowski target needs A and B")
    if not -1.0 <= B < A <= 1.0:
        raise ParamRange("Janowski parameters require -1 <= B < A <= 1")


def _janowski(z, A, B):
    den = 1.0 + B * z
    if (np.abs(den) < SINGULAR_TOL).any():
        raise SingularPoint("Janowski map pole at z = -1/B")
    return (1.0 + A * z) / den


def _reverse_lemniscate(z):
    # pole at z = -1/(2(sqrt2-1)) lies outside the closed disc
    eta = _SQRT2 - 1.0
    return _SQRT2 - eta * np.sqrt((1.0 - z) / (1.0 + 2.0 * eta * z))


TARGETS = {
    # name: (formula in z and the parameters, parameter names, parameter check),
    # in the order of ``eval --target``'s choices; the two parabola maps check
    # their own input and are returned as they are
    "alpha_exp": (lambda z, alpha: alpha + (1.0 - alpha) * np.exp(z),
                  ("alpha",), _check_alpha),
    "alpha_sqrt": (lambda z, alpha: alpha + (1.0 - alpha) * np.sqrt(1.0 + z),
                   ("alpha",), _check_alpha),
    "cardioid": (lambda z: 1.0 + z * np.exp(z), (), None),
    "sigmoid": (lambda z: 2.0 / (1.0 + np.exp(-z)), (), None),
    "sine": (lambda z: 1.0 + np.sin(z), (), None),
    "asinh": (lambda z: 1.0 + np.arcsinh(z), (), None),
    "cosh_sqrt": (lambda z: np.cosh(np.sqrt(z)), (), None),  # cosh is even
    "lune": (lambda z: z + np.sqrt(1.0 + z * z), (), None),
    "lemniscate": (lambda z: np.sqrt(1.0 + z), (), None),
    "janowski": (_janowski, ("A", "B"), _check_janowski),  # (1 + A z) / (1 + B z)
    "nephroid": (lambda z: 1.0 + z - z**3 / 3.0, (), None),
    "ronning_parabola": (ronning_parabola, None, None),  # right-opening parabola
    # sqrt2 - (sqrt2 - 1) sqrt((1 - z)/(1 + 2(sqrt2 - 1) z))
    "reverse_lemniscate": (_reverse_lemniscate, (), None),
    "left_parabola": (left_parabola, None, None),  # the region's own map
}


def target_map(target, **params):
    """Return the named target map as a vectorised callable.

    Parameters are validated here: ``alpha`` for the convex-combination
    targets, ``A``/``B`` for the Janowski map.  Unknown names raise
    ``UnknownTarget``; spurious parameters raise ``ParamRange``.
    """
    try:
        formula, names, check = TARGETS[target]
    except (KeyError, TypeError):
        raise UnknownTarget(f"unknown target map: {target!r}") from None
    params = dict(params)
    args = tuple(params.pop(name, None) for name in names or ())
    if check is not None:
        check(*args)
    if params:
        raise ParamRange(f"unexpected parameters for {target}: {sorted(params)}")
    if names is None:
        return formula

    def phi(z):
        z = _disc_points(z)
        return _ret(formula(z, *args))

    return phi

