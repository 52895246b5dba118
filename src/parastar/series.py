"""Finite-degree complex power series and the growth-extremal series.

A ``PowerSeries`` holds coefficients and evaluates them; products and
sums of coefficient arrays are left to numpy (``np.convolve``).  The
module also builds, by the exp-of-integral recurrence, the extremal
member of the parabolic class of slowest modulus growth, and from its
coefficients its reflection -f(-z) of fastest growth.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NonzeroConstantTerm, ParamRange


class PowerSeries:
    """Complex coefficients about 0; ``coeffs[n]`` multiplies z**n."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("coefficients must form a nonempty 1-d sequence")
        if not np.isfinite(arr).all():
            raise DomainError("non-finite coefficient")
        self.coeffs = arr.copy()

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, z):
        """Horner's rule from the leading coefficient; a complex or an array.

        Arrays and complex scalars run numpy Horner, one array per step.  A
        real scalar (``int``, ``float``, ``np.float64``) runs on Python
        complex numbers instead, about ten times faster than numpy on a 0-d
        array and bit-identical to it at real points; at complex points the
        two may differ in the last bit, so those keep the numpy route.
        """
        if isinstance(z, (int, float)):
            z = complex(z)
            cs = self.coeffs[::-1].tolist()
            out = cs[0]
            for c in cs[1:]:
                out = out * z + c
            return out
        z = np.asarray(z, dtype=np.complex128)
        out = np.full(z.shape, self.coeffs[-1])
        for c in self.coeffs[-2::-1]:
            out = out * z + c
        return out if out.ndim else complex(out)

    def derivative(self) -> "PowerSeries":
        if self.degree == 0:
            return PowerSeries([0.0])
        n = np.arange(1, self.degree + 1)
        return PowerSeries(self.coeffs[1:] * n)

    def __repr__(self):
        head = ", ".join(f"{c:.6g}" for c in self.coeffs[:4])
        tail = ", ..." if self.degree >= 4 else ""
        return f"PowerSeries(degree={self.degree}, [{head}{tail}])"


def p0_coefficients(n_max: int) -> PowerSeries:
    """Series of the left-opening parabola kernel to degree ``n_max``.

    The coefficient of z**n is -(8/pi^2) (1/n) sum_{k=0}^{n-1} 1/(2k+1);
    the constant term vanishes and every coefficient is real and negative.
    """
    if n_max < 1:
        raise ParamRange("n_max must be at least 1")
    n = np.arange(1, n_max + 1)
    odd_sums = np.cumsum(1.0 / (2.0 * np.arange(n_max) + 1.0))
    coeffs = np.zeros(n_max + 1, dtype=np.complex128)
    coeffs[1:] = -(8.0 / math.pi**2) * odd_sums / n
    return PowerSeries(coeffs)


def series_exp(s: PowerSeries) -> PowerSeries:
    """exp of a series with vanishing constant term, to the same degree.

    Uses the recurrence n e_n = sum_{k=1}^{n} k s_k e_{n-k}.
    """
    if s.coeffs[0] != 0:
        raise NonzeroConstantTerm("series_exp needs a vanishing constant term")
    n_max = s.degree
    ks = s.coeffs * np.arange(n_max + 1)
    # rev[n_max - n] = e_n, so e_{n-1}, ..., e_0 is the contiguous tail
    # rev[n_max - n + 1:] and each step dots two contiguous arrays
    rev = np.zeros(n_max + 1, dtype=np.complex128)
    rev[n_max] = 1.0
    for n in range(1, n_max + 1):
        rev[n_max - n] = np.dot(ks[1 : n + 1], rev[n_max - n + 1 :]) / n
    return PowerSeries(rev[::-1])


def integrate_over_t(s: PowerSeries) -> PowerSeries:
    """Termwise integral of s(t)/t from 0 to z; needs s(0) = 0."""
    if s.coeffs[0] != 0:
        raise NonzeroConstantTerm("integrand s(t)/t needs s(0) = 0")
    out = s.coeffs.copy()
    if s.degree >= 1:
        out[1:] /= np.arange(1, s.degree + 1)
    return PowerSeries(out)


def extremal_lower(n_max: int) -> PowerSeries:
    """Series of z exp(int_0^z k(t)/t dt) for the parabola kernel k.

    This member attains the lower growth bound of the class; its leading
    coefficient is 1 and all coefficients are real.
    """
    e = series_exp(integrate_over_t(p0_coefficients(n_max)))
    return PowerSeries(np.concatenate([[0.0], e.coeffs[:n_max]]))


def extremal_upper(n_max: int) -> PowerSeries:
    """Series of z exp(int_0^z k(-t)/t dt) = -f(-z) for the lower extremal f.

    The fastest-growing member: f's coefficients with alternating signs,
    z + (8/pi^2) z^2 + ...  Only the real parts of the even-index
    coefficients are negated, so the imaginary parts stay +0.0.
    """
    f = extremal_lower(n_max)
    f.coeffs.real[2::2] *= -1.0
    return f
