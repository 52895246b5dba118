"""Finite-degree complex power series and the growth-extremal series.

Series arithmetic between two operands truncates to the shorter degree,
so the error budget of a computation is always the caller's requested
headroom.  The module also builds, purely by the exp-of-integral
recurrence, the two extremal members of the parabolic class: the one of
slowest modulus growth and its reflection of fastest growth.
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
        if not np.all(np.isfinite(arr)):
            raise DomainError("non-finite coefficient")
        self.coeffs = arr.copy()

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, z):
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

    def z_times_derivative(self) -> "PowerSeries":
        """Series of z * d/dz applied to this series (same degree)."""
        return PowerSeries(self.coeffs * np.arange(self.degree + 1))

    def _coerce(self, other):
        if isinstance(other, PowerSeries):
            return other
        if np.isscalar(other) or isinstance(other, (int, float, complex)):
            return None
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            out = self.coeffs.copy()
            out[0] += other
            return PowerSeries(out)
        n = min(self.degree, o.degree) + 1
        return PowerSeries(self.coeffs[:n] + o.coeffs[:n])

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries(-self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, PowerSeries) else -1 * other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return PowerSeries(self.coeffs * other)
        n = min(self.degree, o.degree) + 1
        return PowerSeries(np.convolve(self.coeffs[:n], o.coeffs[:n])[:n])

    __rmul__ = __mul__

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
    e = np.zeros(n_max + 1, dtype=np.complex128)
    e[0] = 1.0
    for n in range(1, n_max + 1):
        e[n] = np.dot(ks[1 : n + 1], e[n - 1 :: -1][:n]) / n
    return PowerSeries(e)


def integrate_over_t(s: PowerSeries) -> PowerSeries:
    """Termwise integral of s(t)/t from 0 to z; needs s(0) = 0."""
    if s.coeffs[0] != 0:
        raise NonzeroConstantTerm("integrand s(t)/t needs s(0) = 0")
    out = s.coeffs.copy()
    if s.degree >= 1:
        out[1:] /= np.arange(1, s.degree + 1)
    return PowerSeries(out)


def _kernel_series(n_max: int, reflected: bool) -> PowerSeries:
    p = p0_coefficients(max(n_max, 1))
    coeffs = p.coeffs
    if reflected:
        coeffs = coeffs.copy()
        coeffs[1::2] *= -1.0  # kernel evaluated at -t
    return PowerSeries(coeffs)


def _extremal(n_max: int, reflected: bool) -> PowerSeries:
    if n_max < 1:
        raise ParamRange("n_max must be at least 1")
    e = series_exp(integrate_over_t(_kernel_series(n_max, reflected)))
    coeffs = np.concatenate([[0.0], e.coeffs[:n_max]])
    return PowerSeries(coeffs)


def extremal_lower(n_max: int) -> PowerSeries:
    """Series of z exp(int_0^z k(t)/t dt) for the parabola kernel k.

    This member attains the lower growth bound of the class; its leading
    coefficient is 1 and all coefficients are real.
    """
    return _extremal(n_max, reflected=False)


def extremal_upper(n_max: int) -> PowerSeries:
    """Series of z exp(int_0^z k(-t)/t dt): the fastest-growing member.

    Identical to -f(-z) for the lower extremal f, so coefficients agree
    up to alternating signs.  Starts z + (8/pi^2) z^2 + ...
    """
    return _extremal(n_max, reflected=True)
