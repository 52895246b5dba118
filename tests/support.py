"""Shared helpers for the test suite."""

import math

import numpy as np

from parastar import oracle
from parastar.errors import QuadratureFailure
from parastar.oracle import extremize_on_circle


def quoted_ok(value: float, quoted: float, digits: int, truncated: bool = False) -> bool:
    """Whether a value matches a decimal quoted to ``digits`` places.

    A rounded quote must agree within half a unit of its last digit,
    0.5 * 10**-digits.  A quote printed with a trailing ellipsis is a
    truncation, so the value must lie in [quoted, quoted + 10**-digits).
    """
    unit = 10.0 ** (-digits)
    if truncated:
        return quoted <= value < quoted + unit
    return abs(value - quoted) <= 0.5 * unit


def assert_quoted(value: float, quoted: float, digits: int, truncated: bool = False):
    """Assert :func:`quoted_ok`."""
    how = "truncate" if truncated else "round"
    assert quoted_ok(value, quoted, digits, truncated), (
        f"{value} does not {how} to the quoted {quoted} at {digits} digits")


def log_ratio(r: float) -> float:
    s = math.sqrt(r)
    return math.log((1.0 + s) / (1.0 - s))


def nearest_boundary_distance_sq(a: float) -> float:
    """Squared distance from (a, 0) to the parabola y^2 = 3 - 2x, by direct
    minimisation of |((3 - y^2)/2, y) - (a, 0)|^2 over y.

    The squared distance is a convex quadratic in y^2, so it is unimodal on
    y >= 0, and the nearest point has |y| <= sqrt(3 - 2a), the distance to
    the boundary point above a: ternary search over [0, sqrt(3 - 2a)].
    """
    def dist_sq(y):
        return ((3.0 - y * y) / 2.0 - a) ** 2 + y * y

    lo, hi = 0.0, math.sqrt(3.0 - 2.0 * a)
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if dist_sq(m1) < dist_sq(m2):
            hi = m2
        else:
            lo = m1
    return dist_sq(0.5 * (lo + hi))


# the uniform 4096-point angular grid and its points e^{i theta}; every 16th
# angle is bit for bit an angle of the extremizer's coarse pass
FULL_GRID = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
FULL_GRID_UNIT = np.exp(1j * FULL_GRID)
# theta = -pi and the upper half [0, pi)
HALF = np.r_[0, 2048:4096]
_FUNCTIONALS = {"re": np.real, "abs": np.abs}


def sequential_extremize(map_fn, r, functional="re", *, half=True, first_index=False,
                         mirror=True):
    """(min, max, argmin angle, argmax angle) of a functional on |z| = r.

    The round-by-round reference for ``oracle.extremize_on_circle``: a
    first pass on every 16th angle of the half grid (or of the full
    4096-point grid with ``half=False``), then seven rounds of 33-point
    windows re-centred on their best points, from a step of 2 pi / 256
    down, one map call per round for both extremes.  A round moves only
    to a strictly better value: where the window centre ties with the
    window's extreme, the centre stays.  ``first_index=True`` is the
    earlier rule, which moves to the first tied index as ``argmin`` /
    ``argmax`` do.

    With ``mirror`` (the extremizer's rule), a window centred exactly at
    theta = 0 reads its values at -delta from +delta, for as long as the
    pick has stayed at a first-pass pick of theta = 0: those are the
    windows of the extremizer's first call, which samples the offsets
    delta > 0 only.  A window that a moving pick re-centres on theta = 0
    is sampled in full, as the extremizer samples it.  ``mirror=False``
    samples every window in full.
    """
    fun = _FUNCTIONALS[functional]
    first = np.r_[0, 2048:4096:16] if half else slice(None, None, 16)
    grid, unit = FULL_GRID[first], FULL_GRID_UNIT[first]
    vals = fun(np.asarray(map_fn(r * unit)))
    i_min, i_max = int(np.argmin(vals)), int(np.argmax(vals))
    th_min, v_min = grid[i_min], vals[i_min]
    th_max, v_max = grid[i_max], vals[i_max]

    k = 33
    c = k // 2
    offsets = np.linspace(-1.0, 1.0, k)
    axis_min, axis_max = mirror and th_min == 0.0, mirror and th_max == 0.0
    h = 2.0 * math.pi / 256
    while h > 1e-10:
        angles = np.concatenate((th_min + h * offsets, th_max + h * offsets))
        vals = fun(np.asarray(map_fn(r * np.exp(1j * angles))))
        if axis_min:
            vals[:c] = vals[k - 1:c:-1]
        if axis_max:
            vals[k:k + c] = vals[2 * k - 1:k + c:-1]
        j_min, j_max = int(np.argmin(vals[:k])), k + int(np.argmax(vals[k:]))
        if not first_index:
            j_min = c if vals[c] == vals[j_min] else j_min
            j_max = k + c if vals[k + c] == vals[j_max] else j_max
        axis_min, axis_max = axis_min and j_min == c, axis_max and j_max == k + c
        th_min, v_min = angles[j_min], vals[j_min]
        th_max, v_max = angles[j_max], vals[j_max]
        h *= 2.0 / (k - 1)
    return float(v_min), float(v_max), float(th_min), float(th_max)


def min_and_max(map_fn, r, functional="re"):
    """(min, max, argmin angle, argmax angle) of a functional on |z| = r from
    two ``oracle.extremize_on_circle`` calls: the maximum of the map (of
    |map| for "abs") and of its negation; comparable bit for bit with
    :func:`sequential_extremize`."""
    f = map_fn if functional == "re" else lambda z: np.abs(map_fn(z))
    high = extremize_on_circle(f, r)
    low = extremize_on_circle(lambda z: -f(z), r)
    return -low.value, high.value, low.angle, high.angle


def reference_horner(coeffs, z):
    """Numpy Horner with a fresh array per step, a scalar on a 0-d array.

    ``PowerSeries.__call__`` runs this expression for arrays and complex
    scalars; only its real-scalar route, on Python complex numbers, runs
    different code."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.full(z.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        out = out * z + c
    return out if out.ndim else complex(out)


def _reference_panel_sums(fn, lo, hi):
    nodes, weights = oracle._gauss_legendre()
    half = 0.5 * (hi - lo)
    t = (lo + half)[:, None] + half[:, None] * nodes
    vals = np.asarray(fn(t.ravel()), dtype=np.float64).reshape(t.shape)
    if not np.isfinite(vals).all():
        raise QuadratureFailure("integrand is not finite at a quadrature node")
    return half * (vals @ weights), np.abs(half) * (np.abs(vals) @ weights)


def reference_quad_checked(fn, a, b):
    """``oracle._quad_checked`` as it was before its one-call first round:
    [a, b] in one call of fn, then each round's halves in the next, every
    round through the same bookkeeping; bit for bit what the driver must
    still return."""
    lo, hi = np.array([a], dtype=np.float64), np.array([b], dtype=np.float64)
    whole, (scale,) = _reference_panel_sums(fn, lo, hi)
    accepted, err = [], 0.0
    while lo.size:
        mid = 0.5 * (lo + hi)
        halves, _ = _reference_panel_sums(fn, np.concatenate((lo, mid)),
                                          np.concatenate((mid, hi)))
        left, right = halves[:lo.size], halves[lo.size:]
        pair = left + right
        diff = np.abs(pair - whole)
        ok = diff <= oracle._PANEL_TOL * scale
        accepted.extend(pair[ok].tolist())
        err += float(np.sum(diff[ok]))
        split = ~ok
        lo = np.concatenate((lo[split], mid[split]))
        hi = np.concatenate((mid[split], hi[split]))
        whole = np.concatenate((left[split], right[split]))
        if len(accepted) + lo.size > oracle._MAX_PANELS:
            raise QuadratureFailure(f"quadrature needs more than {oracle._MAX_PANELS} panels")
    val = math.fsum(accepted)
    if err > oracle._QUAD_TARGET * (1.0 + abs(val)):
        raise QuadratureFailure(f"quadrature error estimate {err:.3e} too large")
    return val
