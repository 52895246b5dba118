"""Catalog of sharp membership radii for the parabolic class.

Each :class:`RadiusEntry` bundles a closed-form radius with the scalar
condition whose unique root in (0, 1) it is, a bracket for root solvers,
and (where the extremal construction is explicit) a witness margin that
vanishes exactly at the radius.  Conditions come from circle
extremization or kernel evaluation, not from the closed forms, so
"closed form equals the solver's root" is a genuine two-route check; a
memoized-root radius (cardioid, majorization, peng_zhong) is reached by
another route.  Every condition is solved by ITP
(``oracle.bracket_root``); golden-section shrinking is the cross-check.

One ordered registry, ``_REGISTRY``, maps each entry id to its builder,
its radius-table parameter sets and its admissible parameters;
``TABLE_ROWS`` and the parameter names each entry requires are read from
it.  Two data tables feed it:

* ``_CIRCLE_MAX``: every member of a classical class (sine, lune,
  Janowski, ...) is parabolic on |z| < r, up to max Re phi on |z| = r
  reaching 3/2; each row holds its admissible parameters;
* ``COROLLARY``: every parabolic-class member lies in the class of r1..r9
  up to |k(r)| reaching that class's inner-disc constant c = min |phi - 1|
  on |z| = 1, stated as 1 - 1/e, sin 1, 1 - cos 1, 1/e, asinh 1,
  (e - 1)/(e + 1), 2/3, sqrt 2 - 1 and sqrt(eta (1 - eta)), eta =
  sqrt(2 (sqrt 2 - 1)).  The root of |k(r)| = c (these, 1/2 for sp,
  1 - alpha for caratheodory, the parameter of disc_class and beta_disc)
  is written once, in ``_kernel_level_radius``.

``entry.target`` is the phi that such a condition samples (None where
it samples none), extremized by ``oracle.extremize_on_circle`` as
max Re phi or -max(-|phi - 1|).  Every target has real Taylor
coefficients, so it is conjugate-symmetric as that extremizer requires.
:func:`get_entry` is the one way to build an entry and the one parameter
gate (``ParamRange("<id> needs <range>")``); :func:`default_entries`
builds the ``TABLE_ROWS`` catalog with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import Callable

from . import oracle, region
from .errors import ParamRange, UnknownTarget
from .maps import kernel_modulus, kernel_reflection, left_parabola, parabola_map, target_map
from .series import extremal_upper, p0_coefficients

_PI = math.pi


def _kernel_level_radius(c: float) -> float:
    """tanh^2(pi sqrt(c)/(2 sqrt 2)), the root of |k(r)| = c."""
    return math.tanh(_PI * math.sqrt(c) / (2.0 * math.sqrt(2.0))) ** 2


@dataclass
class RadiusEntry:
    """One radius result: closed form, defining condition, witness, and the
    map the condition samples (``target``, None where it samples none)."""

    entry_id: str
    params: dict
    closed_form: float
    condition: Callable[[float], float]
    bracket: tuple[float, float] = (1e-9, 1.0 - 1e-9)
    witness_margin: Callable[[], float] | None = None
    capped: bool = False
    notes: str = ""
    target: Callable | None = None

    @property
    def label(self) -> str:
        # semicolon-separated so labels stay a single CSV field
        if not self.params:
            return self.entry_id
        inner = ";".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{self.entry_id}({inner})"


# oracle_root method: the oracle solver, looked up when called
_METHODS = {"bisect": "bracket_root", "golden": "golden_bracket_root"}


def oracle_root(entry: RadiusEntry, method: str = "bisect") -> float:
    """Independent root of the entry's condition (1.0 for capped entries).

    ``method`` is ``"bisect"``, the default route, solved by ITP, or
    ``"golden"``, golden-section shrinking as a cross-check.  A capped
    entry runs no solver: its condition is only checked to be negative
    at the bracket's upper end, where a NaN raises ``DomainError``.
    """
    if method not in _METHODS:
        raise ParamRange(f"unknown oracle method {method!r}; use 'bisect' or 'golden'")
    if entry.capped:
        if oracle._value(entry.condition, entry.bracket[1]) > 0.0:
            raise ParamRange(f"{entry.label}: capped entry with positive condition near 1")
        return 1.0
    return getattr(oracle, _METHODS[method])(entry.condition, *entry.bracket)


def _vertex_witness(phi, radius: float) -> Callable[[], float]:
    # the extremal construction puts z f'/f = phi at z0 = radius, which
    # lands on the region boundary; the boundary margin should vanish
    return lambda: float(region.margin(phi(radius)))


# --- main containment radii (classical class -> parabolic class) -----------


@cache
def _cardioid_root() -> float:
    # max Re (1 + z e^z) = 1 + r e^r on |z| = r, so the radius solves
    # r e^r = 1/2; there is no closed form
    return oracle.bracket_root(lambda r: r * math.exp(r) - 0.5, 0.0, 1.0)


# the admissible alpha of a one-parameter row: (test, the range it names)
_UNIT_ALPHA = (lambda alpha: 0.0 <= alpha < 1.0, "alpha in [0, 1)")

_CIRCLE_MAX = {
    # class id: (parameters with their radius-table values, closed form,
    # target map whose max Re on |z| = r reaches 3/2, report note, admissible
    # parameters as (test, range) or None); the closed form and the map are
    # functions of the parameters
    "sp": ({}, lambda: _kernel_level_radius(0.5), partial(target_map, "ronning_parabola"),
           "", None),
    "sine": ({}, lambda: _PI / 6.0, partial(target_map, "sine"), "", None),
    "lune": ({}, lambda: 5.0 / 12.0, partial(target_map, "lune"), "", None),
    "cosh_sqrt": ({}, lambda: math.acosh(1.5) ** 2, partial(target_map, "cosh_sqrt"), "", None),
    "asinh": ({}, lambda: math.sinh(0.5), partial(target_map, "asinh"), "", None),
    "cardioid": ({}, _cardioid_root, partial(target_map, "cardioid"),
                 "no closed form; memoized root of r e^r = 1/2", None),
    "bs": ({"alpha": 0.5},
           lambda alpha: 1.0 / (1.0 + math.sqrt(1.0 + alpha)),
           lambda alpha: lambda z: 1.0 + z / (1.0 - alpha * z * z), "", _UNIT_ALPHA),
    "alpha_exp": ({"alpha": 0.0}, lambda alpha: math.log(1.0 - 1.0 / (2.0 * (alpha - 1.0))),
                  partial(target_map, "alpha_exp"), "", _UNIT_ALPHA),
    # max Re (1 + Az)/(1 + Bz) on |z| = r is at z = r, (1 + Ar)/(1 + Br)
    "janowski": ({"A": 0.5, "B": -0.5}, lambda A, B: 1.0 / max(2.0 * A - 3.0 * B, 1.0),
                 partial(target_map, "janowski"), "",
                 (lambda A, B: -1.0 < B < A <= 1.0, "-1 < B < A <= 1")),
}


def _circle_max_radius(class_id: str, **params) -> RadiusEntry:
    """Radius on which the class lies in the parabolic class: max Re phi on
    |z| = r reaching the vertex 3/2, witnessed by the region margin of phi
    at the closed form.  A closed form at or past the bracket's end caps it
    at 1, with no witness: no sign change is left in the bracket."""
    _, closed_fn, map_fn, notes, _ = _CIRCLE_MAX[class_id]
    phi = map_fn(**params)
    closed = closed_fn(**params)
    capped = closed >= RadiusEntry.bracket[1]
    return RadiusEntry(class_id, params, 1.0 if capped else closed,
                       lambda r: oracle.extremize_on_circle(phi, r).value - 1.5,
                       witness_margin=None if capped else _vertex_witness(phi, closed),
                       capped=capped, notes=notes, target=phi)


# --- order and disc radii (parabolic class -> classical class) --------------


# bracket of a condition that is nonzero at r = 0: no floor under tiny roots
_FROM_ZERO = (0.0, 1.0 - 1e-9)


def _caratheodory_radius(alpha: float) -> RadiusEntry:
    """Radius on which the class is Caratheodory of order alpha.

    Closed form tanh^2(pi sqrt(1-alpha)/(2 sqrt 2)); the map value at r
    decreases through alpha exactly there.  alpha = 0 is the radius of
    starlikeness (and univalence) of the class.
    """
    closed = _kernel_level_radius(1.0 - alpha)

    def condition(r: float) -> float:
        # k(r) + (1 - alpha): 1 - alpha is exact and k(r) keeps full relative
        # accuracy, so the root keeps its digits as alpha -> 1
        return parabola_map(r).real + (1.0 - alpha)

    return RadiusEntry("caratheodory", {"alpha": alpha}, closed, condition, bracket=_FROM_ZERO,
                       witness_margin=lambda: left_parabola(closed).real - alpha)


def _kernel_level(level: float) -> Callable[[float], float]:
    # |k(r)| - level: exactly -level at r = 0, increasing without bound; as
    # |z f'/f - 1| <= |k(|z|)|, its root bounds the class |w - 1| < level
    return lambda r: kernel_modulus(r) - level


def _disc_class_radius(alpha: float) -> RadiusEntry:
    """Radius on which members satisfy |z f'/f - 1| < alpha: the root of
    |k(r)| = alpha, tanh^2(pi sqrt(alpha)/(2 sqrt 2)), witnessed by
    |L(closed) - 1| = alpha."""
    closed = _kernel_level_radius(alpha)
    return RadiusEntry("disc_class", {"alpha": alpha}, closed, _kernel_level(alpha),
                       bracket=_FROM_ZERO,
                       witness_margin=lambda: abs(left_parabola(closed) - 1.0) - alpha)


def _beta_disc_radius(beta: float) -> RadiusEntry:
    """The disc radius stated for beta = 1 - order: dual to the caratheodory
    entry, whose value at alpha = 1 - beta it equals exactly."""
    return replace(_disc_class_radius(beta), entry_id="beta_disc", params={"beta": beta})


@cache
def inner_disc_radius(target: str, **params) -> float:
    """Distance from 1 to the boundary of the named target's image.

    Re-derived numerically as min |phi - 1| over the unit circle, so the
    corollary conditions below do not import the constants they verify.
    """
    phi = target_map(target, **params)
    # the minimum is the negated maximum of -|phi - 1|
    return -oracle.extremize_on_circle(lambda z: -abs(phi(z) - 1.0), 1.0).value


_SQRT2 = math.sqrt(2.0)

COROLLARY = {
    # entry id: (the target's inner-disc constant c in closed form, target
    # name, target params); the radius is the root of |k(r)| = c
    "r1_exp": (1.0 - 1.0 / math.e, "alpha_exp", {"alpha": 0.0}),
    "r2_sine": (math.sin(1.0), "sine", {}),
    "r3_cosh_sqrt": (1.0 - math.cos(1.0), "cosh_sqrt", {}),
    "r4_cardioid": (1.0 / math.e, "cardioid", {}),
    "r5_asinh": (math.asinh(1.0), "asinh", {}),
    "r6_sigmoid": ((math.e - 1.0) / (math.e + 1.0), "sigmoid", {}),
    "r7_nephroid": (2.0 / 3.0, "nephroid", {}),
    "r8_lemniscate": (_SQRT2 - 1.0, "lemniscate", {}),
    "r9_reverse_lemniscate": (
        math.sqrt(math.sqrt(2.0 * (_SQRT2 - 1.0)) * (1.0 - math.sqrt(2.0 * (_SQRT2 - 1.0)))),
        "reverse_lemniscate", {}),
}


def _corollary_radius(entry_id: str) -> RadiusEntry:
    """Radius on which every parabolic-class member lies in the target's
    class: |k(r)| = its inner-disc constant, stated in ``COROLLARY`` for the
    closed form and re-derived on the circle for the condition (notes)."""
    c, target, tparams = COROLLARY[entry_id]
    level = inner_disc_radius(target, **tparams)
    return RadiusEntry(entry_id, {}, _kernel_level_radius(c), _kernel_level(level),
                       bracket=_FROM_ZERO, notes=f"inner-disc constant {level:.12g}",
                       target=target_map(target, **tparams))


# --- remaining radii ---------------------------------------------------------


def _ratio_radius(A: float) -> RadiusEntry:
    """Radius for the class built from positive-real-part ratios f/g.

    Closed form (sqrt(A^2 + 12A + 28) - (5 + A))/(2A + 3) on -1 <= A <= 1;
    the condition compares the aggregated value-disc reach
    (5+A) r/(1-r^2) with the room 3/2 - (1+A r^2)/(1-r^2).
    """
    closed = (math.sqrt(A * A + 12.0 * A + 28.0) - (5.0 + A)) / (2.0 * A + 3.0)

    def condition(r: float) -> float:
        rr = r * r
        return (5.0 + A) * r / (1.0 - rr) - (1.5 - (1.0 + A * rr) / (1.0 - rr))

    def witness_margin() -> float:
        r = closed
        w = 1.0 + 2.0 * r / (1.0 + r) + (3.0 + A) * r / (1.0 - r)
        return float(region.margin(w))

    return RadiusEntry("ratio", {"A": A}, closed, condition, witness_margin=witness_margin)


def _mbeta_radius(beta: float) -> RadiusEntry:
    """Radius on which Re z f'/f stays below beta, for 1 < beta < 3/2.

    Closed form tan^2(delta/2) with delta = pi sqrt(beta-1)/sqrt 2; the
    condition is k(-r) = max Re k on |z| = r reaching beta - 1, on the
    bracket [0, 1]: k(-1) = 1/2 > beta - 1, so roots near 1 are found too.
    """
    delta = _PI * math.sqrt(beta - 1.0) / math.sqrt(2.0)
    closed = math.tan(delta / 2.0) ** 2

    def condition(r: float) -> float:
        return kernel_reflection(r) - (beta - 1.0)

    return RadiusEntry("mbeta", {"beta": beta}, closed, condition, bracket=(0.0, 1.0),
                       witness_margin=lambda: left_parabola(-closed).real - beta)


def majorization_phi(r: float, sigma: float) -> float:
    """(1 - r^2) L(r) - r (1 + sigma), the majorization feasibility margin."""
    return (1.0 - r * r) * left_parabola(r).real - r * (1.0 + sigma)


def majorization_psi(r: float, sigma: float) -> float:
    """Derivative-ratio bound sigma + r (1 - sigma^2)/((1-r^2) L(r))."""
    lp = left_parabola(r).real
    if lp <= 0.0:
        raise ParamRange("bound defined only where the map value at r is positive")
    return sigma + r * (1.0 - sigma * sigma) / ((1.0 - r * r) * lp)


@cache
def _majorization_root() -> float:
    return oracle.bracket_root(lambda r: majorization_phi(r, 0.0), 1e-9, 0.64)


@cache
def _kernel_series_64():
    return p0_coefficients(64)


def _majorization_series_condition(r: float) -> float:
    # phi(r, 0) with L = 1 + the degree-64 kernel series instead of the log
    # formula; the truncation is about 1e-24 at the root
    return (1.0 - r * r) * (1.0 + _kernel_series_64()(r)).real - r


def _majorization_radius() -> RadiusEntry:
    """Radius on which majorized members inherit the derivative bound.

    Smallest positive root of (1 - r^2) L(r) = r where L is the class
    map restricted to (0, 1); root only, no closed form.
    """
    closed = _majorization_root()
    return RadiusEntry("majorization", {}, closed, _majorization_series_condition,
                       bracket=(1e-9, 0.64),
                       witness_margin=lambda: majorization_psi(closed, 0.0) - 1.0,
                       notes="memoized root of phi(r, 0); oracle by the map series")


@cache
def _upper_extremal_64():
    return extremal_upper(64)


def _peng_zhong_condition(r: float) -> float:
    g = _upper_extremal_64()
    return float(g(r).real) * kernel_modulus(r) - 0.5


def _peng_zhong_quadrature_condition(r: float) -> float:
    # the same bound with g(r) as the quadrature upper growth bound and |k(r)|
    # as minus the degree-64 kernel series, so neither factor is the closed form's
    return oracle.growth_upper_bound(r) * -_kernel_series_64()(r).real - 0.5


@cache
def _peng_zhong_root() -> float:
    return oracle.bracket_root(_peng_zhong_condition, 1e-9, 0.646)


def _peng_zhong_radius() -> RadiusEntry:
    """Radius on which members satisfy |z f'(z) - f(z)| < 1/2.

    Smallest positive root of g(r) |k(r)| = 1/2, where g is the upper
    growth extremal and k the parabola kernel.  The closed form and the
    witness take g from its degree-64 series and |k| from
    ``maps.kernel_modulus``, the condition g from quadrature and |k| from
    the kernel series.
    """
    closed = _peng_zhong_root()
    return RadiusEntry("peng_zhong", {}, closed, _peng_zhong_quadrature_condition,
                       bracket=(1e-9, 0.646),
                       witness_margin=lambda: _peng_zhong_condition(closed),
                       notes="memoized root of the series growth-times-kernel bound; "
                             "oracle by quadrature")


# --- registry ----------------------------------------------------------------


# entry id: (builder, radius-table parameter sets, admissible parameters as
# (test, range) or None) in table order; each set names the builder's parameters
_REGISTRY = {
    **{cid: (partial(_circle_max_radius, cid), (row[0],), row[4])
       for cid, row in _CIRCLE_MAX.items()},
    "caratheodory": (_caratheodory_radius, ({"alpha": 0.0},), _UNIT_ALPHA),
    "disc_class": (_disc_class_radius, ({"alpha": 1.0},),
                   (lambda alpha: 0.0 < alpha <= 1.0, "alpha in (0, 1]")),
    "beta_disc": (_beta_disc_radius, ({"beta": 0.5},),
                  (lambda beta: 0.0 < beta < 1.0, "beta in (0, 1)")),
    **{rid: (partial(_corollary_radius, rid), ({},), None) for rid in COROLLARY},
    "ratio": (_ratio_radius, ({"A": -1.0}, {"A": 1.0}),
              (lambda A: -1.0 <= A <= 1.0, "A in [-1, 1]")),
    "mbeta": (_mbeta_radius, ({"beta": 1.25},),
              (lambda beta: 1.0 < beta < 1.5, "beta in (1, 3/2)")),
    "majorization": (_majorization_radius, ({},), None),
    "peng_zhong": (_peng_zhong_radius, ({},), None),
}

# the representative catalog behind the radius table, in table order:
# (entry id, parameters) rows, each built by get_entry
TABLE_ROWS = tuple((eid, params) for eid, (_, sets, _) in _REGISTRY.items() for params in sets)


def get_entry(entry_id: str, **params) -> RadiusEntry:
    """Look up any catalog entry by id, with class parameters as needed.

    A missing, unexpected or out-of-range parameter raises ``ParamRange``.
    """
    try:
        make, (names, *_), admissible = _REGISTRY[entry_id]
    except KeyError:
        raise UnknownTarget(f"unknown radius entry: {entry_id!r}") from None
    extra = sorted(set(params) - set(names))
    if extra:
        raise ParamRange(f"unexpected parameters for {entry_id}: {extra}")
    if set(names) - set(params):
        raise ParamRange(f"{entry_id} needs {' and '.join(names)}")
    if admissible is not None and not admissible[0](**params):
        raise ParamRange(f"{entry_id} needs {admissible[1]}")
    return make(**params)


def default_entries() -> list[RadiusEntry]:
    """Representative catalog used by the table and verification runs."""
    return [get_entry(entry_id, **params) for entry_id, params in TABLE_ROWS]
