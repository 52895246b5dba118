"""Seeded operation streams of the warm workloads, each op with its check.

An op is a pair ``(kind, fn)``; ``fn()`` returns whether the package's
output passed the op's correctness check.  Streams come in
blocks: every block holds the same mix of op kinds, shuffled and with
fresh parameters, so the mix of a run does not depend on how many
blocks fit into it.  All inputs are drawn while the block is built; the
ops only call the package, looking each function up when they run, so
the same ops can run once plain and once traced.
"""

from __future__ import annotations

import math

from parastar import maps, oracle, radii, series, verify

TOL = 1e-9          # closed form vs either bisection route, and witness margin
SERIES_TOL = 1e-8   # series vs quadrature, and the growth sandwich

# --- radius_catalog -------------------------------------------------------

# Entries whose condition is a circle extremization.
_CIRCLE_FIXED = ("sp", "sine", "lune", "cosh_sqrt", "asinh", "cardioid")
_KERNEL_FIXED = ("r1_exp", "r2_sine", "r3_cosh_sqrt", "r4_cardioid", "r5_asinh",
                 "r6_sigmoid", "r7_nephroid", "r8_lemniscate", "r9_reverse_lemniscate",
                 "majorization", "peng_zhong")
CIRCLE_IDS = frozenset(_CIRCLE_FIXED + ("bs", "alpha_exp"))
# Ops per block.  The five circle-max radii of about 120 ms each appear
# eight times, sp (~300 ms) seven times, bs (~30 ms) and alpha_exp
# (3-150 ms with alpha) three times, every other entry once: about 80 %
# of ops run the extremizer.  The median op lies well inside the 120 ms
# cluster and the p95 tail inside the sp cluster, so neither jumps with
# the drawn parameters as it would at a cluster's edge.
_WEIGHTS = {"sine": 8, "lune": 8, "cosh_sqrt": 8, "asinh": 8, "cardioid": 8,
            "sp": 7, "bs": 3, "alpha_exp": 3}


def _janowski_params(rng):
    a = float(rng.uniform(-0.5, 1.0))
    return {"A": a, "B": float(rng.uniform(-0.95, a - 0.05))}


_FAMILIES = {
    "bs": lambda rng: {"alpha": float(rng.uniform(0.0, 0.95))},
    "alpha_exp": lambda rng: {"alpha": float(rng.uniform(0.0, 0.95))},
    "janowski": _janowski_params,
    "caratheodory": lambda rng: {"alpha": float(rng.uniform(0.0, 0.95))},
    "disc_class": lambda rng: {"alpha": float(rng.uniform(0.05, 1.0))},
    "beta_disc": lambda rng: {"beta": float(rng.uniform(0.05, 0.95))},
    "ratio": lambda rng: {"A": float(rng.uniform(-1.0, 1.0))},
    "mbeta": lambda rng: {"beta": float(rng.uniform(1.05, 1.45))},
}


def _radius_op(entry_id, params):
    def op():
        entry = radii.get_entry(entry_id, **params)
        ok = all(abs(radii.oracle_root(entry, method=route) - entry.closed_form) <= TOL
                 for route in ("bisect", "golden"))
        if entry.witness_margin is not None:
            ok = ok and abs(entry.witness_margin()) <= TOL
        return ok

    return entry_id, op


def radius_block(rng):
    keys = []
    for eid in (*_CIRCLE_FIXED, *_KERNEL_FIXED, *_FAMILIES):
        keys += [eid] * _WEIGHTS.get(eid, 1)
    ops = []
    for i in rng.permutation(len(keys)):
        eid = keys[i]
        params = _FAMILIES[eid](rng) if eid in _FAMILIES else {}
        ops.append(_radius_op(eid, params))
    return ops


def radius_setup():
    """Fill the lazy caches: inner-disc constants, memoized roots, degree-64 extremal."""
    for eid in (*_CIRCLE_FIXED, *_KERNEL_FIXED):
        radii.get_entry(eid)


# --- growth_certify ----------------------------------------------------------

# Classes with a containment radius whose condition peaks on the real
# axis, so a sweep containing angle 0 must see a violation beyond it.
_INCLUSION_TARGETS = ("sp", "sine", "lune", "cosh_sqrt", "asinh", "cardioid")
# 2^12 .. 2^20 samples: one complex array per sample set spans 64 KiB .. 16 MiB,
# below and above a 4 MiB L2 cache.
INCLUSION_SIZES = tuple(2**k for k in (12, 14, 16, 18, 20))


class GrowthState:
    """References computed once in set-up, and the number of blocks made."""

    def __init__(self):
        self.blocks = 0
        oracle.growth_bounds(0.5)  # fills the kernel-integral series
        self.covering = oracle.covering_constant().value
        self.inclusion = {}
        for tid in _INCLUSION_TARGETS:
            phi = maps.ronning_parabola if tid == "sp" else maps.target_map(tid)
            self.inclusion[tid] = (phi, radii.get_entry(tid).closed_form)


def _growth_op(r):
    def op():
        lo, hi = oracle.growth_bounds(r)
        return 0.0 < lo < r < hi and math.isfinite(hi)

    return "growth_bounds", op


def _member_op(w_fn, r):
    def op():
        lo, hi = oracle.growth_bounds(r)
        val = oracle.member_growth_modulus(w_fn, r)
        return lo - SERIES_TOL <= val <= hi + SERIES_TOL

    return "member_growth", op


def _extremal_op(upper, degree, r):
    def op():
        f = (series.extremal_upper if upper else series.extremal_lower)(degree)
        bound = oracle.growth_bounds(r)[1 if upper else 0]
        return abs(float(f(r).real) - bound) <= SERIES_TOL

    return "extremal", op


def _covering_op(reference):
    def op():
        est = oracle.covering_constant()
        return est.value == reference and est.last_delta < 1e-8

    return "covering", op


def _certify_op(f, t):
    def op():
        rep = oracle.certify_sufficient_condition(f, t)
        # sufficiency: whenever the inequality held, the conclusion must too
        return rep.passed or rep.oracle_value >= rep.closed_form

    return "certify", op


def _inclusion_op(phi, r, samples, inside):
    def op():
        rep = oracle.check_subordination_inclusion(phi, r, samples=samples)
        return rep.passed == inside

    return f"inclusion_{samples}", op


def growth_block(rng, state: GrowthState):
    # Counts are chosen so that the inclusion sweeps (vectorised maps and
    # region margins) take about 60 % of a block, quadrature about 20 %,
    # certification and series recurrences about 10 % each.
    ops = [_growth_op(float(rng.uniform(0.02, 0.98))) for _ in range(32)]
    for _ in range(48):
        w_fn, _zeros = oracle.sample_schwarz_function(rng)
        ops.append(_member_op(w_fn, float(rng.uniform(0.05, 0.95))))
    ops += [_extremal_op(bool(i % 2), int(rng.integers(240, 301)), float(rng.uniform(0.1, 0.9)))
            for i in range(24)]
    ops += [_covering_op(state.covering) for _ in range(4)]
    ops += [_certify_op(verify.random_polynomial_members(rng, 1)[0], float(rng.uniform(0.0, 1.0)))
            for _ in range(48)]
    # Targets rotate from block to block: a sweep's cost depends on its
    # target (28-60 ms at 2^18 samples), and the p99 tail falls among the
    # 2^18 sweeps, so a random target would move it with the seed.
    for j, samples in enumerate(INCLUSION_SIZES):
        tid = _INCLUSION_TARGETS[(state.blocks + j) % len(_INCLUSION_TARGETS)]
        phi, radius = state.inclusion[tid]
        inside = bool(rng.integers(2))
        if inside:
            r = radius * float(rng.uniform(0.5, 0.97))
        else:
            r = min(radius * float(rng.uniform(1.03, 1.3)), 0.999)
        ops.append(_inclusion_op(phi, r, samples, inside))
    state.blocks += 1
    return [ops[i] for i in rng.permutation(len(ops))]


WORKLOADS = ("radius_catalog", "growth_certify")


def make(workload: str):
    """Set up a warm workload; return its block generator ``rng -> [op]``."""
    if workload == "radius_catalog":
        radius_setup()
        return radius_block
    state = GrowthState()
    return lambda rng: growth_block(rng, state)
