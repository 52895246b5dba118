"""Span tracer for parastar's layer boundaries.

``install`` replaces public functions of the package with wrappers that
open a span per call and count the work that crossed the boundary.  The
package itself is not edited: every module attribute that refers to a
wrapped function (including names bound by ``from .x import y``) is
rebound to the wrapper.  Spans are kept in memory and written out at the
end; a span's self time is its duration minus the time of its children.

Scalar map calls inside circle extremization number in the tens of
thousands per radius, so they are timed and counted like any span but
not kept one by one in the span list.

This module imports nothing outside the standard library, so a traced
process measures the package's own import cost under ``-X importtime``.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import sys
from time import perf_counter_ns

# Counters that depend only on the inputs, never on timing.  Two traced
# runs of one seed must agree on every one of them.
EXACT = (
    "maps.scalar_calls",
    "maps.vector_points",
    "oracle.extremize_calls",
    "oracle.map_calls_per_extremize",
    "oracle.bisect_evals_per_root",
    "oracle.golden_evals_per_root",
    "oracle.quad_calls",
    "oracle.certify_calls",
    "oracle.certify_accept_ratio",
    "oracle.inclusion_points",
    "radii.entries_built",
    "radii.condition_evals",
    "series.extremal_calls",
    "region.margin_points",
    "verify.checks",
    "verify.checks_passed",
)

VERIFY_FAMILIES = ("radius", "witness", "duality", "series", "region", "growth", "certify")

# (name, unit, better) of every per-layer metric, in output order.
LAYER_METRICS = (
    ("maps.scalar_calls", "count", "lower"),
    ("maps.scalar_busy_s", "s", "lower"),
    ("maps.scalar_us_per_call", "us", "lower"),
    ("maps.vector_points", "count", "lower"),
    ("maps.vector_ns_per_point", "ns", "lower"),
    ("oracle.extremize_calls", "count", "lower"),
    ("oracle.map_calls_per_extremize", "count", "lower"),
    ("oracle.extremize_self_s", "s", "lower"),
    ("oracle.bisect_evals_per_root", "count", "lower"),
    ("oracle.golden_evals_per_root", "count", "lower"),
    ("oracle.solver_self_s", "s", "lower"),
    ("oracle.quad_calls", "count", "lower"),
    ("oracle.quad_busy_s", "s", "lower"),
    ("oracle.certify_calls", "count", "lower"),
    ("oracle.certify_accept_ratio", "ratio", "higher"),
    ("oracle.inclusion_points", "count", "lower"),
    ("oracle.certify_busy_s", "s", "lower"),
    ("radii.entries_built", "count", "lower"),
    ("radii.build_busy_s", "s", "lower"),
    ("radii.condition_evals", "count", "lower"),
    ("radii.condition_self_s", "s", "lower"),
    ("series.extremal_calls", "count", "lower"),
    ("series.extremal_busy_s", "s", "lower"),
    ("region.margin_points", "count", "lower"),
    ("region.busy_s", "s", "lower"),
    *((f"verify.{fam}_s", "s", "lower") for fam in VERIFY_FAMILIES),
    ("verify.checks", "count", "higher"),
    ("verify.checks_passed", "count", "higher"),
    ("import.numpy_s", "s", "lower"),
    ("import.scipy_s", "s", "lower"),
    ("import.parastar_self_s", "s", "lower"),
    ("cli.dispatch_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.uncovered_frac", "ratio", "lower"),
)


class Tracer:
    """In-memory spans, per-name totals and event counters."""

    def __init__(self):
        self.spans = []      # (span id, parent id, op id, name, start ns, end ns)
        self.stats = {}      # name -> [count, total ns, self ns]
        self.counters = {}
        self.op = None
        self._stack = []     # open spans: [name, keep, start, child ns, span id]
        self._next_id = 0

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def begin(self, name: str, keep: bool = True) -> None:
        self._next_id += 1
        self._stack.append([name, keep, perf_counter_ns(), 0, self._next_id])

    def end(self) -> None:
        stop = perf_counter_ns()
        name, keep, start, child, sid = self._stack.pop()
        dur = stop - start
        parent = None
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][4]
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if keep:
            self.spans.append((sid, parent, self.op, name, start, stop))

    def run_op(self, op_id, fn, name="op"):
        """Run one benchmark operation as a root span."""
        self.op = op_id
        self.begin(name)
        try:
            return fn()
        finally:
            self.end()
            self.op = None

    def snapshot(self) -> dict:
        return {"stats": self.stats, "counters": self.counters}

    def write_spans(self, path: str, proc: int = 0) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for sid, parent, op, name, start, stop in self.spans:
                fh.write(json.dumps({"proc": proc, "id": sid, "parent": parent, "op": op,
                                     "name": name, "start_ns": start, "end_ns": stop}) + "\n")

    # --- wrappers ---------------------------------------------------------

    def span(self, fn, name, keep=True):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            begin(name, keep)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return traced

    def map_fn(self, fn, per_call_key):
        """Wrap a map callable, counting scalar calls and vector points apart."""
        begin, end, count = self.begin, self.end, self.count

        def traced(z):
            shape = getattr(z, "shape", ())
            if shape:
                count("maps.vector_points", z.size)
                begin("maps.vector")
            else:
                count("maps.scalar_calls")
                begin("maps.scalar", False)
            count(per_call_key)
            try:
                return fn(z)
            finally:
                end()

        return traced


def _extremize(tr, fn):
    inner = tr.span(fn, "oracle.extremize")

    @functools.wraps(fn)
    def traced(map_fn, *args, **kwargs):
        tr.count("oracle.extremize_calls")
        return inner(tr.map_fn(map_fn, "oracle.extremize_map_calls"), *args, **kwargs)

    return traced


def _solver(tr, fn, route):
    inner = tr.span(fn, f"oracle.{route}")

    def condition(f):
        g = tr.span(f, "radii.condition")

        def counted(r):
            tr.count("radii.condition_evals")
            tr.count(f"oracle.{route}_evals")
            return g(r)

        return counted

    @functools.wraps(fn)
    def traced(f, *args, **kwargs):
        tr.count(f"oracle.{route}_roots")
        return inner(condition(f), *args, **kwargs)

    return traced


def _counted(tr, fn, name, key):
    inner = tr.span(fn, name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tr.count(key)
        return inner(*args, **kwargs)

    return traced


def _certify(tr, fn):
    inner = tr.span(fn, "oracle.certify")

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tr.count("oracle.certify_calls")
        rep = inner(*args, **kwargs)
        # accepted: the differential inequality held at every sample
        if rep.oracle_value < rep.closed_form:
            tr.count("oracle.certify_accepted")
        return rep

    return traced


def _inclusion(tr, fn):
    inner = tr.span(fn, "oracle.inclusion")

    @functools.wraps(fn)
    def traced(map_fn, *args, **kwargs):
        rep = inner(tr.map_fn(map_fn, "oracle.inclusion_map_calls"), *args, **kwargs)
        tr.count("oracle.inclusion_points", rep.samples)
        return rep

    return traced


def _margin(tr, fn):
    inner = tr.span(fn, "region.margin")

    @functools.wraps(fn)
    def traced(w):
        tr.count("region.margin_points", getattr(w, "size", 1))
        return inner(w)

    return traced


def _build(tr, fn, depth):
    # entry constructors call each other (get_entry -> membership_radius); only the
    # outermost call is a span, so entries_built counts entries
    inner = tr.span(fn, "radii.build")

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if depth[0]:
            return fn(*args, **kwargs)
        tr.count("radii.entries_built")
        depth[0] += 1
        try:
            return inner(*args, **kwargs)
        finally:
            depth[0] -= 1

    return traced


def _run_all(tr, fn):
    inner = tr.span(fn, "verify.run_all")

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        reports = inner(*args, **kwargs)
        tr.count("verify.checks", len(reports))
        tr.count("verify.checks_passed", sum(1 for r in reports if r.passed))
        return reports

    return traced


_ENTRY_FUNCS = ("get_entry", "membership_radius", "caratheodory_order_radius",
             "disc_class_radius", "beta_disc_radius", "corollary_radius",
             "ratio_class_radius", "m_class_radius", "majorization_radius",
             "peng_zhong_radius")


def _targets(tr):
    """(module, attribute, wrapper factory) for every traced boundary."""
    depth = [0]
    out = [
        ("parastar.oracle", "extremize_on_circle", lambda f: _extremize(tr, f)),
        ("parastar.oracle", "bracket_root", lambda f: _solver(tr, f, "bisect")),
        ("parastar.oracle", "golden_bracket_root", lambda f: _solver(tr, f, "golden")),
        ("parastar.oracle", "growth_bounds", lambda f: tr.span(f, "oracle.growth")),
        ("parastar.oracle", "member_growth_modulus", lambda f: tr.span(f, "oracle.member_growth")),
        ("parastar.oracle", "covering_constant", lambda f: tr.span(f, "oracle.covering")),
        ("parastar.oracle", "certify_sufficient_condition", lambda f: _certify(tr, f)),
        ("parastar.oracle", "check_subordination_inclusion", lambda f: _inclusion(tr, f)),
        ("parastar.series", "extremal_lower",
         lambda f: _counted(tr, f, "series.extremal", "series.extremal_calls")),
        ("parastar.series", "extremal_upper",
         lambda f: _counted(tr, f, "series.extremal", "series.extremal_calls")),
        ("parastar.region", "margin", lambda f: _margin(tr, f)),
        ("parastar.region", "support_margin", lambda f: _margin(tr, f)),
        ("parastar.verify", "run_all", lambda f: _run_all(tr, f)),
    ]
    out += [("parastar.radii", name, lambda f: _build(tr, f, depth)) for name in _ENTRY_FUNCS]
    out += [("parastar.verify", f"{fam}_reports",
             lambda f, fam=fam: tr.span(f, f"verify.{fam}")) for fam in VERIFY_FAMILIES]
    return out


def _rebind(original, wrapper, extra=()):
    # every parastar module that holds the original under any name
    mods = [m for n, m in list(sys.modules.items())
            if m is not None and (n == "parastar" or n.startswith("parastar."))]
    for mod in [*mods, *extra]:
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, wrapper)


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Run ``patch(module)`` right after ``name`` is first imported."""

    def __init__(self, name, patch):
        self.name, self.patch = name, patch

    def find_spec(self, fullname, path, target=None):
        if fullname != self.name:
            return None
        sys.meta_path.remove(self)
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            self.patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def install(tr: Tracer) -> None:
    """Wrap every layer boundary of the loaded parastar modules."""
    for modname, attr, factory in _targets(tr):
        mod = sys.modules.get(modname)
        original = getattr(mod, attr, None) if mod is not None else None
        if original is not None:
            _rebind(original, factory(original))

    # Quadrature is counted at scipy's boundary, so the counter holds
    # whether the package binds ``quad`` at import or imports it lazily.
    def patch_scipy(integrate):
        original = integrate.quad
        _rebind(original, _counted(tr, original, "oracle.quad", "oracle.quad_calls"),
                extra=(integrate,))

    if "scipy.integrate" in sys.modules:
        patch_scipy(sys.modules["scipy.integrate"])
    else:
        sys.meta_path.insert(0, _PatchOnImport("scipy.integrate", patch_scipy))


# --- import time ------------------------------------------------------------

_IMPORT_GROUPS = ("numpy", "scipy", "parastar")


def import_times(stderr_text: str) -> dict:
    """Seconds of import time owned by numpy, scipy and parastar.

    Parses ``-X importtime`` output.  Each module's self time goes to the
    nearest enclosing import (itself included) from one of the three
    packages, so standard-library modules a package pulls in count
    towards that package.
    """
    stack = []  # post-order: children are printed before their parent
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        raw = parts[2].rstrip()
        depth = len(raw) - len(raw.lstrip())
        children = []
        while stack and stack[-1][0] > depth:
            children.append(stack.pop())
        stack.append((depth, raw.strip(), int(parts[0]), children))

    totals = dict.fromkeys(_IMPORT_GROUPS, 0)

    def attribute(node, owner):
        _depth, name, self_us, children = node
        top = name.split(".")[0]
        owner = top if top in totals else owner
        if owner is not None:
            totals[owner] += self_us
        for child in children:
            attribute(child, owner)

    for node in stack:
        attribute(node, None)
    return {"import.numpy_s": totals["numpy"] * 1e-6,
            "import.scipy_s": totals["scipy"] * 1e-6,
            "import.parastar_self_s": totals["parastar"] * 1e-6}


# --- per-layer metrics --------------------------------------------------------


def merge(snapshots) -> dict:
    """Sum the stats and counters of several traced processes."""
    stats, counters = {}, {}
    for snap in snapshots:
        for name, (n, total, own) in snap["stats"].items():
            st = stats.setdefault(name, [0, 0, 0])
            st[0] += n
            st[1] += total
            st[2] += own
        for key, val in snap["counters"].items():
            counters[key] = counters.get(key, 0) + val
    return {"stats": stats, "counters": counters}


def exact_counters(snap) -> dict:
    c = snap["counters"]

    def ratio(num, den):
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    derived = {
        "oracle.map_calls_per_extremize": ratio("oracle.extremize_map_calls",
                                                "oracle.extremize_calls"),
        "oracle.bisect_evals_per_root": ratio("oracle.bisect_evals", "oracle.bisect_roots"),
        "oracle.golden_evals_per_root": ratio("oracle.golden_evals", "oracle.golden_roots"),
        "oracle.certify_accept_ratio": ratio("oracle.certify_accepted", "oracle.certify_calls"),
    }
    return {key: derived[key] if key in derived else c.get(key, 0) for key in EXACT}


def layer_metrics(snap, imports: dict, overhead: float) -> dict:
    """Every per-layer metric from one traced pass, as name -> value."""
    stats = snap["stats"]

    def total(*names):
        return sum(stats.get(n, (0, 0, 0))[1] for n in names) * 1e-9

    def own(*names):
        return sum(stats.get(n, (0, 0, 0))[2] for n in names) * 1e-9

    exact = exact_counters(snap)
    scalar_calls = exact["maps.scalar_calls"]
    points = exact["maps.vector_points"]
    # root spans: one warm operation, or one CLI command's main()
    op_total = total("op", "cli.main")
    out = dict(exact)
    out.update({
        "maps.scalar_busy_s": total("maps.scalar"),
        "maps.scalar_us_per_call": total("maps.scalar") / scalar_calls * 1e6 if scalar_calls else 0.0,
        "maps.vector_ns_per_point": total("maps.vector") / points * 1e9 if points else 0.0,
        "oracle.extremize_self_s": own("oracle.extremize"),
        "oracle.solver_self_s": own("oracle.bisect", "oracle.golden"),
        "oracle.quad_busy_s": total("oracle.quad"),
        "oracle.certify_busy_s": total("oracle.certify", "oracle.inclusion"),
        "radii.build_busy_s": total("radii.build"),
        "radii.condition_self_s": own("radii.condition"),
        "series.extremal_busy_s": total("series.extremal"),
        "region.busy_s": total("region.margin"),
        "cli.dispatch_s": total("cli.main"),
        "trace.overhead_frac": overhead,
        "trace.uncovered_frac": own("op", "cli.main") / op_total if op_total else 0.0,
    })
    out.update({f"verify.{fam}_s": total(f"verify.{fam}") for fam in VERIFY_FAMILIES})
    out.update(imports)
    return {name: out[name] for name, _unit, _better in LAYER_METRICS}


def self_time_table(snap) -> list[str]:
    """Human-readable per-span count, total and self time."""
    rows = sorted(snap["stats"].items(), key=lambda kv: -kv[1][2])
    lines = [f"{'span':<24}{'count':>10}{'total_s':>12}{'self_s':>12}"]
    lines += [f"{name:<24}{n:>10}{t * 1e-9:>12.4f}{s * 1e-9:>12.4f}"
              for name, (n, t, s) in rows]
    return lines
