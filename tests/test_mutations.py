"""A first slice of the mutation matrix: a fault in one primitive must fail
verify rows.

Each mutant is a text edit of a copy of ``src/`` under ``tmp_path``, and
``verify --all`` runs on it in a fresh interpreter, so no name bound at
import (``from .maps import kernel_modulus``) escapes the edit.  Every
mutant must exit 1 and fail at least the rows listed with it; the
unmutated copy is the control and must pass all 74 rows.
"""

import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"

# the disc and corollary radii: |k(r)| against a level
_KERNEL_LEVEL_ROWS = [
    "radius/disc_class(alpha=1)", "radius/disc_class(alpha=0.5)", "radius/beta_disc(beta=0.5)",
    "radius/r1_exp", "radius/r2_sine", "radius/r3_cosh_sqrt", "radius/r4_cardioid",
    "radius/r5_asinh", "radius/r6_sigmoid", "radius/r7_nephroid", "radius/r8_lemniscate",
    "radius/r9_reverse_lemniscate"]
# rows that hold the map L on the real axis against a tanh^2 closed form, so
# a fault on either side fails them
_L_VS_TANH_SQ_ROWS = [
    "radius/sp", "witness/sp", "radius/caratheodory(alpha=0)",
    "radius/caratheodory(alpha=0.5)", "witness/caratheodory(alpha=0)",
    "witness/caratheodory(alpha=0.5)", "witness/disc_class(alpha=1)",
    "witness/disc_class(alpha=0.5)", "witness/beta_disc(beta=0.5)"]
# witnesses of the circle-max and ratio rows: the region margin at the
# extremal's value, which sits on the vertex 3/2
_VERTEX_WITNESS_ROWS = [
    "witness/sp", "witness/sine", "witness/lune", "witness/cosh_sqrt", "witness/asinh",
    "witness/cardioid", "witness/bs(alpha=0.5)", "witness/bs(alpha=0.25)",
    "witness/alpha_exp(alpha=0)", "witness/alpha_exp(alpha=0.3)",
    "witness/janowski(A=0.5;B=-0.5)", "witness/janowski(A=1;B=-0.9)",
    "witness/ratio(A=-1)", "witness/ratio(A=1)", "witness/ratio(A=0)"]

# name: (file under src/parastar, text, replacement, rows that must fail),
# the rows as measured on the source before the mutant was added
MUTATIONS = {
    "parabola_map": (
        "maps.py", "return _ret(-_EIGHT_OVER_PI_SQ * np.arctanh(w) ** 2)",
        "return _ret(-_EIGHT_OVER_PI_SQ * (1.0 + 5e-7) * np.arctanh(w) ** 2)",
        [*_L_VS_TANH_SQ_ROWS, "radius/majorization", "region/real_part_bounds",
         "witness/mbeta(beta=1.1)", "witness/mbeta(beta=1.25)", "witness/mbeta(beta=1.4)"]),
    "kernel_modulus": (
        "maps.py", "return _ret(_EIGHT_OVER_PI_SQ * np.arctanh(np.sqrt(r)) ** 2)",
        "return _ret(_EIGHT_OVER_PI_SQ * (1.0 + 5e-7) * np.arctanh(np.sqrt(r)) ** 2)",
        [*_KERNEL_LEVEL_ROWS, "region/real_part_bounds", "growth/covered_radius",
         "growth/series_vs_quadrature", "radius/peng_zhong"]),
    # k(-r): the real_part_bounds maximum, the mbeta condition and the
    # upper growth integrand
    "kernel_reflection": (
        "maps.py", "return _ret(_EIGHT_OVER_PI_SQ * np.arctan(np.sqrt(r)) ** 2)",
        "return _ret(_EIGHT_OVER_PI_SQ * (1.0 + 5e-7) * np.arctan(np.sqrt(r)) ** 2)",
        ["region/real_part_bounds", "radius/mbeta(beta=1.1)", "radius/mbeta(beta=1.25)",
         "radius/mbeta(beta=1.4)", "growth/covering_constant", "growth/series_vs_quadrature",
         "radius/peng_zhong"]),
    "reverse_lemniscate_eta": (
        "maps.py", "eta = _SQRT2 - 1.0", "eta = (_SQRT2 - 1.0) * (1.0 + 1e-6)",
        ["radius/r9_reverse_lemniscate"]),
    "angle_tol": (
        "oracle.py", "_ANGLE_TOL = 1e-10", "_ANGLE_TOL = 1e-2",
        ["radius/r9_reverse_lemniscate"]),
    # the Janowski target, which its circle-max condition and witness sample
    "janowski_map": (
        "maps.py", "return (1.0 + A * z) / den", "return (1.0 + A * z) / den * (1.0 + 1e-6)",
        ["radius/janowski(A=0.5;B=-0.5)", "witness/janowski(A=0.5;B=-0.5)",
         "radius/janowski(A=1;B=-0.9)", "witness/janowski(A=1;B=-0.9)"]),
    # the one tanh^2(pi sqrt(c)/(2 sqrt 2)) of every kernel-level closed form
    "tanh_sq": (
        "radii.py", "return math.tanh(_PI * math.sqrt(c) / (2.0 * math.sqrt(2.0))) ** 2",
        "return math.tanh(_PI * math.sqrt(c) / (2.0 * math.sqrt(2.0))) ** 2 * (1.0 + 1e-8)",
        [*_KERNEL_LEVEL_ROWS, *_L_VS_TANH_SQ_ROWS]),
    # a stated inner-disc constant moves its closed form alone: the condition
    # re-derives the constant on the circle
    "r2_sine_constant": (
        "radii.py", '"r2_sine": (math.sin(1.0),', '"r2_sine": (math.sin(1.0) * (1.0 + 1e-7),',
        ["radius/r2_sine"]),
    "r7_nephroid_constant": (
        "radii.py", '"r7_nephroid": (2.0 / 3.0,', '"r7_nephroid": (2.0 / 3.0 * (1.0 + 1e-7),',
        ["radius/r7_nephroid"]),
    "p0_coefficients": (
        "series.py", "coeffs[1:] = -(8.0 / math.pi**2) * odd_sums / n",
        "coeffs[1:] = -(8.0 / math.pi**2) * (1.0 + 1.25e-7) * odd_sums / n",
        ["growth/series_vs_quadrature", "radius/majorization", "radius/peng_zhong",
         "series/upper_coefficients"]),
    "lower_integrand": (
        "oracle.py", "return -kernel_modulus(t) / t",
        "return -kernel_modulus(t) / t * (1.0 + 1e-6)",
        ["growth/covered_radius", "growth/series_vs_quadrature"]),
    "upper_integrand": (
        "oracle.py", "return kernel_reflection(t) / t",
        "return kernel_reflection(t) / t * (1.0 + 1.25e-7)",
        ["growth/covering_constant", "growth/series_vs_quadrature", "radius/peng_zhong"]),
    "catalan": (
        "region.py", "_CATALAN = 0.915965594177219", "_CATALAN = 0.915965594177",
        ["growth/covering_constant"]),
    # the region's vertex: every witness whose margin vanishes at the vertex
    "region_vertex": (
        "region.py", "m = 3.0 - 2.0 * w.real - w.imag**2",
        "m = 3.000001 - 2.0 * w.real - w.imag**2", _VERTEX_WITNESS_ROWS),
    # the parabola's width: every catalog image first meets it at the vertex,
    # so only the off-axis probes see it
    "parabola_width": (
        "region.py", "m = 3.0 - 2.0 * w.real - w.imag**2",
        "m = 3.0 - 2.0 * w.real - 1.01 * w.imag**2", ["region/inscribed_disc_probes"]),
    "sine_target": (
        "maps.py", "1.0 + np.sin(z)", "1.0 + np.sin(z) + 1e-7 * z * z",
        ["radius/sine", "radius/r2_sine", "witness/sine"]),
    # the exp recurrence past its third term
    "series_exp": (
        "series.py", "rev[n_max - n + 1 :]) / n",
        "rev[n_max - n + 1 :]) / n * (1.0 + 1e-7 * (n > 3))", ["series/defining_ode"]),
    "inscribed_disc_radius": (
        "region.py", "return math.sqrt(2.0 - 2.0 * a) if a <= 0.5",
        "return math.sqrt(2.0 - 2.0 * a) * (1.0 + 1e-5) if a <= 0.5",
        ["region/inscribed_disc_probes"]),
}


def _run(root: Path, mutation) -> tuple[int, dict]:
    pkg = root / "src" / "parastar"
    shutil.copytree(_SRC / "parastar", pkg, ignore=shutil.ignore_patterns("__pycache__"))
    if mutation is not None:
        name, text, new, _ = mutation
        source = (pkg / name).read_text(encoding="utf-8")
        assert source.count(text) == 1, f"{text!r} must occur once in {name}"
        (pkg / name).write_text(source.replace(text, new), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "parastar", "verify", "--all"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    return proc.returncode, {row["id"]: row["passed"] for row in rows}


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    # ~0.4 s per run; two interpreters at a time
    jobs = {"control": None, **MUTATIONS}
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {name: pool.submit(_run, tmp_path_factory.mktemp(name), mutation)
                   for name, mutation in jobs.items()}
        return {name: future.result() for name, future in futures.items()}


def test_control_passes_every_row(outcomes):
    code, rows = outcomes["control"]
    assert code == 0
    assert len(rows) == 74 and all(rows.values())


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_mutant_fails_its_rows(outcomes, name):
    code, rows = outcomes[name]
    expected = MUTATIONS[name][3]
    assert code == 1
    assert len(rows) == 74
    failed = sorted(cid for cid, passed in rows.items() if not passed)
    assert set(expected) <= set(failed), failed
