"""The ``cli_cold`` workload: every op is a fresh interpreter running one command.

A round is a fixed mix of seven commands in a seeded order: two ``eval``
calls (seeded target and point), ``radius`` for a circle-max entry (sp)
and a kernel-only entry (r7_nephroid), ``radius-table``, ``verify --all``
and ``verify --only growth``.  ``eval`` runs twice so that the median
command falls inside one command's cluster of wall times rather than
between two.  Every output is checked: exit code 0, ``eval`` against an
independent cmath evaluation, radius gaps within 1e-9, every verify line
passed, and ``radius-table`` / ``verify`` output byte-identical across the
run (``verify --only growth`` equal to the growth lines of ``--all``).
"""

from __future__ import annotations

import cmath
import json
import math
import random
import statistics
import time

import common
import speed as speedmod
import tracer

_PI_SQ = math.pi**2
_SP = math.tanh(math.pi / 4.0) ** 2
_R7 = math.tanh(math.pi / (2.0 * math.sqrt(3.0))) ** 2
RADIUS_TOL = 1e-9


def _sqrt_upper(z):
    w = cmath.sqrt(z)
    return -w if w.imag < 0.0 else w


def _left_parabola(z):
    s = _sqrt_upper(z)
    return 1.0 - (2.0 / _PI_SQ) * cmath.log((1.0 + s) / (1.0 - s)) ** 2


# target -> (parameter draw, reference value)
_EVAL = {
    "left_parabola": (lambda rng: {}, lambda z, p: _left_parabola(z)),
    "sine": (lambda rng: {}, lambda z, p: 1.0 + cmath.sin(z)),
    "cardioid": (lambda rng: {}, lambda z, p: 1.0 + z * cmath.exp(z)),
    "lune": (lambda rng: {}, lambda z, p: z + cmath.sqrt(1.0 + z * z)),
    "asinh": (lambda rng: {}, lambda z, p: 1.0 + cmath.asinh(z)),
    "nephroid": (lambda rng: {}, lambda z, p: 1.0 + z - z**3 / 3.0),
    "alpha_exp": (lambda rng: {"alpha": rng.uniform(0.0, 0.95)},
                  lambda z, p: p["alpha"] + (1.0 - p["alpha"]) * cmath.exp(z)),
    "janowski": (lambda rng: {"A": rng.uniform(0.0, 1.0), "B": rng.uniform(-0.9, -0.05)},
                 lambda z, p: (1.0 + p["A"] * z) / (1.0 + p["B"] * z)),
}


def _eval_command(rng):
    target = rng.choice(sorted(_EVAL))
    draw, ref = _EVAL[target]
    params = draw(rng)
    z = cmath.rect(rng.uniform(0.0, 0.9), rng.uniform(-math.pi, math.pi))
    argv = ["eval", "--target", target, f"--z={z!r}"]
    for key, val in params.items():
        argv.append(f"--{key}={val!r}")
    expected = ref(z, params)

    def check(out):
        v = json.loads(out)["value"]
        return abs(complex(v["re"], v["im"]) - expected) <= 1e-12 * max(1.0, abs(expected))

    return "eval", argv, check


def _radius_check(expected):
    def check(out):
        d = json.loads(out)
        return (abs(d["closed_form"] - expected) <= 1e-12
                and abs(d["oracle_root"] - d["closed_form"]) <= RADIUS_TOL)

    return check


def _table_check(out):
    rows = [ln.split(",") for ln in out.splitlines()[2:]]
    return bool(rows) and all(abs(float(row[3])) <= RADIUS_TOL for row in rows)


def _verify_check(out):
    lines = out.splitlines()
    return bool(lines) and all(json.loads(ln)["passed"] is True for ln in lines)


def make_round(rng):
    cmds = [_eval_command(rng), _eval_command(rng),
            ("radius", ["radius", "sp"], _radius_check(_SP)),
            ("radius", ["radius", "r7_nephroid"], _radius_check(_R7)),
            ("radius_table", ["radius-table"], _table_check),
            ("verify_all", ["verify", "--all"], _verify_check),
            ("verify_only", ["verify", "--only", "growth"], _verify_check)]
    rng.shuffle(cmds)
    return cmds


def _check_identical(records) -> None:
    """Mark ops whose output differs from the run's first of the same command."""
    ref = {}
    for rec in records:
        if rec["kind"] in ("radius_table", "verify_all"):
            ref.setdefault(rec["kind"], rec["out"])
    try:
        growth = "".join(ln + "\n" for ln in ref.get("verify_all", "").splitlines()
                         if "growth" in json.loads(ln)["id"])
    except (ValueError, KeyError):
        growth = None  # the reference itself is broken; its op already failed
    for rec in records:
        expect = growth if rec["kind"] == "verify_only" else ref.get(rec["kind"], rec["out"])
        if rec["out"] != expect:
            rec["ok"] = False
            rec["err"] = rec["err"] or "output differs from the run's first of this command"


def _run_round(cmds, records, traced=None, speed=None):
    """Run one round; ``traced`` is (snapshot dir, spans file, first proc id) or None.

    With ``speed`` (a cold probe), it runs before and after every command,
    and each record holds its (start, end) for scaling to reference time.
    """
    snaps = []
    for i, (kind, argv, check) in enumerate(cmds):
        if speed is not None:
            speed.sample(speedmod.BURST)
        if traced is None:
            res, start, end = common.run_child(["-m", "parastar", *argv])
        else:
            snap_dir, spans, proc0 = traced
            snap = snap_dir / f"snapshot-{proc0 + i}.json"
            res, start, end = common.run_child(
                [str(common.BENCH / "launcher.py"), str(snap), str(spans), str(proc0 + i),
                 "--", *argv], importtime=True)
            snaps.append((snap, res.stderr))
        if speed is not None:
            speed.sample(speedmod.BURST)
        ok = res.returncode == 0
        if ok:
            try:
                ok = check(res.stdout)
            except (ValueError, KeyError, IndexError):
                ok = False
        records.append({"kind": kind, "argv": argv, "span": (start, end), "ok": ok,
                        "out": res.stdout, "err": res.stderr[-2000:] if not ok else ""})
    return snaps


def _outcome(records) -> dict:
    failed = [r for r in records if not r["ok"]]
    return {"failed": len(failed),
            "failures": [f"{' '.join(r['argv'])}: {r['err']}" for r in failed][:5]}


def _setup_sample(cold) -> tuple[float, float]:
    """Start to READY of a cold ``import parastar``: (raw, reference) s."""
    cold.sample(speedmod.BURST)
    res, start, _end = common.run_child(
        ["-c", "import time, parastar; print('READY', repr(time.monotonic()))"])
    cold.sample(speedmod.BURST)
    if res.returncode != 0:
        raise common.BenchError(f"cold import failed: {res.stderr[-500:]}")
    ready = common.ready_time(res.stdout)
    return ready - start, cold.scaled(start, ready)


def run_timed(seed, seconds) -> dict:
    """Rounds until SECONDS have passed and enough commands ran; a cold
    import is timed before every round, so set-up samples spread over the run.
    Times are raw and in reference seconds (see ``speed.py``)."""
    rng = random.Random(seed)
    speed = speedmod.Speed.cold()
    records, setup, rounds = [], [], 0
    measured = 0.0
    while measured < seconds or len(records) < common.min_ops("cli_cold"):
        setup.append(_setup_sample(speed))
        cmds = make_round(rng)
        t0 = time.monotonic()
        _run_round(cmds, records, speed=speed)
        measured += time.monotonic() - t0
        rounds += 1
    setup += [_setup_sample(speed) for _ in range(common.SETUP_SAMPLES - len(setup))]
    _check_identical(records)
    for rec in records:
        start, end = rec["span"]
        rec["raw_s"] = end - start
        rec["ref_s"] = speed.scaled(start, end)
    per_kind = {}
    for rec in records:
        per_kind.setdefault(rec["kind"], []).append(rec["ref_s"])
    return {
        "setup": [s[1] for s in setup],
        "raw_setup": [s[0] for s in setup],
        "cold_probe_ms": speed.median_ms(),
        "rounds": rounds,
        "latencies_s": [rec["ref_s"] for rec in records],
        "raw_latencies_s": [rec["raw_s"] for rec in records],
        **_outcome(records),
        "commands": {f"{kind}_s": statistics.median(v) for kind, v in sorted(per_kind.items())},
        "verify_lines": len(next((r["out"] for r in records if r["kind"] == "verify_all"),
                                 "").splitlines()),
    }


def run_traced(seed, spans_path) -> dict:
    """One plain round and two traced rounds of the same commands."""
    cmds = make_round(random.Random(seed))
    records = []
    t0 = time.monotonic()
    _run_round(cmds, records)
    plain = time.monotonic() - t0
    rounds = []
    for k in range(2):
        t0 = time.monotonic()
        snaps = _run_round(cmds, records, (common.OUT, spans_path, k * len(cmds)))
        wall = time.monotonic() - t0
        loaded = []
        for snap, _err in snaps:
            if snap.exists():  # a command that failed to start has none; it is a failed op
                with open(snap, encoding="utf-8") as fh:
                    loaded.append(json.load(fh))
                snap.unlink()
        imports = [tracer.import_times(err) for _snap, err in snaps]
        rounds.append({"wall_s": wall, "snapshot": tracer.merge(loaded),
                       "imports": {key: statistics.median(d[key] for d in imports)
                                   for key in imports[0]}})
    _check_identical(records)
    return {
        "ops": len(records),
        **_outcome(records),
        "plain_wall_s": plain,
        "rounds": rounds,
    }
