"""parastar benchmark: one workload run, or a comparison of two result sets.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--record FILE]
    python3 perfbench/run.py --compare A.jsonl [B.jsonl]

Workloads (one client, closed loop, one process at a time):

* ``radius_catalog``: warm; a seeded stream over the whole radius catalog,
  each op ``radii.get_entry`` -> both bisection routes -> witness margin.
* ``growth_certify``: warm; growth bounds, member growth, extremal series
  vs quadrature, covering constant, certification and inclusion sweeps.
  It never runs circle extremization or a bracketing solver.
* ``cli_cold``: each op is a fresh interpreter running one CLI command.

With ``--trace 0`` the run reports the end-to-end metrics, measured with
no tracer present.  With ``--trace 1`` it runs a fixed amount of work
plainly and then twice traced (in two processes), reports every
per-layer metric, fails if the two traced runs disagree on any exact
counter, and writes the spans to ``perfbench/out/spans-W-seedN.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run is also
appended, with its header, to ``perfbench/out/runs.jsonl`` (or --record),
which is what ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import sys

import clicold
import common
import tracer

WORKLOADS = ("radius_catalog", "growth_certify", "cli_cold")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _version(pkg: str) -> str:
    try:
        return importlib.metadata.version(pkg)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _src_lines() -> int:
    total = 0
    for path in sorted(common.SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def _header(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": _version("numpy"),
            "scipy": _version("scipy"), "mpmath": _version("mpmath"),
            "src_lines": _src_lines()}


# --- warm workloads -----------------------------------------------------------


def _worker(workload, seed, seconds, mode, extra=(), importtime=False):
    res, start, _end = common.run_child(
        [str(common.BENCH / "worker.py"), workload, str(seed), str(seconds), mode, *extra],
        importtime=importtime)
    if res.returncode != 0:
        raise common.BenchError(f"worker exited with {res.returncode}: {res.stderr[-2000:]}")
    setup = common.ready_time(res.stdout) - start
    result = json.loads(res.stdout.splitlines()[-1]) if mode != "setup" else None
    return setup, result, res.stderr


def _latency_metrics(workload, latencies, blocks) -> tuple[dict, dict]:
    """Throughput and latency over all ops of whole blocks (each holds the same mix)."""
    lat = sorted(latencies)
    pct = common.TAIL_PCT[workload]
    tail = common.nearest_rank(lat, pct)
    metrics = {"ops_per_s": len(lat) / sum(lat),
               "op_p50_ms": statistics.median(lat) * 1e3,
               "op_tail_ms": tail * 1e3}
    info = {"ops": len(lat), "blocks": blocks, "tail_percentile": pct,
            "tail_samples_beyond": sum(1 for x in lat if x > tail)}
    return metrics, info


def _with_raw(info, raw, probes) -> None:
    """Record the raw-time metrics (``raw_<name>``) and the median probe times in info."""
    info.update({f"raw_{name}": val for name, val in raw.items()}, **probes)


def warm_timed(args) -> dict:
    _setup, res, _err = _worker(args.workload, args.seed, args.seconds, "timed")
    metrics, info = _latency_metrics(args.workload, res["latencies_s"], res["blocks"])
    raw, _ = _latency_metrics(args.workload, res["raw_latencies_s"], res["blocks"])
    metrics["setup_s"] = statistics.median(res["setup_samples_s"])
    raw["setup_s"] = statistics.median(res["raw_setup_samples_s"])
    metrics["peak_rss_mb"] = res["maxrss_kb"] / 1024.0
    _with_raw(info, raw, {k: res[k] for k in ("slice_ms", "cold_probe_ms")})
    info["setup_samples_s"] = res["setup_samples_s"]
    info.update((k, res[k]) for k in ("circle_op_share", "circle_time_share") if k in res)
    return {"metrics": metrics, "info": info, "attempted": len(res["latencies_s"]),
            "failed": res["failed"], "failures": res["failures"]}


def warm_traced(args, spans_path) -> dict:
    procs = [_worker(args.workload, args.seed, args.seconds, "traced",
                     extra=(spans_path,), importtime=True) for _ in range(2)]
    return {"runs": [{"snapshot": res["snapshot"], "wall_s": res["traced_wall_s"],
                      "plain_wall_s": res["plain_wall_s"], "imports": tracer.import_times(err)}
                     for _setup, res, err in procs],
            "attempted": sum(res["ops"] * 3 for _s, res, _e in procs),
            "failed": sum(res["failed"] for _s, res, _e in procs),
            "failures": [f for _s, res, _e in procs for f in res["failures"]][:5]}


# --- cli_cold -------------------------------------------------------------------


def cli_timed(args) -> dict:
    res = clicold.run_timed(args.seed, args.seconds)
    metrics, info = _latency_metrics("cli_cold", res["latencies_s"], res["rounds"])
    raw, _ = _latency_metrics("cli_cold", res["raw_latencies_s"], res["rounds"])
    metrics["setup_s"] = statistics.median(res["setup"])
    raw["setup_s"] = statistics.median(res["raw_setup"])
    _with_raw(info, raw, {"cold_probe_ms": res["cold_probe_ms"]})
    # every child has been waited for, so this is the largest CLI process
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    info.update(res["commands"], setup_samples_s=res["setup"], verify_lines=res["verify_lines"])
    return {"metrics": metrics, "info": info, "attempted": len(res["latencies_s"]),
            "failed": res["failed"], "failures": res["failures"]}


def cli_traced(args, spans_path) -> dict:
    res = clicold.run_traced(args.seed, spans_path)
    return {"runs": [{**rnd, "plain_wall_s": res["plain_wall_s"]} for rnd in res["rounds"]],
            "attempted": res["ops"], "failed": res["failed"], "failures": res["failures"]}


# --- output -------------------------------------------------------------------


def traced(args) -> dict:
    """Per-layer metrics of the first traced run; both runs' exact counters must agree."""
    spans_path = common.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    spans_path.unlink(missing_ok=True)
    res = (cli_traced if args.workload == "cli_cold" else warm_traced)(args, str(spans_path))
    runs = res.pop("runs")
    overhead = statistics.mean(r["wall_s"] / r["plain_wall_s"] for r in runs)
    exact = [tracer.exact_counters(r["snapshot"]) for r in runs]
    print(f"# trace.overhead_frac={overhead!r} spans={spans_path}")
    print("\n".join(tracer.self_time_table(runs[0]["snapshot"])))
    mismatched = [k for k in exact[0] if exact[0][k] != exact[1][k]]
    res["failures"] += [f"exact counter differs between traced runs: {k} "
                        f"{exact[0][k]!r} vs {exact[1][k]!r}" for k in mismatched]
    res.update(metrics=tracer.layer_metrics(runs[0]["snapshot"], runs[0]["imports"], overhead),
               info={}, exact=exact[0], overhead=overhead, consistent=not mismatched)
    return res


def run(args) -> int:
    if not (common.SRC / "parastar" / "__init__.py").is_file():
        print(f"error: no parastar sources under {common.SRC}", file=sys.stderr)
        return 2
    # Byte-compile once, so no measured interpreter pays for compiling.
    compileall.compile_dir(str(common.SRC), quiet=1)
    compileall.compile_dir(str(common.BENCH), quiet=1, maxlevels=0)
    common.OUT.mkdir(exist_ok=True)
    header = _header(args)
    print(f"# parastar benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# " + " ".join(f"{k}={header[k]}" for k in
                          ("nproc", "python", "numpy", "scipy", "mpmath", "src_lines")))
    if args.trace:
        res = traced(args)
        units = {name: unit for name, unit, _b in tracer.LAYER_METRICS}
    else:
        res = (cli_timed if args.workload == "cli_cold" else warm_timed)(args)
        units = dict(END_TO_END)
        print("# trace.overhead_frac=n/a (untraced run)")
    header["trace.overhead_frac"] = res.get("overhead")
    attempted, failed = res["attempted"], res["failed"]
    info = {**res["info"], "failed_frac": failed / attempted if attempted else 1.0}
    for text in res["failures"]:
        print(f"failure: {text.strip()}", file=sys.stderr)
    metrics = {name: res["metrics"][name] for name in units}
    for name, val in metrics.items():
        print(f"{name:<34}{val!r:>24} {units[name]}")
    for name, val in info.items():
        print(f"  {name:<32}{val!r}")

    correct = attempted > 0 and failed == 0 and res.get("consistent", True)
    record = {"header": header, "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics, "info": info, "exact": res.get("exact", {})}
    with open(args.record or common.OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


# --- compare -----------------------------------------------------------------


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _numeric(rec):
    vals = dict(rec["metrics"])
    vals.update((k, v) for k, v in rec["info"].items()
                if isinstance(v, (int, float)) and not isinstance(v, bool))
    return vals


def compare(paths) -> int:
    """Median and quartiles per (metric, workload); exact counters that changed."""
    sets = [_load(p) for p in paths]
    groups = {}
    for side, recs in enumerate(sets):
        for rec in recs:
            key = (rec["header"]["workload"], rec["header"]["trace"])
            for name, val in _numeric(rec).items():
                groups.setdefault((key, name), [[] for _ in sets])[side].append(val)
    print(f"{'workload':<16}{'t':<2}{'metric':<34}" +
          "".join(f"{'n':>4}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/med':>9}" for _ in sets) +
          ("  change" if len(sets) == 2 else ""))
    for ((workload, trace), name), sides in sorted(groups.items()):
        row = f"{workload:<16}{trace:<2}{name:<34}"
        meds = []
        for vals in sides:
            if not vals:
                row += f"{'':>4}{'-':>14}{'':>14}{'':>14}{'':>9}"
                meds.append(None)
                continue
            q1, med, q3 = common.quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            row += f"{len(vals):>4}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}"
            meds.append(med)
        if len(meds) == 2 and meds[0] and meds[1] is not None:
            row += f"  {(meds[1] - meds[0]) / meds[0]:+.2%}"
        print(row)

    # exact counters: within a set, every traced run of one (workload, seed)
    # must agree; between sets, list what changed
    firsts, changed = [], []
    for side, recs in enumerate(sets):
        first = {}
        for rec in recs:
            if not rec["exact"]:
                continue
            key = (rec["header"]["workload"], rec["header"]["seed"])
            ref = first.setdefault(key, rec["exact"])
            changed += [(f"set {side + 1} repeat", key, name, ref.get(name), val)
                        for name, val in rec["exact"].items() if ref.get(name) != val]
        firsts.append(first)
    if len(sets) == 2:
        for key in sorted(firsts[0].keys() & firsts[1].keys()):
            a, b = firsts[0][key], firsts[1][key]
            changed += [("set 1 -> set 2", key, name, a.get(name), b.get(name))
                        for name in sorted(a.keys() | b.keys()) if a.get(name) != b.get(name)]
    print(f"exact counters that differ: {len(changed)}")
    for where, (workload, seed), name, a, b in changed:
        print(f"  {where}: {workload} seed={seed} {name}: {a!r} -> {b!r}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="JSONL file the run is appended to")
    p.add_argument("--compare", nargs="+", metavar="RESULTS", help="one or two JSONL result sets")
    args = p.parse_args(argv)
    if args.compare:
        if len(args.compare) > 2:
            p.error("--compare takes one or two result sets")
        return compare(args.compare)
    if args.workload is None:
        p.error("--workload is required")
    try:
        return run(args)
    except common.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
