"""One warm, in-process workload run; started by ``run.py``.

    python worker.py WORKLOAD SEED SECONDS MODE [SPANS_FILE]

The worker imports parastar, fills the workload's lazy caches and prints
``READY`` with the monotonic clock; the parent takes the time from
starting the interpreter to that stamp as set-up.
Then, by MODE:

* ``setup``: exit.
* ``timed``: run whole blocks of ops until SECONDS have passed and the
  run holds enough ops for its tail percentile, one op at a time (one
  client, closed loop), and print one JSON line with every op's latency,
  raw and in reference seconds (see ``speed.py``; calibration slices run
  between ops).  Between blocks it times set-up-only workers.
* ``traced``: run a fixed number of blocks twice plainly (the first pass
  warms up, the second is timed) and once with the tracer installed,
  write the spans to SPANS_FILE and print one JSON line with the
  per-layer totals and both wall times.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from time import monotonic, perf_counter

import numpy as np

import common
import speed as speedmod
import tracer
import workloads

# Blocks in a traced pass: fixed, so the exact counters depend only on the seed.
TRACE_BLOCKS = {"radius_catalog": 1, "growth_certify": 8}
# With a Speed, a calibration slice follows every op that ends this long
# after the last slice: a few per cent of the run's time.
SLICE_EVERY_S = 0.1


def _run(ops, call, failures, speed=None):
    """Run ops in order; return ((start, end) per op, kinds, failed count)."""
    spans, kinds, failed = [], [], 0
    for i, (kind, fn) in enumerate(ops):
        t0 = monotonic()
        try:
            ok = call(i, fn)
        except Exception:  # a raising op is a failed op; the run goes on
            ok = False
            if len(failures) < 5:
                failures.append(traceback.format_exc())
        t1 = monotonic()
        spans.append((t0, t1))
        kinds.append(kind)
        if speed is not None and t1 - speed.last >= SLICE_EVERY_S:
            speed.sample()
        if not ok:
            failed += 1
            if len(failures) < 5:
                failures.append(f"op {i} ({kind}) failed its check")
    return spans, kinds, failed


def _plain(_i, fn):
    return fn()


def setup_sample(workload, cold) -> tuple[float, float]:
    """Interpreter start to READY of a fresh set-up-only worker: (raw, reference) s."""
    cold.sample(speedmod.BURST)
    res, start, _end = common.run_child([__file__, workload, "0", "0", "setup"])
    cold.sample(speedmod.BURST)
    if res.returncode != 0:
        raise common.BenchError(f"set-up worker failed: {res.stderr[-2000:]}")
    ready = common.ready_time(res.stdout)
    return ready - start, cold.scaled(start, ready)


def main(argv) -> int:
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    make_block = workloads.make(workload)
    print("READY", repr(time.monotonic()), flush=True)
    if mode == "setup":
        return 0

    rng = np.random.default_rng(seed)
    failures = []
    out = {"failures": failures}
    if mode == "timed":
        # Set-up is sampled between blocks, spread over the run, so that
        # one slow phase of the machine does not hold every sample.
        speed, cold = speedmod.Speed.warm(), speedmod.Speed.cold()
        speed.sample(speedmod.BURST)
        blocks, kinds, setups, failed = [], [], [], 0
        need, count = common.min_ops(workload), common.SETUP_SAMPLES
        measured = 0.0
        while measured < seconds or sum(map(len, blocks)) < need:
            t0 = monotonic()
            spans, kd, f = _run(make_block(rng), _plain, failures, speed)
            measured += monotonic() - t0
            blocks.append(spans)
            kinds += kd
            failed += f
            if len(setups) < count and measured >= seconds * (len(setups) + 1) / count:
                setups.append(setup_sample(workload, cold))
        setups += [setup_sample(workload, cold) for _ in range(count - len(setups))]
        spans = [span for block in blocks for span in block]
        latencies = [speed.scaled(t0, t1) for t0, t1 in spans]
        out.update(blocks=len(blocks), latencies_s=latencies,
                   raw_latencies_s=[t1 - t0 for t0, t1 in spans],
                   failed=failed, setup_samples_s=[s[1] for s in setups],
                   raw_setup_samples_s=[s[0] for s in setups],
                   slice_ms=speed.median_ms(), cold_probe_ms=cold.median_ms())
        if workload == "radius_catalog":
            on_circle = [k in workloads.CIRCLE_IDS for k in kinds]
            out["circle_op_share"] = sum(on_circle) / len(on_circle)
            out["circle_time_share"] = (sum(t for t, c in zip(latencies, on_circle) if c)
                                        / sum(latencies))
    else:
        ops = [op for _ in range(TRACE_BLOCKS[workload]) for op in make_block(rng)]
        _spans, _kinds, failed_warm = _run(ops, _plain, failures)  # warm-up, untimed
        t0 = perf_counter()
        _spans, _kinds, failed_plain = _run(ops, _plain, failures)
        plain_wall = perf_counter() - t0
        tr = tracer.Tracer()
        tracer.install(tr)
        t0 = perf_counter()
        _spans, _kinds, failed_traced = _run(ops, lambda i, fn: tr.run_op(i, fn), failures)
        traced_wall = perf_counter() - t0
        tr.write_spans(argv[4])
        out.update(ops=len(ops), failed=failed_warm + failed_plain + failed_traced,
                   plain_wall_s=plain_wall, traced_wall_s=traced_wall,
                   snapshot=tr.snapshot())
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
