"""Paths, child processes and order statistics shared by the benchmark parts."""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Every run must end within 180 s; children get what is left of this.  A
# child inherits a deadline a little earlier than its parent's, so that
# it has stopped its own children before the parent gives up on it.
RUN_BUDGET_S = 170.0
_DEADLINE = float(os.environ.get("PERFBENCH_DEADLINE", time.monotonic() + RUN_BUDGET_S))


# Percentile reported as op_tail_ms per workload: the highest that keeps
# at least ten ops beyond it at the run length the workload is built for.
# Runs go on past --seconds until they hold enough ops for it.
TAIL_PCT = {"radius_catalog": 95.0, "growth_certify": 99.0, "cli_cold": 50.0}


def min_ops(workload: str) -> int:
    return math.ceil(10.0 / (1.0 - TAIL_PCT[workload] / 100.0) - 1e-9)


# Set-up is timed this many times per run and reported as the median.
SETUP_SAMPLES = 5


class BenchError(Exception):
    """The benchmark itself could not run (missing sources, hung child)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PERFBENCH_DEADLINE"] = repr(_DEADLINE - 5.0)
    return env


def run_child(args, importtime=False) -> tuple[subprocess.CompletedProcess, float, float]:
    """Run ``python [-X importtime] ARGS``; return (result, start, end) on the monotonic clock.

    The child inherits the monotonic clock, so a ``READY <time.monotonic()>``
    line it prints can be compared with ``start``.
    """
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), *args]
    left = _DEADLINE - time.monotonic()
    if left <= 0:
        raise BenchError("run budget exhausted")
    start = time.monotonic()
    try:
        res = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                             cwd=ROOT, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child did not finish within the run budget: {args}") from None
    return res, start, time.monotonic()


def ready_time(stdout: str) -> float:
    """Monotonic time stamp from the child's ``READY <t>`` line."""
    for line in stdout.splitlines():
        if line.startswith("READY "):
            return float(line.split()[1])
    raise BenchError("child never reported READY")


def nearest_rank(sorted_vals, pct: float) -> float:
    """Value at rank ceil(pct/100 * n) of an ascending list."""
    k = max(1, math.ceil(pct / 100.0 * len(sorted_vals)))
    return sorted_vals[k - 1]


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
