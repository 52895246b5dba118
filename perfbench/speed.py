"""The machine's speed, from fixed benchmark-owned probes timed next to the work.

The benchmark runs on a share of a host whose speed for one process
drifts by up to 1.7x within a minute, for all code alike (CPU time
drifts with wall time, so it is not time stolen from the process).  Run
after run, such drift moves every raw time by more than a regression
worth catching.  So the benchmark times a fixed probe that does not
touch parastar next to the work, and reports each time in reference
seconds:

    reference time = raw time * probe's reference time / (median probe time around it)

that is, the time the work would take where the probe takes its
reference time.  "Around it" is every probe within WINDOW_S of the
measured interval.  There are two probes, because warm code and fresh
interpreters drift differently:

* ``warm``: a slice of in-process work (a Python loop and small numpy
  calls, as parastar's hot paths are), run between warm ops;
* ``cold``: a fresh ``python -I -S -c pass``, run before and after every
  set-up sample and every CLI command; interpreter start-up tracks the
  cost of a cold command far better than in-process work does.

Raw times are printed and recorded next to the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

import common

# Each probe takes about this long on the 2-vCPU machine the benchmark was
# written on; the values only set the scale of the reported times.
REF_SLICE_S = 0.0025
REF_COLD_S = 0.010
WINDOW_S = 1.0
# Probes run before and after a set-up sample or a CLI command.
BURST = 3

_ANGLES = np.linspace(-np.pi, np.pi, 256)


def _slice() -> None:
    acc = 0.0
    for i in range(12000):
        acc += (i * 0.5) % 3.0
    for k in range(96):
        acc += float(np.abs(np.exp(1j * _ANGLES) + 0.1 * k).max())


def _cold_start() -> None:
    res, _start, _end = common.run_child(["-I", "-S", "-c", "pass"])
    if res.returncode != 0:
        raise common.BenchError(f"bare interpreter failed: {res.stderr[-500:]}")


class Speed:
    """One probe's samples in one process: their mid times and durations."""

    def __init__(self, probe, ref_s: float):
        self.probe, self.ref_s = probe, ref_s
        self.mids: list[float] = []
        self.durs: list[float] = []
        self.last = float("-inf")

    @classmethod
    def warm(cls) -> "Speed":
        return cls(_slice, REF_SLICE_S)

    @classmethod
    def cold(cls) -> "Speed":
        return cls(_cold_start, REF_COLD_S)

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.monotonic()
            self.probe()
            t1 = time.monotonic()
            self.mids.append(0.5 * (t0 + t1))
            self.durs.append(t1 - t0)
            self.last = t1

    def scaled(self, start: float, end: float) -> float:
        """The interval [start, end] in reference seconds, by the median probe
        within WINDOW_S of it (the four nearest probes if fewer lie there)."""
        lo = bisect.bisect_left(self.mids, start - WINDOW_S)
        hi = bisect.bisect_right(self.mids, end + WINDOW_S)
        if hi - lo < 3:
            mid = bisect.bisect_left(self.mids, 0.5 * (start + end))
            lo, hi = max(0, mid - 2), min(len(self.mids), mid + 2)
        return (end - start) * self.ref_s / statistics.median(self.durs[lo:hi])

    def median_ms(self) -> float:
        return statistics.median(self.durs) * 1e3
