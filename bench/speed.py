"""Reference kernel that tracks the host's momentary speed.

On a shared host the same op can take twice as long from one second to the
next (measured on a 2-vCPU Xeon VM: per-second medians of one fixed 200-clip
grounding ranged 6.1-11.6 ms over a minute, in phases lasting seconds). The
benchmark therefore runs this kernel between ops and expresses each op's
time at a nominal speed, the one at which the kernel takes ``NOMINAL_MS``,
using the median kernel time within ``WINDOW_S`` of the op (single kernel
runs jitter too much to use alone). The kernel is the benchmark's own and
frozen, so no change to the program can move it. It does the kinds of work
the program's DPs do: column sweeps of small numpy updates, dominated by
interpreter overhead, and of wider columns with exponentials.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

NOMINAL_MS = 8.0
WINDOW_S = 1.0
_rng = np.random.default_rng(20221011)
_SMALL = _rng.uniform(0.0, 5.0, size=(24, 300))
_LARGE = _rng.uniform(0.0, 5.0, size=(600, 100))
_DROP = 1.5


def reference_ms() -> float:
    """Wall time of one run of the kernel, in ms.

    Two column sweeps: small arrays, where interpreter and call overhead
    dominate (like the hard DP on small meta-graphs), and 600-row arrays
    with exponentials (like the soft DP).
    """
    start = time.perf_counter()
    prev = np.full(_SMALL.shape[0] + 1, np.inf)
    prev[0] = 0.0
    for j in range(_SMALL.shape[1]):
        before = np.r_[np.inf, prev[:-1]]
        plus = np.r_[np.inf, _SMALL[:, j]] + np.minimum(prev, before)
        prev = np.minimum(plus, prev + _DROP)
    prev = np.zeros(_LARGE.shape[0])
    for j in range(_LARGE.shape[1]):
        x = _LARGE[:, j] + prev
        w = np.exp(-(x - x.min()))
        prev = np.minimum(x, np.roll(prev, 1)) + 0.01 * w / w.sum()
    return (time.perf_counter() - start) * 1e3


class SpeedLog:
    """Kernel samples over a run, taken in time order."""

    def __init__(self):
        self.times: list[float] = []
        self.ms: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            self.ms.append(reference_ms())
            self.times.append(start)

    def sample_near(self, op_ms: float) -> None:
        """Kernel runs next to an op of ``op_ms``: about 5% of its time, 1 to 10 runs."""
        self.sample(min(10, max(1, round(op_ms / 160))))

    def factor(self, start: float, end: float) -> float:
        """Multiplier that puts a time measured over [start, end] at the nominal speed."""
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end + WINDOW_S)
        return NOMINAL_MS / statistics.median(self.ms[lo:hi])
