"""A fixed unit of CPU work that measures how fast the machine is right now.

On a shared machine the speed available to one process drifts by tens of
percent over seconds to minutes (other tenants on the same cores and
caches).  The worker runs this probe between chunks; dividing a chunk's
time by the mean of the probes on either side of it cancels most of that
drift.  Contention slows different kinds of code by different factors, so
the probe blends the kinds the workloads run: interpreter work, numpy
element-wise passes in cache and streaming from memory, and scipy's
assignment solver.  It calls no wristband code, so a change to the package
cannot move it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linear_sum_assignment

_IN_CACHE = np.linspace(0.0, 1.0, 1 << 15)
_STREAM_A = np.linspace(0.0, 1.0, 1 << 19)
_STREAM_B = _STREAM_A[::-1].copy()
_COST = np.random.default_rng(0).random((400, 400))


def probe_ns() -> int:
    """Wall time of one probe, about 14 ms on an idle core of a 2-core Xeon VM."""
    t0 = time.perf_counter_ns()
    s = 0
    for i in range(40_000):
        s += i * i
    for _ in range(25):
        float(np.exp(-0.5 * _IN_CACHE).sum())
    for _ in range(2):
        float((_STREAM_A * _STREAM_B + _STREAM_A).sum())
    linear_sum_assignment(_COST)
    return time.perf_counter_ns() - t0
