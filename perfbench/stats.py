"""Order statistics for latency samples."""

from __future__ import annotations

import statistics

# Tail percentiles the benchmark may report, in tenths of a percent.
TAIL_PERMILLE = (900, 990, 999)

# A percentile is only reported when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples, p: float) -> float:
    """The p-th percentile (0..100) by linear interpolation between order statistics."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, permille: int) -> int:
    """How many of n samples lie above the given percentile (in tenths of a percent)."""
    return n * (1000 - permille) // 1000


def tail_permille(n: int) -> int | None:
    """The highest tail percentile with at least MIN_BEYOND of n samples beyond it."""
    ok = [pm for pm in TAIL_PERMILLE if samples_beyond(n, pm) >= MIN_BEYOND]
    return max(ok) if ok else None


def iqr_share(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
