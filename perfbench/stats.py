"""Order statistics the benchmark reports: median, quartile spread, tail."""

from __future__ import annotations

import statistics

# A tail percentile is reported only where at least this many samples lie beyond it.
TAIL_MIN_BEYOND = 10


def tail(samples):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``.  Of n sorted samples, the value with
    exactly ten samples after it is the (n - 10) / n quantile.  With ten
    samples or fewer no percentile qualifies; the maximum is returned
    with percentile 100 so the caller can say so.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n <= TAIL_MIN_BEYOND:
        return xs[-1], 100.0
    return xs[n - 1 - TAIL_MIN_BEYOND], 100.0 * (n - TAIL_MIN_BEYOND) / n


def quartiles(values):
    """First quartile, median and third quartile, as ``statistics.quantiles`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")
