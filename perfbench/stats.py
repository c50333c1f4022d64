"""Sample summaries: quartiles, percentiles, and which percentile a
sample can support.

Quartiles follow ``statistics.quantiles(values, n=4)`` — the same rule
the benchmark driver applies to the spread of a metric across runs — so
a spread printed here means what the driver's spread means.
"""

from __future__ import annotations

import statistics

#: percentile levels a timing may be reported at, lowest first
LEVELS = (50.0, 90.0, 99.0, 99.9)

#: a percentile is reported only with at least this many samples beyond it
SAMPLES_BEYOND = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    the closest ranks; the median for ``q=50``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile level must be within 0..100")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values) -> tuple:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def highest_supported_level(count: int):
    """The highest of :data:`LEVELS` that leaves at least
    :data:`SAMPLES_BEYOND` samples beyond it in a sample of ``count``,
    or ``None`` when not even the median has ten samples beyond it."""
    supported = None
    for level in LEVELS:
        # in tenths of a percent, so that 100 samples support p90 exactly
        if count * (1000 - round(level * 10)) >= SAMPLES_BEYOND * 1000:
            supported = level
    return supported


def summarize(values) -> dict:
    """Sample count, median and quartiles, plus the highest percentile
    the sample supports (``upper``/``upper_level``; absent for samples
    too small to support any)."""
    values = list(values)
    q1, median, q3 = quartiles(values)
    summary = {"n": len(values), "median": median, "q1": q1, "q3": q3}
    level = highest_supported_level(len(values))
    if level is not None and level > 50.0:
        summary["upper_level"] = level
        summary["upper"] = percentile(values, level)
    return summary
