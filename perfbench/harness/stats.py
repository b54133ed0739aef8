"""Order statistics with the benchmark's reporting rules.

A percentile is reported only when at least :data:`MIN_BEYOND` samples lie
beyond it; the median is always reported, with its sample count.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` sorted samples lie above the ``q`` quantile."""
    return count - math.ceil(q * count)


def percentile(values: Sequence[float], q: float) -> float | None:
    """The ``q`` quantile (0 < q < 1, linear interpolation), or ``None``.

    ``None`` means fewer than :data:`MIN_BEYOND` samples lie beyond the
    quantile, so the value would rest on too few samples to report.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} outside (0, 1)")
    if samples_beyond(len(values), q) < MIN_BEYOND:
        return None
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (``statistics.quantiles``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
