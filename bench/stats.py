"""Small statistics used by the benchmark (stdlib only).

* ``tail_percentile``: the highest percentile that has at least
  ``MIN_BEYOND`` samples beyond it; a tail is reported only then.
* ``self_times``: a span's duration minus the part of its interval that
  its child spans cover.
* ``quartile_spread``: (Q3 - Q1) / median, the run-to-run spread measure.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

MIN_BEYOND = 10
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)


def _rank(n: int, p: float) -> int:
    # rounding first keeps 99.9 % of 10000 at rank 9990, not 9991
    return max(math.ceil(round(p * n / 100.0, 6)), 1)


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[_rank(len(sorted_values), p) - 1]


def beyond(n: int, p: float) -> int:
    """Number of samples above the nearest-rank ``p`` percentile."""
    return n - _rank(n, p)


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(level, value) of the highest level in TAIL_LEVELS with at least
    MIN_BEYOND samples beyond it, or None when no level qualifies."""
    ordered = sorted(values)
    for level in TAIL_LEVELS:
        if beyond(len(ordered), level) >= MIN_BEYOND:
            return level, percentile(ordered, level)
    return None


def covered_length(intervals: list[tuple[float, float]], start: float,
                   end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans) -> dict[int, float]:
    """Self time per span id.

    ``spans`` holds (span_id, name, start, end, parent_id, ...) records;
    a parent_id of None marks a root span.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span_id, _, start, end, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - covered_length(children[span_id], start, end)
        for span_id, _, start, end, *_ in spans
    }


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
