"""Sampling policy of the e2e benchmark: percentiles, medians, spreads.

One place decides how a list of samples becomes a reported number, so
every metric of every workload is reduced the same way:

* a timing is a median plus the highest percentile that still has at
  least :data:`MIN_BEYOND` samples beyond it (the choosing-metrics rule;
  a p95 of 60 samples is three observations, not a percentile);
* a metric is the median over a phase's seeded segments of the
  per-segment statistic, and the quartile distance over that median
  (``spread``) is recorded beside it.
"""

from __future__ import annotations

import statistics
from typing import Sequence

import numpy as np

# A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]; never NaN."""
    if not len(values):
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def supported_percentile(n: int, wanted: float) -> float:
    """The highest percentile <= ``wanted`` with MIN_BEYOND samples beyond.

    ``n * (100 - q) / 100 >= MIN_BEYOND`` solved for ``q``; never below
    the median, which is what an under-sampled window falls back to.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    highest = 100.0 * (1.0 - MIN_BEYOND / n)
    return max(50.0, min(float(wanted), highest))


def tail(values: Sequence[float], wanted: float = 95.0) -> tuple[float, float]:
    """``(value, q_used)``: the ``wanted`` percentile, or the highest the
    sample supports when it has fewer than MIN_BEYOND samples beyond."""
    q = supported_percentile(len(values), wanted)
    return percentile(values, q), q


def spread(values: Sequence[float]) -> float:
    """Quartile distance over the median, as the acceptance rule takes it
    (``statistics.quantiles(values, n=4)``); 0 for fewer than two values
    or a zero median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return abs(q3 - q1) / abs(middle) if middle else 0.0


def over_segments(values: Sequence[float]) -> dict:
    """Reduce per-segment statistics to ``{value, spread, segments}``."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no segments to reduce")
    return {"value": statistics.median(values), "spread": spread(values),
            "segments": values}
