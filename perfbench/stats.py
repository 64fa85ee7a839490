"""Summary statistics shared by the benchmark's workloads and its tests.

Every timing is reported as a median plus, when the samples allow it,
the highest tail percentile that has at least :data:`MIN_BEYOND`
samples beyond it.  The sample count always travels with the numbers,
so a reader can tell a p90 of 12 samples (not reported) from one of 400.
"""

from __future__ import annotations

import math
from statistics import median  # noqa: F401 - re-exported for the workloads
from typing import List, Optional, Sequence, Tuple

#: A tail percentile is reported only when at least this many samples lie
#: strictly beyond it; fewer and the value is one or two outliers.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def has_percentile(values: Sequence[float], q: float) -> bool:
    """The reporting rule: at least :data:`MIN_BEYOND` samples beyond."""
    return bool(values) and beyond(values, q) >= MIN_BEYOND


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(q, value)`` for the highest reportable tail percentile, or None."""
    for q in TAIL_PERCENTILES:
        if has_percentile(values, q):
            return q, percentile(values, q)
    return None


def fail_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("nothing attempted")
    return failed / attempted


def ms(values_s: Sequence[float]) -> List[float]:
    return [v * 1e3 for v in values_s]
