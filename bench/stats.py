"""Summary statistics the benchmark reports.

A tail percentile is reported only when the sample supports it: at least
ten samples must lie beyond it, so p90 needs 100 samples and p99 needs
1000.  Medians use :func:`statistics.median`.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence

MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values`` (``50 < q < 100``).

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond the requested rank.
    """
    if not 50 < q < 100:
        raise ValueError(f"tail percentile must lie in (50, 100), got {q}")
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as :func:`statistics.quantiles` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return [v, v, v]
    return [float(q) for q in statistics.quantiles(values, n=4)]
