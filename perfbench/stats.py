"""Small statistics helpers shared by the workloads and the tools."""

from __future__ import annotations

import math
import resource
import statistics
from typing import Dict, Iterable, List, Sequence


def median(values: Iterable[float]) -> float:
    data = list(values)
    return statistics.median(data) if data else float("nan")


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (``p`` in 0..100) of ``values``."""
    data = sorted(values)
    if not data:
        return float("nan")
    pos = (len(data) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def blocked_p99(groups: Sequence[Sequence[float]], min_samples: int = 1000) -> float:
    """p99 of a typical stretch of the run: consecutive groups (episodes,
    cycles or load windows) are merged into blocks of at least
    ``min_samples`` samples, so every block's p99 has ten or more samples
    beyond it, and the median of the blocks' p99s is returned.  A few
    clumped stalls move one block, not the result."""
    blocks: List[List[float]] = []
    current: List[float] = []
    for group in groups:
        current.extend(group)
        if len(current) >= min_samples:
            blocks.append(current)
            current = []
    if current:
        if blocks:
            blocks[-1].extend(current)
        else:
            blocks.append(current)
    return median(percentile(block, 99) for block in blocks)


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and (q3 - q1) / median, as the steadiness
    check computes them (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else float("inf"),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ms(seconds: List[float]) -> List[float]:
    return [s * 1000.0 for s in seconds]
