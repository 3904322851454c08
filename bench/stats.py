"""Sample statistics for the benchmark: one percentile rule, one summary.

A timing is reported as its median plus the *highest* percentile of a fixed
ladder that still has at least ten samples beyond it — with fewer samples a
tail percentile is one or two outliers, not a measurement.  Every summary
carries its sample count and quartiles so a reader can judge it.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

__all__ = ["TAIL_LADDER", "MIN_BEYOND", "percentile", "supported_tail",
           "summarize", "spread"]

#: percentiles a tail may be reported at, lowest first
TAIL_LADDER = (90.0, 99.0, 99.9)
#: samples that must lie beyond a percentile for it to be reported
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo))


def supported_tail(n: int) -> Optional[float]:
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it.

    ``None`` when even the lowest rung is unsupported (fewer than 100
    samples for p90): only the median is reported then.
    """
    best = None
    for q in TAIL_LADDER:
        # rounded: 10000 * 0.1 / 100 must count as ten, not 9.999...
        if round(n * (100.0 - q) / 100.0, 9) >= MIN_BEYOND:
            best = q
    return best


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, range, count and the supported tail percentile."""
    values: List[float] = [float(v) for v in samples]
    if not values:
        return {"n": 0}
    out: Dict[str, float] = {
        "n": len(values),
        "p50": percentile(values, 50.0),
        "q1": percentile(values, 25.0),
        "q3": percentile(values, 75.0),
        "min": min(values),
        "max": max(values),
        "mean": statistics.fmean(values),
    }
    tail = supported_tail(len(values))
    if tail is not None:
        out["tail_q"] = tail
        out["tail"] = percentile(values, tail)
    return out


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median, as the acceptance rule takes it
    (``statistics.quantiles(values, n=4)``); 0.0 for a zero median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0
