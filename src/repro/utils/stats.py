"""Descriptive statistics used by the analysis and benchmark harness.

The paper reports speedups as cumulative distribution functions (Figures 5
and 6) and as min / median / max summaries (Table 4).  These helpers produce
exactly those artefacts from a list of per-edge measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Sequence, Tuple

import numpy as np


def top_k_ranked(
    values: np.ndarray, k: int, label: Callable[[int], Any]
) -> List[Tuple[Any, float]]:
    """The ``k`` best-ranked ``(label(i), values[i])`` pairs.

    Ranking order is descending score with ties broken by ``repr`` of the
    label, so rankings stay deterministic for any hashable label type.
    ``np.argpartition`` finds the k-th largest score in O(n); every entry
    at or above it is a candidate, so all entries tied with the k-th score
    compete in the exact sort, and only candidates are ever labelled.
    """
    n = values.shape[0]
    if k < n:
        kth = values[np.argpartition(values, n - k)[n - k]]
        candidates = np.flatnonzero(values >= kth).tolist()
    else:
        candidates = range(n)
    ranked = [(label(i), float(values[i])) for i in candidates]
    ranked.sort(key=lambda item: (-item[1], repr(item[0])))
    return ranked[:k]


def median(values: Sequence[float]) -> float:
    """Return the median of ``values`` (average of middle two for even n)."""
    if not values:
        raise ValueError("median() of an empty sequence")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2 == 1:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Return the ``q``-th percentile (0 <= q <= 100) by linear interpolation."""
    if not values:
        raise ValueError("percentile() of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[int(rank)])
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def geometric_mean(values: Sequence[float]) -> float:
    """Return the geometric mean of strictly positive ``values``."""
    if not values:
        raise ValueError("geometric_mean() of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean() requires strictly positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def empirical_cdf(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Return the empirical CDF of ``values`` as ``(value, F(value))`` pairs.

    The result is sorted by value; the fraction is the proportion of samples
    less than or equal to the value, which matches the CDF plots in the
    paper's Figures 5 and 6.
    """
    if not values:
        return []
    ordered = sorted(values)
    n = len(ordered)
    return [(float(v), (i + 1) / n) for i, v in enumerate(ordered)]


@dataclass(frozen=True)
class SummaryStats:
    """Min / median / mean / max / count summary of a sample."""

    count: int
    minimum: float
    median: float
    mean: float
    maximum: float

    def as_row(self) -> Tuple[float, float, float]:
        """Return the ``(min, median, max)`` triple used in Table 4."""
        return (self.minimum, self.median, self.maximum)


def summarize(values: Iterable[float]) -> SummaryStats:
    """Compute a :class:`SummaryStats` for ``values``."""
    data = [float(v) for v in values]
    if not data:
        raise ValueError("summarize() of an empty sequence")
    return SummaryStats(
        count=len(data),
        minimum=min(data),
        median=median(data),
        mean=sum(data) / len(data),
        maximum=max(data),
    )
