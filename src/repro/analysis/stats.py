"""Summary statistics for experiment reporting."""

from __future__ import annotations

import dataclasses
import math
import statistics
from typing import Iterable

from repro.errors import ReproError


@dataclasses.dataclass(frozen=True)
class Summary:
    """Mean with a normal-approximation confidence interval."""

    count: int
    mean: float
    median: float
    stdev: float
    ci_low: float
    ci_high: float


def summarize(samples: Iterable[float], confidence: float = 0.95) -> Summary:
    """Mean/median/stdev plus a CI (normal approximation; exact enough
    for the tens-of-samples experiment scale)."""
    data = list(samples)
    if not data:
        raise ReproError("cannot summarize an empty sample")
    mean = statistics.fmean(data)
    median = statistics.median(data)
    stdev = statistics.stdev(data) if len(data) > 1 else 0.0
    z = {0.90: 1.645, 0.95: 1.96, 0.99: 2.576}.get(round(confidence, 2), 1.96)
    half_width = z * stdev / math.sqrt(len(data)) if len(data) > 1 else 0.0
    return Summary(
        count=len(data), mean=mean, median=median, stdev=stdev,
        ci_low=mean - half_width, ci_high=mean + half_width,
    )


def speedup(baseline: float, treatment: float) -> float:
    """How many times faster ``treatment`` is than ``baseline``.

    > 1 means the treatment wins; < 1 means it loses.
    """
    if treatment <= 0:
        raise ReproError("treatment duration must be positive")
    return baseline / treatment


def fraction(numerator: int, denominator: int) -> float:
    """A safe ratio (0.0 when the denominator is zero)."""
    return numerator / denominator if denominator else 0.0
