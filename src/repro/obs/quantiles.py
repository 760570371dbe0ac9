"""Exact percentiles by linear interpolation.

:func:`percentile` takes a linear-interpolation percentile over a
finite sample (the ``numpy.percentile(..., method="linear")``
definition), replacing the old round-to-nearest-rank p95 that
over-reported the tail on small samples.

This module is deliberately stdlib-only (no repro imports) so any
layer can depend on it without cycles.
"""

from __future__ import annotations

from typing import Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 <= q <= 1) with linear interpolation.

    Matches ``numpy.percentile(samples, 100*q, method="linear")``:
    the quantile of n points sits at rank ``q * (n - 1)`` and
    fractional ranks interpolate between the two bracketing order
    statistics.  Raises ``ValueError`` on an empty sample or a ``q``
    outside [0, 1].
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    data = sorted(samples)
    if not data:
        raise ValueError("cannot take a percentile of an empty sample")
    if len(data) == 1:
        return float(data[0])
    rank = q * (len(data) - 1)
    lo = int(rank)
    frac = rank - lo
    if frac == 0.0:
        return float(data[lo])
    return float(data[lo] + (data[lo + 1] - data[lo]) * frac)
