"""Empirical scaling checks for Table 1's O(.) claims (E1, E2, E4).

:func:`loglog_slope` is the least-squares slope in log-log space: a
measured quantity growing as ``Theta(x^a)`` yields slope ``~ a``.  The
concrete ceilings the benchmarks assert next to it are each
algorithm's declared :class:`repro.registry.Bounds`.

Pure Python (math only) so the core library stays dependency-free.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import ConfigurationError

__all__ = ["loglog_slope"]


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``log y`` against ``log x``.

    Requires at least two strictly positive points.  For measurements
    ``y = c * x^a`` (exactly), returns ``a``.
    """
    if len(xs) != len(ys):
        raise ConfigurationError("xs and ys must have equal length")
    points = [
        (math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0
    ]
    if len(points) < 2:
        raise ConfigurationError("need at least two positive points for a slope")
    mean_x = sum(p[0] for p in points) / len(points)
    mean_y = sum(p[1] for p in points) / len(points)
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in points)
    denominator = sum((x - mean_x) ** 2 for x, _ in points)
    if denominator == 0:
        raise ConfigurationError("all x values identical; slope undefined")
    return numerator / denominator
