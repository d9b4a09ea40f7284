"""Small numeric helpers used by the experiment harness."""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean (0.0 for an empty input)."""
    items = list(values)
    if not items:
        return 0.0
    return sum(items) / len(items)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; inputs must be positive."""
    items = list(values)
    if not items:
        return 0.0
    if any(v <= 0 for v in items):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in items) / len(items))


def harmonic_mean_speedup(speedups: Sequence[float]) -> float:
    """The paper's "H_mean" bar: harmonic mean over per-benchmark speedups.

    Speedups are expressed as fractions over baseline (0.19 = 19% faster);
    the harmonic mean is computed over the speedup *factors* (1 + s), as is
    conventional for rate-like metrics, and returned as a fraction again.
    """
    if not speedups:
        return 0.0
    factors = [1.0 + s for s in speedups]
    if any(f <= 0 for f in factors):
        raise ValueError("speedup factors must be positive")
    hmean = len(factors) / sum(1.0 / f for f in factors)
    return hmean - 1.0
