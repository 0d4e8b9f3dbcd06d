"""Latency summaries for the benchmark."""

from __future__ import annotations

import math
from typing import Sequence

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Too few samples to report the requested percentile."""


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q < 100).

    Refuses when fewer than ``MIN_BEYOND`` samples lie beyond the rank, so a
    reported p90 always rests on at least ten slower samples.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q / 100 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it; need {MIN_BEYOND}"
        )
    return sorted(samples)[rank - 1]

