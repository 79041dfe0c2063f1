"""Aggregation helpers for the evaluation (geometric means)."""

from __future__ import annotations

import math
from typing import Iterable


def gmean(values: Iterable[float]) -> float:
    """Geometric mean; values are clamped to a tiny positive floor so a
    single zero (e.g. an IPC of 0 from a degenerate run) cannot poison
    the aggregate with a domain error."""
    values = [max(float(v), 1e-12) for v in values]
    if not values:
        raise ValueError("gmean of empty sequence")
    return math.exp(sum(math.log(v) for v in values) / len(values))

