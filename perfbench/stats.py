"""Metric arithmetic, kept free of simulator imports so it can be tested alone."""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100) of ``values`` by linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be within [0, 100], got {p!r}")
    ordered = sorted(values)
    rank = (p / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def samples_beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie strictly above the ``p``-th percentile rank."""
    return count - 1 - math.floor((p / 100.0) * (count - 1)) if count else 0


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of an empty sample")
    return sum(values) / len(values)


def longest_gap(times: Iterable[float], start: float, end: float) -> float:
    """Longest stretch of ``[start, end]`` with no event in ``times``.

    The window edges count as boundaries, so a window with no events at
    all is one gap of ``end - start``.  Events outside the window are
    ignored.
    """
    if end < start:
        raise ValueError("window ends before it starts")
    points = sorted(t for t in times if start <= t <= end)
    gap = 0.0
    previous = start
    for point in points + [end]:
        gap = max(gap, point - previous)
        previous = point
    return gap


def failed_frac(retries: int, issued: int) -> float:
    """Client retries (timeouts plus redirects) per request issued."""
    if issued <= 0:
        raise ValueError("no requests issued")
    return retries / issued


def self_times(spans: Sequence[Tuple[str, float, float, int]]) -> List[float]:
    """Self time of each span: its duration minus the time its children cover.

    ``spans`` holds ``(name, start, end, parent_index)`` records with
    ``parent_index == -1`` for a root.  Children of one parent never
    overlap (one thread), so their durations simply add up.
    """
    result = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            result[parent] -= end - start
    return result
