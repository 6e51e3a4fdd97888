"""The benchmark's own arithmetic: percentiles and span self time."""

from __future__ import annotations

import numpy as np

#: A tail percentile is reported only over at least this many samples.
MIN_TAIL_SAMPLES = 100


class TooFewSamples(ValueError):
    """A tail was asked of fewer samples than :data:`MIN_TAIL_SAMPLES`."""


def percentile(values, q: float) -> float:
    """The ``q``-quantile (0..1), as ``numpy.quantile`` interpolates it."""
    data = np.asarray(list(values), dtype=float)
    if not data.size:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    return float(np.quantile(data, q))


def median(values) -> float:
    return percentile(values, 0.5)


def tail(values, q: float, min_samples: int = MIN_TAIL_SAMPLES) -> float:
    """A tail percentile, refused below ``min_samples`` samples."""
    values = list(values)
    if len(values) < min_samples:
        raise TooFewSamples(
            f"a {q:.0%} tail needs >= {min_samples} samples, got {len(values)}")
    return percentile(values, q)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    end = lo
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time (ms) of every span: its duration minus the part of its
    interval that its children cover.  Children that overlap each other
    (shard work on parallel threads) count once; a child reaching past
    its parent counts only inside the parent."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] >= 0 and span["parent"] != span["id"]:
            children.setdefault(span["parent"], []).append(
                (span["start_ms"], span["start_ms"] + span["duration_ms"]))
    result = {}
    for span in spans:
        lo = span["start_ms"]
        hi = lo + span["duration_ms"]
        result[span["id"]] = span["duration_ms"] - covered(
            children.get(span["id"], ()), lo, hi)
    return result
