"""Measurement instruments: completion meters, latency recorders and the
rate functions over their stamps.

The paper's methodology measures throughput at the replicas in fixed
intervals, discards the 20% of intervals with the greatest deviation and
averages the rest (Section VI-A).  :class:`ThroughputMeter` +
:func:`trimmed_mean` implement exactly that, so benchmark code reads like the
paper's method section.
"""

from __future__ import annotations

from repro.sim.engine import Simulator

__all__ = [
    "ThroughputMeter",
    "LatencyRecorder",
    "trimmed_mean",
    "merge_stamps",
    "op_window_rates",
    "bucket_timeline",
]


class ThroughputMeter:
    """Counts completions and keeps their time stamps.

    ``record(k)`` counts ``k`` completions at the current simulated time;
    :func:`merge_stamps` joins several meters' stamps into one series for
    :func:`op_window_rates` and :func:`bucket_timeline`.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._stamps: list[tuple[float, int]] = []
        self.total = 0

    def record(self, count: int = 1) -> None:
        self.total += count
        self._stamps.append((self.sim.now, count))

    def stamps(self) -> list[tuple[float, int]]:
        """The raw ``(time, count)`` completion stamps, in recording order."""
        return list(self._stamps)


class LatencyRecorder:
    """Records request latencies and summarizes them."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def record(self, latency: float, count: int = 1) -> None:
        if count == 1:
            self.samples.append(latency)
        else:
            self.samples.extend([latency] * count)

    @property
    def count(self) -> int:
        return len(self.samples)

    def mean(self) -> float:
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    def percentile(self, p: float) -> float:
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        index = min(len(ordered) - 1, int(p / 100.0 * len(ordered)))
        return ordered[index]


def merge_stamps(meters: list[ThroughputMeter], start: float = 0.0,
                 end: float | None = None) -> list[tuple[float, int]]:
    """Merge the stamps of several meters into one time-ordered series,
    optionally restricted to ``[start, end)``."""
    merged = sorted((when, count)
                    for meter in meters for when, count in meter.stamps())
    if start > 0.0 or end is not None:
        merged = [(when, count) for when, count in merged
                  if when >= start and (end is None or when < end)]
    return merged


def op_window_rates(stamps: list[tuple[float, int]],
                    op_window: int) -> list[float]:
    """Throughput per *operation-count* window over a merged stamp series —
    the paper's measurement method (Section VI-A), shared by the harness
    and the timeline benchmarks."""
    rates: list[float] = []
    window_start: float | None = None
    accumulated = 0
    for when, count in stamps:
        if window_start is None:
            window_start = when
            continue
        accumulated += count
        if accumulated >= op_window:
            elapsed = when - window_start
            if elapsed > 0:
                rates.append(accumulated / elapsed)
            window_start = when
            accumulated = 0
    return rates


def bucket_timeline(stamps: list[tuple[float, int]], horizon: float,
                    width: float) -> list[tuple[float, float]]:
    """(window midpoint, tx/s) pairs over fixed time buckets — the series
    plotted in Figure 7."""
    if horizon <= 0 or width <= 0:
        return []
    buckets = [0.0] * max(1, int(horizon / width))
    for when, count in stamps:
        index = min(len(buckets) - 1, int(when / width))
        buckets[index] += count / width
    return [(round((i + 0.5) * width, 6), rate)
            for i, rate in enumerate(buckets)]


def trimmed_mean(values: list[float], discard_fraction: float = 0.2) -> float:
    """Average after discarding the ``discard_fraction`` of values farthest
    from the median — the paper's '20% of the values with greater variance
    were discarded' rule."""
    if not values:
        return 0.0
    if len(values) <= 2:
        return sum(values) / len(values)
    ordered = sorted(values)
    median = ordered[len(ordered) // 2]
    keep = sorted(values, key=lambda v: abs(v - median))
    cut = max(1, int(round(len(values) * (1.0 - discard_fraction))))
    kept = keep[:cut]
    return sum(kept) / len(kept)
