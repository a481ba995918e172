"""Regression comparison of bench reports with tolerance bands.

``python -m repro.bench <experiment> --check-against baseline.json`` turns
the Table I / Table II benchmarks into a regression gate: the current run's
bench report is diffed against a stored baseline, run by run (matched on
label), and any throughput or latency drift beyond the tolerance band is a
:class:`Deviation` — the CLI exits non-zero if any exist.

The simulator is deterministic per seed, so a same-code self-diff matches
exactly; the bands exist to absorb *intentional* small model changes while
still catching regressions.  Option mismatches (different client count,
duration or seed) are reported as deviations too — comparing differently
configured runs is itself a regression-gate failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["DEFAULT_THROUGHPUT_TOLERANCE", "DEFAULT_LATENCY_TOLERANCE",
           "Deviation", "ComparisonResult", "compare_reports"]

#: Allowed relative drift before a metric counts as a regression.
DEFAULT_THROUGHPUT_TOLERANCE = 0.15
DEFAULT_LATENCY_TOLERANCE = 0.25


@dataclass
class Deviation:
    """One out-of-band difference between baseline and current report."""

    label: str
    metric: str
    baseline: Any
    current: Any
    tolerance: float | None = None

    def to_json(self) -> dict[str, Any]:
        return {"label": self.label, "metric": self.metric,
                "baseline": self.baseline, "current": self.current,
                "tolerance": self.tolerance}

    def __str__(self) -> str:
        if (self.tolerance is not None
                and isinstance(self.baseline, (int, float))
                and isinstance(self.current, (int, float)) and self.baseline):
            drift = (self.current - self.baseline) / self.baseline
            return (f"{self.label}: {self.metric} {self.current:.4g} vs "
                    f"baseline {self.baseline:.4g} "
                    f"({drift:+.1%}, tolerance ±{self.tolerance:.0%})")
        return (f"{self.label}: {self.metric} {self.current!r} vs "
                f"baseline {self.baseline!r}")


@dataclass
class ComparisonResult:
    """Outcome of one baseline/current report diff."""

    matched_runs: int = 0
    deviations: list[Deviation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.deviations

    def to_json(self) -> dict[str, Any]:
        return {"matched_runs": self.matched_runs, "ok": self.ok,
                "deviations": [d.to_json() for d in self.deviations]}

    def format(self) -> str:
        if self.ok:
            return (f"check-against: OK "
                    f"({self.matched_runs} run(s) within tolerance)")
        lines = [f"check-against: {len(self.deviations)} deviation(s) "
                 f"across {self.matched_runs} matched run(s)"]
        lines += [f"  - {d}" for d in self.deviations]
        return "\n".join(lines)


def _within(baseline: float, current: float, tolerance: float) -> bool:
    if baseline == 0:
        return current == 0
    return abs(current - baseline) <= tolerance * abs(baseline)


def compare_reports(
    baseline: dict[str, Any],
    current: dict[str, Any],
    throughput_tolerance: float = DEFAULT_THROUGHPUT_TOLERANCE,
    latency_tolerance: float = DEFAULT_LATENCY_TOLERANCE,
) -> ComparisonResult:
    """Diff two bench reports (schema ``repro.obs/bench-report/v1``)."""
    result = ComparisonResult()

    if baseline.get("experiment") != current.get("experiment"):
        result.deviations.append(Deviation(
            label="<report>", metric="experiment",
            baseline=baseline.get("experiment"),
            current=current.get("experiment")))
    base_options = baseline.get("options", {})
    cur_options = current.get("options", {})
    for key in sorted(set(base_options) | set(cur_options)):
        if base_options.get(key) != cur_options.get(key):
            result.deviations.append(Deviation(
                label="<report>", metric=f"options.{key}",
                baseline=base_options.get(key),
                current=cur_options.get(key)))

    base_runs = {run["label"]: run for run in baseline.get("runs", [])}
    cur_runs = {run["label"]: run for run in current.get("runs", [])}
    for label in sorted(set(base_runs) | set(cur_runs)):
        if label not in cur_runs:
            result.deviations.append(Deviation(
                label=label, metric="presence", baseline="present",
                current="missing"))
            continue
        if label not in base_runs:
            result.deviations.append(Deviation(
                label=label, metric="presence", baseline="missing",
                current="present"))
            continue
        result.matched_runs += 1
        base_summary = base_runs[label]["summary"]
        cur_summary = cur_runs[label]["summary"]
        checks = (
            ("throughput_tx_s", throughput_tolerance),
            ("latency_mean_s", latency_tolerance),
            ("latency_p95_s", latency_tolerance),
        )
        for metric, tolerance in checks:
            base_value = base_summary.get(metric)
            cur_value = cur_summary.get(metric)
            if base_value is None or cur_value is None:
                continue
            if not _within(base_value, cur_value, tolerance):
                result.deviations.append(Deviation(
                    label=label, metric=metric, baseline=base_value,
                    current=cur_value, tolerance=tolerance))
    return result
