"""Benchmark harness: experiment runners and result formatting."""

from repro.bench.harness import (
    DEFAULT_WARMUP,
    ExperimentResult,
    RunHandle,
    Scenario,
    run,
)

__all__ = [
    "DEFAULT_WARMUP",
    "ExperimentResult",
    "RunHandle",
    "Scenario",
    "run",
]
