"""Benchmark harness: one :class:`Scenario` in, one measured result out.

The paper's tables, figures and ablations are experiments over it, listed
once in :mod:`repro.bench.experiments` with their paper numbers and shape
claims, and run by ``python -m repro.bench <experiment>`` (``--list``
names them).  That registry is not imported here: importing the harness
stays as cheap as it was.
"""

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
