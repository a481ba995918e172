"""Discrete-event simulation substrate (engine, resources, measurement)."""

from repro.sim.engine import Event, Simulator
from repro.sim.resource import Resource
from repro.sim.trace import LatencyRecorder, ThroughputMeter, trimmed_mean

__all__ = [
    "Event",
    "Simulator",
    "Resource",
    "LatencyRecorder",
    "ThroughputMeter",
    "trimmed_mean",
]
