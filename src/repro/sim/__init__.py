"""Discrete-event simulation substrate: engine, RNG streams, and the grid
submission layer (replaces the paper's physical test bed)."""

from .engine import PeriodicTask, SimulationEngine, SimulationError
from .grid import GridIdentityMapper, GridSubmissionHost
from .random import RandomStreams

__all__ = [
    "PeriodicTask", "SimulationEngine", "SimulationError",
    "GridIdentityMapper", "GridSubmissionHost",
    "RandomStreams",
]
