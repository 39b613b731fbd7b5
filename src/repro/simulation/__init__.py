"""Discrete-event simulation of a mapped application on the ONoC.

The paper evaluates its models analytically; this subpackage replays an
allocation event by event so that the analytical schedule of Eqs. (10)-(12)
can be cross-checked.

* :mod:`~repro.simulation.engine`   — the discrete-event engine: one heap of
  ``(time, priority, sequence, action)`` tuples.
* :mod:`~repro.simulation.onoc_sim` — the ONoC-specific simulator: task
  execution, wavelength-parallel transfers, ring occupancy tracking, and the
  counters and utilisations of one run.
* :mod:`~repro.simulation.verify`   — replay-based verification of optimizer
  output (conflict-freeness + makespan agreement with the analytical model).
"""

from .engine import PRIORITY_ACQUIRE, PRIORITY_RELEASE, DiscreteEventEngine
from .onoc_sim import (
    ConflictRecord,
    OnocSimulator,
    SimulationReport,
    SimulationStatistics,
    TransferRecord,
)
from .verify import (
    DEFAULT_TOLERANCE,
    SimulationVerifier,
    SolutionVerification,
    VerificationReport,
)

__all__ = [
    "PRIORITY_RELEASE",
    "PRIORITY_ACQUIRE",
    "DiscreteEventEngine",
    "OnocSimulator",
    "SimulationReport",
    "TransferRecord",
    "ConflictRecord",
    "SimulationStatistics",
    "DEFAULT_TOLERANCE",
    "SimulationVerifier",
    "SolutionVerification",
    "VerificationReport",
]
