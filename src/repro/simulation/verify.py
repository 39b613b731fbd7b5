"""Simulation-in-the-loop verification of optimizer output.

The paper's execution-time objective (Section III-C) is an *analytical*
schedule; the event-driven :class:`~repro.simulation.onoc_sim.OnocSimulator`
replays the same application with explicit segment/wavelength occupancy and
runtime conflict detection.  This module turns the simulator into a
verification stage any optimizer backend can be checked against: every
solution a search reports is replayed, and the replay must

* finish with **zero wavelength conflicts** (the allocation really is
  conflict-free under the dynamic occupancy rules), and
* reach a **makespan that agrees** with the analytical
  ``execution_time_kcycles`` within a configurable relative tolerance.

:class:`SimulationVerifier` performs the replays, one after another in the
calling process, :class:`SolutionVerification` records one solution's outcome
and :class:`VerificationReport` aggregates a whole front.
The :mod:`repro.scenarios` layer runs a verifier automatically when a
scenario's ``verification`` block enables it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..allocation.objectives import AllocationEvaluator, AllocationSolution
from ..application.mapping import Mapping
from ..application.task_graph import TaskGraph
from ..config import OnocConfiguration
from ..errors import SimulationError
from ..topology.base import OnocTopology
from .onoc_sim import OnocSimulator

__all__ = [
    "DEFAULT_TOLERANCE",
    "SolutionVerification",
    "VerificationReport",
    "SimulationVerifier",
]

#: Default relative tolerance on the simulated-vs-analytical makespan.  A valid
#: allocation replays *exactly* (both sides evaluate the same schedule), so the
#: tolerance only absorbs floating-point noise of the two implementations.
DEFAULT_TOLERANCE = 1.0e-9


@dataclass(frozen=True)
class SolutionVerification:
    """The replay outcome of one solution.

    ``analytical_kcycles`` is the execution time the static schedule claimed,
    ``simulated_kcycles`` what the discrete-event replay observed.  A solution
    *passes* when the replay is conflict-free and both makespans agree within
    ``tolerance`` (relative).
    """

    allocation: str
    analytical_kcycles: float
    simulated_kcycles: float
    conflict_count: int
    average_core_utilisation: float
    average_wavelength_utilisation: float
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def divergence_kcycles(self) -> float:
        """Absolute simulated-vs-analytical makespan difference."""
        return abs(self.simulated_kcycles - self.analytical_kcycles)

    @property
    def relative_divergence(self) -> float:
        """Makespan difference relative to the analytical value."""
        if not math.isfinite(self.analytical_kcycles):
            return float("inf")
        scale = max(abs(self.analytical_kcycles), 1.0e-12)
        return self.divergence_kcycles / scale

    @property
    def agrees(self) -> bool:
        """True when the two makespans agree within the tolerance."""
        return self.relative_divergence <= self.tolerance

    @property
    def is_conflict_free(self) -> bool:
        """True when the replay observed no wavelength conflict."""
        return self.conflict_count == 0

    @property
    def passed(self) -> bool:
        """True when the solution is conflict-free *and* the makespans agree."""
        return self.is_conflict_free and self.agrees

    def row(self) -> Dict[str, object]:
        """One flat row for tables and CSV export."""
        return {
            "allocation": self.allocation,
            "analytical_kcycles": self.analytical_kcycles,
            "simulated_kcycles": self.simulated_kcycles,
            "divergence_kcycles": self.divergence_kcycles,
            "sim_conflicts": self.conflict_count,
            "sim_core_utilisation": self.average_core_utilisation,
            "sim_wavelength_utilisation": self.average_wavelength_utilisation,
            "passed": self.passed,
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible dictionary; inverse of :meth:`from_dict`."""
        return {
            "allocation": self.allocation,
            "analytical_kcycles": self.analytical_kcycles,
            "simulated_kcycles": self.simulated_kcycles,
            "conflict_count": self.conflict_count,
            "average_core_utilisation": self.average_core_utilisation,
            "average_wavelength_utilisation": self.average_wavelength_utilisation,
            "tolerance": self.tolerance,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SolutionVerification":
        """Rebuild a verification from :meth:`to_dict` output."""
        return cls(
            allocation=str(payload["allocation"]),
            analytical_kcycles=float(payload["analytical_kcycles"]),
            simulated_kcycles=float(payload["simulated_kcycles"]),
            conflict_count=int(payload["conflict_count"]),
            average_core_utilisation=float(payload["average_core_utilisation"]),
            average_wavelength_utilisation=float(
                payload["average_wavelength_utilisation"]
            ),
            tolerance=float(payload.get("tolerance", DEFAULT_TOLERANCE)),
        )


@dataclass(frozen=True)
class VerificationReport:
    """Aggregate replay outcome of a whole solution set (e.g. a Pareto front)."""

    verifications: Tuple[SolutionVerification, ...]

    def __len__(self) -> int:
        return len(self.verifications)

    def __iter__(self):
        return iter(self.verifications)

    @property
    def solutions_checked(self) -> int:
        """Number of solutions replayed."""
        return len(self.verifications)

    @property
    def conflict_count(self) -> int:
        """Total wavelength conflicts observed across every replay."""
        return sum(item.conflict_count for item in self.verifications)

    @property
    def divergences(self) -> Tuple[SolutionVerification, ...]:
        """The solutions whose replay disagreed with the analytical schedule."""
        return tuple(item for item in self.verifications if not item.passed)

    @property
    def divergence_count(self) -> int:
        """Number of solutions that failed the replay check."""
        return len(self.divergences)

    @property
    def max_divergence_kcycles(self) -> float:
        """Largest absolute makespan difference observed (0 for an empty set)."""
        if not self.verifications:
            return 0.0
        return max(item.divergence_kcycles for item in self.verifications)

    @property
    def all_passed(self) -> bool:
        """True when every solution replayed conflict-free with agreeing makespan."""
        return not self.divergences

    def rows(self) -> List[Dict[str, object]]:
        """Per-solution rows (tables / CSV export)."""
        return [item.row() for item in self.verifications]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible dictionary; inverse of :meth:`from_dict`."""
        return {"verifications": [item.to_dict() for item in self.verifications]}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "VerificationReport":
        """Rebuild a report from :meth:`to_dict` output."""
        return cls(
            verifications=tuple(
                SolutionVerification.from_dict(entry)
                for entry in payload.get("verifications", [])
            )
        )


class SimulationVerifier:
    """Replays solutions through :class:`OnocSimulator` and checks the outcome.

    Parameters
    ----------
    architecture, task_graph, mapping, configuration:
        The instance the solutions were optimised for — the same quadruple the
        :class:`~repro.allocation.objectives.AllocationEvaluator` was built
        from (:meth:`from_evaluator` wires this up directly).
    tolerance:
        Relative tolerance on the simulated-vs-analytical makespan.
    """

    def __init__(
        self,
        architecture: OnocTopology,
        task_graph: TaskGraph,
        mapping: Mapping,
        configuration: Optional[OnocConfiguration] = None,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> None:
        if tolerance < 0.0:
            raise SimulationError("the verification tolerance must be non-negative")
        self._tolerance = float(tolerance)
        self._simulator = OnocSimulator(
            architecture, task_graph, mapping, configuration=configuration
        )

    @classmethod
    def from_evaluator(
        cls,
        evaluator: AllocationEvaluator,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> "SimulationVerifier":
        """A verifier for the exact instance an evaluator scores."""
        return cls(
            architecture=evaluator.architecture,
            task_graph=evaluator.task_graph,
            mapping=evaluator.mapping,
            configuration=evaluator.configuration,
            tolerance=tolerance,
        )

    @property
    def tolerance(self) -> float:
        """The relative makespan tolerance in force."""
        return self._tolerance

    @property
    def simulator(self) -> OnocSimulator:
        """The underlying discrete-event simulator."""
        return self._simulator

    # ------------------------------------------------------------------ replay
    def verify_allocation(
        self,
        allocation: Sequence[Sequence[int]],
        analytical_kcycles: float,
        label: Optional[str] = None,
    ) -> SolutionVerification:
        """Replay one explicit per-communication channel assignment.

        ``analytical_kcycles`` is the execution time the static model claims
        for this allocation; the replayed makespan is compared against it.
        """
        report = self._simulator.run(allocation)
        if label is None:
            label = "[" + ", ".join(str(len(set(channels))) for channels in allocation) + "]"
        return SolutionVerification(
            allocation=label,
            analytical_kcycles=float(analytical_kcycles),
            simulated_kcycles=report.makespan_kilocycles,
            conflict_count=len(report.conflicts),
            average_core_utilisation=report.statistics.average_core_utilisation,
            average_wavelength_utilisation=report.statistics.average_wavelength_utilisation,
            tolerance=self._tolerance,
        )

    def verify_solution(self, solution: AllocationSolution) -> SolutionVerification:
        """Replay one evaluated solution against its analytical execution time."""
        return self.verify_allocation(
            solution.chromosome.allocation(),
            solution.objectives.execution_time_kcycles,
            label=solution.allocation_summary,
        )

    def verify_solutions(
        self, solutions: Sequence[AllocationSolution]
    ) -> VerificationReport:
        """Replay a whole solution set (e.g. a Pareto front), in order.

        Every replay runs in the calling process: one costs about a quarter
        of a millisecond, less than starting a worker process and pickling
        the verifier to it.
        """
        return VerificationReport(
            verifications=tuple(self.verify_solution(solution) for solution in solutions)
        )
