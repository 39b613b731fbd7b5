"""The backend-agnostic result of one wavelength-allocation exploration.

Every optimizer backend (:mod:`repro.scenarios.backends`) returns an
:class:`ExplorationResult`; :func:`~repro.scenarios.study.execute_scenario`
wraps it in a :class:`~repro.scenarios.study.ScenarioOutcome`, and the paper
layer reads its tables and figure series straight off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import AllocationError, ExperimentError
from .nsga2 import Nsga2Result
from .objectives import AllocationSolution
from .pareto import ParetoFront

__all__ = ["ExplorationResult"]

#: Report axis -> (objective key the projected front is built on, value of one solution).
_AXES: Dict[str, Tuple[str, Callable[[AllocationSolution], float]]] = {
    "time": ("time", lambda solution: solution.objectives.execution_time_kcycles),
    "energy": ("energy", lambda solution: solution.objectives.bit_energy_fj),
    "ber": ("ber", lambda solution: solution.objectives.mean_bit_error_rate),
    "log_ber": ("ber", lambda solution: solution.objectives.log10_ber),
}


@dataclass
class ExplorationResult:
    """Outcome of one wavelength-allocation exploration.

    The result is backend-agnostic: every optimizer backend (NSGA-II,
    exhaustive search, the classical heuristics — see
    :mod:`repro.scenarios.backends`) fills ``front``, ``solutions`` and
    ``valid_count``, the heuristics and the exhaustive search through
    :meth:`from_solutions`.  An NSGA-II run also keeps its raw
    :class:`~repro.allocation.nsga2.Nsga2Result` in ``nsga2`` for the
    generation history and the phase timings.
    """

    wavelength_count: int
    objective_keys: Tuple[str, ...]
    front: ParetoFront[AllocationSolution]
    #: Gene tuple -> solution of every distinct valid chromosome kept; an
    #: NSGA-II run's mapping materialises each value when it is first read.
    solutions: Mapping[Tuple[int, ...], AllocationSolution]
    #: Distinct valid chromosomes encountered (may exceed ``len(solutions)``).
    valid_count: int
    backend: str = "nsga2"
    #: Distinct chromosomes actually evaluated (memo misses for the GA, whole
    #: space for the exhaustive search; ``None`` when the backend keeps no count).
    evaluations: Optional[int] = None
    #: Evaluations skipped thanks to the duplicate-aware memo (GA runs).
    memo_hits: Optional[int] = None
    nsga2: Optional[Nsga2Result] = None

    @property
    def evaluation_count(self) -> int:
        """Evaluations performed during the run (0 when the backend kept no count)."""
        return self.evaluations or 0

    @property
    def memo_hit_count(self) -> int:
        """Memo hits recorded during the run (0 when the backend kept no count)."""
        return self.memo_hits or 0

    @property
    def evaluation_seconds(self) -> float:
        """Time the GA spent evaluating objectives (0.0 for other backends)."""
        return 0.0 if self.nsga2 is None else self.nsga2.evaluation_seconds

    @property
    def selection_seconds(self) -> float:
        """Time the GA spent in selection: sort, crowding, front maintenance."""
        return 0.0 if self.nsga2 is None else self.nsga2.selection_seconds

    @property
    def operator_seconds(self) -> float:
        """Time the GA spent in crossover/mutation/tournament operators."""
        return 0.0 if self.nsga2 is None else self.nsga2.operator_seconds

    @classmethod
    def from_solutions(
        cls,
        wavelength_count: int,
        objective_keys: Sequence[str],
        solutions: Sequence[AllocationSolution],
        valid_count: Optional[int] = None,
        backend: str = "custom",
        evaluations: Optional[int] = None,
    ) -> "ExplorationResult":
        """Build a result from an explicit pool of evaluated solutions.

        Invalid solutions are kept out of the Pareto front and the unique-valid
        books, mirroring what the NSGA-II engine does during a run.
        """
        keys = tuple(objective_keys)
        front: ParetoFront[AllocationSolution] = ParetoFront()
        unique: Dict[Tuple[int, ...], AllocationSolution] = {}
        for solution in solutions:
            if not solution.is_valid or solution.chromosome.genes in unique:
                continue
            unique[solution.chromosome.genes] = solution
            front.add(solution, solution.objective_tuple(keys))
        return cls(
            wavelength_count=wavelength_count,
            objective_keys=keys,
            front=front,
            solutions=unique,
            valid_count=len(unique) if valid_count is None else valid_count,
            backend=backend,
            evaluations=evaluations,
        )

    @property
    def pareto_front(self) -> ParetoFront[AllocationSolution]:
        """The Pareto front over every valid solution encountered."""
        return self.front

    @property
    def pareto_solutions(self) -> List[AllocationSolution]:
        """Non-dominated solutions sorted by the first objective."""
        return [item for item, _ in self.front.sorted_by(0)]

    @property
    def valid_solution_count(self) -> int:
        """Number of distinct valid chromosomes generated (Table II column)."""
        return self.valid_count

    @property
    def pareto_size(self) -> int:
        """Number of Pareto-front solutions (Table II column)."""
        return len(self.front)

    @property
    def valid_solutions(self) -> List[AllocationSolution]:
        """Every distinct valid solution kept by the run.

        An NSGA-II run materialises the rows that are neither on its front
        nor in its final population here, on the first read (then cached).
        """
        return list(self.solutions.values())

    def best_objective_values(self) -> Tuple[float, float, float]:
        """(min time kcc, min bit energy fJ, min log10 BER) over the Pareto front.

        All three are ``inf`` when the front is empty — the sentinel every
        reporting layer shares.
        """
        solutions = self.pareto_solutions
        if not solutions:
            infinity = float("inf")
            return infinity, infinity, infinity
        return (
            min(s.objectives.execution_time_kcycles for s in solutions),
            min(float(s.objectives.bit_energy_fj) for s in solutions),
            min(s.objectives.log10_ber for s in solutions),
        )

    def front_for(self, objective_keys: Sequence[str]) -> ParetoFront[AllocationSolution]:
        """Pareto front over every valid solution for a chosen objective subset.

        The paper reads its results through two-objective projections — Table II
        and Fig. 6a use (time, energy), Fig. 6b and Fig. 7 use (time, BER) —
        even though the exploration itself can optimise all three objectives at
        once.  This helper recomputes the non-dominated set of the requested
        projection from the run-wide pool of valid solutions (so a projection
        other than the run's own keys reads, and materialises,
        :attr:`valid_solutions`).
        """
        if tuple(objective_keys) == self.objective_keys:
            return self.pareto_front
        front: ParetoFront[AllocationSolution] = ParetoFront()
        for solution in self.valid_solutions:
            front.add(solution, solution.objective_tuple(objective_keys))
        return front

    def front_series(
        self, x_axis: str = "time", y_axis: str = "energy"
    ) -> List[Tuple[float, float]]:
        """The two-objective Pareto front as (x, y) pairs, sorted by x.

        ``x_axis`` / ``y_axis`` accept ``"time"``, ``"energy"``, ``"ber"`` and
        ``"log_ber"`` — Fig. 6a is (time, energy), Fig. 6b is (time, log_ber).
        The front is recomputed over every valid solution of the run (see
        :meth:`front_for`), so the series is a clean non-dominated staircase in
        the requested projection.
        """
        for axis in (x_axis, y_axis):
            if axis not in _AXES:
                raise ExperimentError(f"unknown axis {axis!r}; choose from {sorted(_AXES)}")
        (x_key, x_value), (y_key, y_value) = _AXES[x_axis], _AXES[y_axis]
        pairs = [
            (x_value(solution), y_value(solution))
            for solution, _ in self.front_for((x_key, y_key))
        ]
        return sorted(pairs, key=lambda pair: pair[0])

    def best_by(self, key: str) -> AllocationSolution:
        """Pareto solution minimising one objective."""
        if key not in self.objective_keys:
            raise AllocationError(
                f"objective {key!r} was not part of this exploration "
                f"(keys: {self.objective_keys})"
            )
        item, _ = self.front.best_by(self.objective_keys.index(key))
        return item

    def summary_rows(self) -> List[Dict[str, float]]:
        """Pareto front as flat dictionaries, ready for CSV/reporting."""
        rows = []
        for solution in self.pareto_solutions:
            rows.append(
                {
                    "wavelength_count": self.wavelength_count,
                    "allocation": solution.allocation_summary,
                    "execution_time_kcycles": solution.objectives.execution_time_kcycles,
                    "bit_energy_fj": solution.objectives.bit_energy_fj,
                    "mean_ber": solution.objectives.mean_bit_error_rate,
                    "log10_ber": solution.objectives.log10_ber,
                }
            )
        return rows
