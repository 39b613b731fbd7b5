"""NSGA-II wavelength-allocation engine (Section III-D of the paper).

The optimiser follows Deb's NSGA-II (the paper's reference [4]) with the
operators the paper describes:

* a fixed-size population of binary chromosomes, randomly initialised,
* binary-tournament selection on (non-domination rank, crowding distance),
* two-point crossover exchanging the gene segment ``[x, y]`` of two parents,
* bit-flip mutation,
* elitist environmental selection: parents and offspring are merged, sorted
  into non-dominated fronts, and the next generation is filled front by front
  (ties broken by crowding distance).

Invalid chromosomes receive infinite fitness, exactly as in the paper, so they
are dominated by every valid solution but still recombine — which keeps the
search alive in tightly constrained instances (few wavelengths).

The engine is *vectorized*: the population lives as one ``(population,
genome)`` uint8 matrix, the genetic operators act on whole matrices, and
objective evaluation runs through the
:class:`~repro.allocation.batch.BatchEvaluator` with a byte-fingerprint memo
that skips chromosomes already evaluated earlier in the run.  Setting
``engine="scalar"`` keeps the identical operators and random stream but routes
evaluation through the readable scalar
:class:`~repro.allocation.objectives.AllocationEvaluator` — the
test-suite uses this to pin down batch/scalar determinism.

The optimiser also keeps the run-wide books the paper reports in Table II:
every *unique valid* chromosome ever evaluated, and the Pareto front across all
of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import GeneticParameters
from ..errors import AllocationError
from ..telemetry import MetricsRegistry, Stopwatch, get_registry, span, timed_span
from .chromosome import Chromosome
from .objectives import AllocationEvaluator, AllocationSolution, ObjectiveVector
from .pareto import ParetoFront, crowding_distance, non_dominated_sort

__all__ = ["GenerationRecord", "Nsga2Result", "Nsga2Optimizer"]

#: Evaluation engines accepted by :class:`Nsga2Optimizer`.
_ENGINES = ("batch", "scalar")

#: Registry series the run books are derived from (one registry per run).
EVALUATIONS_METRIC = "repro_engine_evaluations_total"
MEMO_HITS_METRIC = "repro_engine_memo_hits_total"
GENERATIONS_METRIC = "repro_engine_generations_total"
PHASE_METRIC = "repro_engine_phase_seconds"


@dataclass(frozen=True)
class GenerationRecord:
    """Summary statistics and telemetry of one generation."""

    generation: int
    valid_count: int
    best_time_kcycles: float
    best_energy_fj: float
    best_ber: float
    front_size: int
    #: Chromosomes actually evaluated this generation (memo misses).
    evaluations: int = 0
    #: Chromosomes served from the byte-fingerprint memo this generation.
    memo_hits: int = 0
    #: Wall-clock time of the generation (all phases), seconds.
    wall_clock_seconds: float = 0.0
    #: Time spent evaluating objectives (memo lookups + engine), seconds.
    evaluation_seconds: float = 0.0
    #: Time spent in selection (non-dominated sort, crowding, environmental
    #: selection and run-wide Pareto-front maintenance), seconds.
    selection_seconds: float = 0.0
    #: Time spent in the genetic operators (tournament draws, crossover,
    #: mutation on population matrices), seconds.
    operator_seconds: float = 0.0


@dataclass
class Nsga2Result:
    """Outcome of one NSGA-II run."""

    objective_keys: Tuple[str, ...]
    final_population: List[AllocationSolution]
    pareto_front: ParetoFront[AllocationSolution]
    unique_valid_solutions: Dict[Tuple[int, ...], AllocationSolution]
    history: List[GenerationRecord] = field(default_factory=list)
    evaluations: int = 0
    memo_hits: int = 0
    wall_clock_seconds: float = 0.0
    engine: str = "batch"
    #: Run totals of the per-generation phase split (see :class:`GenerationRecord`).
    evaluation_seconds: float = 0.0
    selection_seconds: float = 0.0
    operator_seconds: float = 0.0

    @property
    def valid_solution_count(self) -> int:
        """Number of distinct valid chromosomes discovered during the run."""
        return len(self.unique_valid_solutions)

    @property
    def evaluations_per_second(self) -> float:
        """Throughput of the run (memo misses over total wall clock)."""
        if self.wall_clock_seconds <= 0.0:
            return 0.0
        return self.evaluations / self.wall_clock_seconds

    @property
    def pareto_solutions(self) -> List[AllocationSolution]:
        """The non-dominated solutions, sorted by execution time."""
        return [
            item
            for item, _ in self.pareto_front.sorted_by(0)
        ]

    def best_by(self, key: str) -> AllocationSolution:
        """The Pareto solution minimising one objective (``"time"``, ``"ber"``, ``"energy"``)."""
        if key not in self.objective_keys:
            raise AllocationError(
                f"objective {key!r} was not part of this optimisation "
                f"(keys: {self.objective_keys})"
            )
        index = self.objective_keys.index(key)
        item, _ = self.pareto_front.best_by(index)
        return item


@dataclass(frozen=True)
class _EvalRecord:
    """Memoised outcome of one unique chromosome."""

    objectives: Tuple[float, float, float]
    valid: bool
    solution: Optional[AllocationSolution]


class Nsga2Optimizer:
    """Multi-objective wavelength allocation with NSGA-II.

    Parameters
    ----------
    evaluator:
        The scalar reference evaluator describing the scenario; the optimiser
        derives its batch engine from it.
    parameters:
        Population size, generation count, operator probabilities and seed.
    objective_keys:
        Which objectives to optimise (subset of ``("time", "ber", "energy")``).
        The paper draws its Fig. 6a front on (time, energy) and its Fig. 6b /
        Fig. 7 fronts on (time, ber); the default optimises all three at once.
    engine:
        ``"batch"`` (default) evaluates whole populations through the
        vectorized :class:`~repro.allocation.batch.BatchEvaluator`;
        ``"scalar"`` evaluates row by row through the reference evaluator with
        the same operators and random stream (slow — used by equivalence and
        determinism tests).
    """

    def __init__(
        self,
        evaluator: AllocationEvaluator,
        parameters: Optional[GeneticParameters] = None,
        objective_keys: Sequence[str] = ObjectiveVector.KEYS,
        engine: str = "batch",
    ) -> None:
        self._evaluator = evaluator
        self._parameters = parameters or GeneticParameters()
        keys = tuple(objective_keys)
        if not keys:
            raise AllocationError("at least one objective key is required")
        for key in keys:
            if key not in ObjectiveVector.KEYS:
                raise AllocationError(f"unknown objective key {key!r}")
        if engine not in _ENGINES:
            raise AllocationError(
                f"unknown evaluation engine {engine!r}; choose from {_ENGINES}"
            )
        self._objective_keys = keys
        self._engine = engine
        #: Selection kernels follow the evaluation engine: the batch engine
        #: uses the NumPy-broadcast sort/crowding/front kernels, the scalar
        #: engine the pure-Python oracle (bit-identical, equivalence-tested).
        self._kernel_engine = "vectorized" if engine == "batch" else "python"
        self._batch = evaluator.batch()
        self._rng = np.random.default_rng(self._parameters.seed)
        self._memo: Dict[bytes, _EvalRecord] = {}
        self._genome = evaluator.communication_count * evaluator.wavelength_count
        self._objective_columns = [ObjectiveVector.KEYS.index(key) for key in keys]
        #: Run-local metrics registry: evaluations, memo hits, and the
        #: per-phase timer histograms the result fields are derived from.
        #: A fresh one is installed at each :meth:`run` and merged into the
        #: process-wide registry when the run completes.
        self._metrics = MetricsRegistry()

    # ----------------------------------------------------------------- public
    @property
    def parameters(self) -> GeneticParameters:
        """The GA settings in use."""
        return self._parameters

    @property
    def objective_keys(self) -> Tuple[str, ...]:
        """The objectives being minimised."""
        return self._objective_keys

    @property
    def evaluator(self) -> AllocationEvaluator:
        """The scalar reference evaluator describing the scenario."""
        return self._evaluator

    @property
    def engine(self) -> str:
        """The evaluation engine in use (``"batch"`` or ``"scalar"``)."""
        return self._engine

    @property
    def metrics(self) -> MetricsRegistry:
        """The run-local metrics registry (books of the most recent run)."""
        return self._metrics

    def _books(self) -> Tuple[float, float, float, float, float]:
        """Current registry readings backing the per-generation deltas."""
        registry = self._metrics
        return (
            registry.counter_value(EVALUATIONS_METRIC),
            registry.counter_value(MEMO_HITS_METRIC),
            registry.histogram_stats(PHASE_METRIC, phase="evaluation")["sum"],
            registry.histogram_stats(PHASE_METRIC, phase="selection")["sum"],
            registry.histogram_stats(PHASE_METRIC, phase="operator")["sum"],
        )

    def run(self) -> Nsga2Result:
        """Execute the configured number of generations and collect the results."""
        parameters = self._parameters
        self._metrics = MetricsRegistry()
        registry = self._metrics
        unique_valid: Dict[Tuple[int, ...], AllocationSolution] = {}
        front: ParetoFront[AllocationSolution] = ParetoFront()
        history: List[GenerationRecord] = []

        with span(
            "engine.run",
            engine=self._engine,
            population=parameters.population_size,
            generations=parameters.generations,
        ), Stopwatch() as run_watch:
            with span("engine.generation", generation=0), Stopwatch() as watch:
                books = self._books()
                population = self._initial_population_matrix()
                objectives = self._evaluate_matrix(population, unique_valid, front)
            registry.counter(GENERATIONS_METRIC).inc()
            history.append(self._record(0, objectives, front, watch.elapsed, books))

            for generation in range(1, parameters.generations + 1):
                with span(
                    "engine.generation", generation=generation
                ), Stopwatch() as watch:
                    books = self._books()
                    offspring = self._make_offspring(population, objectives)
                    offspring_objectives = self._evaluate_matrix(
                        offspring, unique_valid, front
                    )
                    combined = np.concatenate([population, offspring])
                    combined_objectives = np.concatenate(
                        [objectives, offspring_objectives]
                    )
                    selected = self._environmental_selection(combined_objectives)
                    population = combined[selected]
                    objectives = combined_objectives[selected]
                registry.counter(GENERATIONS_METRIC).inc()
                history.append(
                    self._record(generation, objectives, front, watch.elapsed, books)
                )

            final_population = [self._materialize(row) for row in population]

        result = Nsga2Result(
            objective_keys=self._objective_keys,
            final_population=final_population,
            pareto_front=front,
            unique_valid_solutions=unique_valid,
            history=history,
            evaluations=int(registry.counter_value(EVALUATIONS_METRIC)),
            memo_hits=int(registry.counter_value(MEMO_HITS_METRIC)),
            wall_clock_seconds=run_watch.elapsed,
            engine=self._engine,
            evaluation_seconds=registry.histogram_stats(
                PHASE_METRIC, phase="evaluation"
            )["sum"],
            selection_seconds=registry.histogram_stats(
                PHASE_METRIC, phase="selection"
            )["sum"],
            operator_seconds=registry.histogram_stats(
                PHASE_METRIC, phase="operator"
            )["sum"],
        )
        # Fold the run books into the process-wide registry so studies,
        # workers, and `/metrics` see engine activity without extra wiring.
        get_registry().merge(registry.snapshot())
        return result

    # ------------------------------------------------------------ inner steps
    def _initial_population_matrix(self) -> np.ndarray:
        from . import heuristics  # local import to avoid a module cycle at package load

        rows: List[np.ndarray] = []
        nl = self._evaluator.communication_count
        nw = self._evaluator.wavelength_count
        # Seed the population with the uniform first-fit allocations (1, 2, ...
        # wavelengths per communication) when they exist; this guarantees the
        # paper's energy-optimal anchor [1, 1, ..., 1] is part of the search.
        for per_communication in range(1, min(nw, 3) + 1):
            try:
                seeded = heuristics.uniform_allocation(self._evaluator, per_communication)
            except AllocationError:
                continue
            if seeded.is_valid:
                rows.append(seeded.chromosome.as_array().reshape(-1))
        while len(rows) < self._parameters.population_size:
            # Mix sparse and dense random individuals so both extremes of the
            # time/energy trade-off are represented from the start.
            density = self._rng.uniform(0.5 / nw, 0.8)
            rows.append(
                (self._rng.random(self._genome) < density).astype(np.uint8)
            )
        matrix = np.stack(rows[: self._parameters.population_size])
        return np.ascontiguousarray(matrix, dtype=np.uint8)

    def _evaluate_matrix(
        self,
        matrix: np.ndarray,
        unique_valid: Dict[Tuple[int, ...], AllocationSolution],
        front: ParetoFront[AllocationSolution],
    ) -> np.ndarray:
        """Evaluate a population matrix with memoisation and book-keeping.

        Returns the full three-objective matrix (``inf`` rows for invalid
        chromosomes).  Newly discovered valid chromosomes are materialised once
        and absorbed into the run-wide books; the batch engine feeds them to
        the run-wide Pareto front in one batched
        :meth:`~repro.allocation.pareto.ParetoFront.extend_array` call per
        generation, the scalar engine adds them one by one (the oracle path).
        """
        registry = self._metrics
        with timed_span(
            "engine.evaluation",
            metric=PHASE_METRIC,
            registry=registry,
            phase="evaluation",
        ):
            keys = [row.tobytes() for row in matrix]
            fresh: Dict[bytes, int] = {}
            hits = 0
            for index, key in enumerate(keys):
                if key in self._memo or key in fresh:
                    hits += 1
                else:
                    fresh[key] = index
            if hits:
                registry.counter(MEMO_HITS_METRIC).inc(hits)

            newcomers: List[AllocationSolution] = []
            if fresh:
                registry.counter(EVALUATIONS_METRIC).inc(len(fresh))
                fresh_indices = list(fresh.values())
                if self._engine == "batch":
                    evaluation = self._batch.evaluate_population(matrix[fresh_indices])
                    for position, key in enumerate(fresh):
                        valid = bool(evaluation.valid[position])
                        solution = evaluation.solution(position) if valid else None
                        record = _EvalRecord(
                            objectives=(
                                float(evaluation.execution_time_kcycles[position]),
                                float(evaluation.mean_bit_error_rate[position]),
                                float(evaluation.bit_energy_fj[position]),
                            ),
                            valid=valid,
                            solution=solution,
                        )
                        self._store(key, record, unique_valid, newcomers)
                else:
                    nl = self._evaluator.communication_count
                    nw = self._evaluator.wavelength_count
                    for key, index in fresh.items():
                        solution = self._evaluator.evaluate(
                            Chromosome.from_numpy(matrix[index], nl, nw)
                        )
                        record = _EvalRecord(
                            objectives=solution.objectives.as_tuple(),
                            valid=solution.is_valid,
                            solution=solution if solution.is_valid else None,
                        )
                        self._store(key, record, unique_valid, newcomers)

            objectives = np.empty((matrix.shape[0], 3))
            for index, key in enumerate(keys):
                objectives[index] = self._memo[key].objectives

        if newcomers:
            with timed_span(
                "engine.selection",
                metric=PHASE_METRIC,
                registry=registry,
                phase="selection",
            ):
                pairs = [
                    (solution, solution.objective_tuple(self._objective_keys))
                    for solution in newcomers
                ]
                if self._engine == "batch":
                    front.extend_array(
                        np.asarray([objective for _, objective in pairs], dtype=float),
                        [solution for solution, _ in pairs],
                    )
                else:
                    for solution, objective in pairs:
                        front.add(solution, objective)
        return objectives

    def _store(
        self,
        key: bytes,
        record: _EvalRecord,
        unique_valid: Dict[Tuple[int, ...], AllocationSolution],
        newcomers: List[AllocationSolution],
    ) -> None:
        self._memo[key] = record
        if record.valid and record.solution is not None:
            genes = record.solution.chromosome.genes
            if genes not in unique_valid:
                unique_valid[genes] = record.solution
                newcomers.append(record.solution)

    def _materialize(self, row: np.ndarray) -> AllocationSolution:
        """Full :class:`AllocationSolution` of one (already evaluated) row."""
        record = self._memo[row.tobytes()]
        if record.solution is not None:
            return record.solution
        chromosome = Chromosome.from_numpy(
            row, self._evaluator.communication_count, self._evaluator.wavelength_count
        )
        return AllocationSolution(
            chromosome=chromosome,
            objectives=ObjectiveVector.infinite(),
            validity=self._evaluator.check_validity(chromosome),
            wavelength_counts=chromosome.wavelength_counts(),
        )

    def _keyed(self, objectives: np.ndarray) -> np.ndarray:
        """Objective rows projected onto the optimised keys, as one matrix.

        The selection path stays in arrays end to end: the projection is a
        contiguous ``(pool, n_keys)`` view the sort/crowding kernels consume
        directly (no per-row tuple round-trips).
        """
        return np.ascontiguousarray(objectives[:, self._objective_columns])

    def _rank_and_distance(
        self, objectives: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        with timed_span(
            "engine.selection",
            metric=PHASE_METRIC,
            registry=self._metrics,
            phase="selection",
        ):
            keyed = self._keyed(objectives)
            fronts = non_dominated_sort(keyed, engine=self._kernel_engine)
            rank = np.zeros(len(keyed), dtype=int)
            distance = np.zeros(len(keyed))
            for front_position, front_indices in enumerate(fronts):
                indices = np.asarray(front_indices, dtype=int)
                rank[indices] = front_position
                distance[indices] = crowding_distance(
                    keyed[indices], engine=self._kernel_engine
                )
        return rank, distance

    def _environmental_selection(self, objectives: np.ndarray) -> np.ndarray:
        """Indices of the survivors among the merged parent+offspring pool."""
        with timed_span(
            "engine.selection",
            metric=PHASE_METRIC,
            registry=self._metrics,
            phase="selection",
        ):
            target = self._parameters.population_size
            keyed = self._keyed(objectives)
            fronts = non_dominated_sort(keyed, engine=self._kernel_engine)
            selected: List[int] = []
            for front_indices in fronts:
                if len(selected) + len(front_indices) <= target:
                    selected.extend(front_indices)
                    continue
                remaining = target - len(selected)
                if remaining <= 0:
                    break
                distances = crowding_distance(
                    keyed[np.asarray(front_indices, dtype=int)],
                    engine=self._kernel_engine,
                )
                order = np.argsort(-distances, kind="stable")
                selected.extend(
                    front_indices[position] for position in order[:remaining]
                )
                break
        return np.asarray(selected, dtype=int)

    def _make_offspring(
        self, population: np.ndarray, objectives: np.ndarray
    ) -> np.ndarray:
        """One generation of offspring on population matrices.

        The random draws happen pair by pair in exactly the sequence the
        historical chromosome-at-a-time implementation used, so a fixed seed
        reproduces the same populations it produced; the gene work itself
        (segment swaps, bit flips) is applied to whole matrices at once.
        """
        rank, distance = self._rank_and_distance(objectives)
        with timed_span(
            "engine.operator",
            metric=PHASE_METRIC,
            registry=self._metrics,
            phase="operator",
        ):
            target = self._parameters.population_size
            pair_count = (target + 1) // 2
            winners = np.empty(2 * pair_count, dtype=int)
            swap_bounds = np.zeros((pair_count, 2), dtype=int)
            flip_rows: List[np.ndarray] = []
            probability = self._parameters.mutation_probability

            produced = 0
            for pair in range(pair_count):
                winners[2 * pair] = self._tournament(rank, distance)
                winners[2 * pair + 1] = self._tournament(rank, distance)
                if self._rng.random() < self._parameters.crossover_probability:
                    lower, upper = sorted(
                        self._rng.integers(0, self._genome, size=2)
                    )
                    swap_bounds[pair] = (lower, upper)
                for _ in range(min(2, target - produced)):
                    flip_rows.append(self._draw_flips(probability))
                    produced += 1

            parents_a = population[winners[0::2]]
            parents_b = population[winners[1::2]]
            positions = np.arange(self._genome)[None, :]
            swap = (positions >= swap_bounds[:, 0:1]) & (
                positions < swap_bounds[:, 1:2]
            )
            offspring = np.empty((2 * pair_count, self._genome), dtype=np.uint8)
            offspring[0::2] = np.where(swap, parents_b, parents_a)
            offspring[1::2] = np.where(swap, parents_a, parents_b)
            offspring = offspring[:target]
            if flip_rows and probability > 0.0:
                flips = np.stack(flip_rows)
                offspring = np.where(flips, 1 - offspring, offspring).astype(np.uint8)
        return np.ascontiguousarray(offspring)

    def _tournament(self, rank: np.ndarray, distance: np.ndarray) -> int:
        """Binary (or larger) tournament on (rank, crowding distance)."""
        contenders = self._rng.integers(
            0, len(rank), size=self._parameters.tournament_size
        )
        best = int(contenders[0])
        for contender in contenders[1:]:
            contender = int(contender)
            if rank[contender] < rank[best]:
                best = contender
            elif rank[contender] == rank[best] and distance[contender] > distance[best]:
                best = contender
        return best

    def _draw_flips(self, probability: float) -> np.ndarray:
        """Mutation mask of one offspring row (always at least one flip)."""
        if probability <= 0.0:
            return np.zeros(self._genome, dtype=bool)
        flips = self._rng.random(self._genome) < probability
        if not flips.any():
            # The paper's mutation always inverts one randomly chosen point.
            flips[self._rng.integers(0, self._genome)] = True
        return flips

    def _record(
        self,
        generation: int,
        objectives: np.ndarray,
        front: ParetoFront[AllocationSolution],
        wall_clock_seconds: float,
        books_before: Tuple[float, float, float, float, float],
    ) -> GenerationRecord:
        valid = np.isfinite(objectives).all(axis=1)
        if valid.any():
            best_time = float(objectives[valid, 0].min())
            best_ber = float(objectives[valid, 1].min())
            best_energy = float(objectives[valid, 2].min())
        else:
            best_time = best_energy = best_ber = float("inf")
        evaluations, memo_hits, eval_s, sel_s, op_s = self._books()
        return GenerationRecord(
            generation=generation,
            valid_count=int(np.count_nonzero(valid)),
            best_time_kcycles=best_time,
            best_energy_fj=best_energy,
            best_ber=best_ber,
            front_size=len(front),
            evaluations=int(evaluations - books_before[0]),
            memo_hits=int(memo_hits - books_before[1]),
            wall_clock_seconds=wall_clock_seconds,
            evaluation_seconds=eval_s - books_before[2],
            selection_seconds=sel_s - books_before[3],
            operator_seconds=op_s - books_before[4],
        )
