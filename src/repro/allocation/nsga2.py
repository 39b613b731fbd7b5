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
genome)`` uint8 matrix, the genetic operators act on whole matrices and take
each generation's random draws from one raw block of the generator's words
(replayed in the historical per-pair order, so the stream is unchanged), and
objective evaluation runs through the
:class:`~repro.allocation.batch.BatchEvaluator` with a byte-fingerprint memo
that skips chromosomes already evaluated earlier in the run.  Selection builds
one domination matrix per generation: environmental selection sorts the
merged parent+offspring pool with it, and the survivors' block of it is the
next generation's tournament sort.  The test-suite replays the same
operators and random stream through the readable scalar
:class:`~repro.allocation.objectives.AllocationEvaluator` and the pure-Python
selection oracles (``tests/oracles.py``) to pin down batch/scalar
determinism, and holds the raw-block operators to the per-pair ``Generator``
calls they replace (``PerPairNsga2`` there).

The optimiser also keeps the run-wide books the paper reports in Table II:
every *unique valid* chromosome ever evaluated, and the Pareto front across all
of them.  The books are a run archive of arrays (gene bytes → row of the
objective and validity matrices); an
:class:`~repro.allocation.objectives.AllocationSolution` is built only for the
reported front and the final population at the end of the run, and for any
other valid row when a caller first reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..config import GeneticParameters
from ..errors import AllocationError
from ..telemetry import MetricsRegistry, Stopwatch, get_registry, span, timed_span
from .batch import BatchEvaluation, BatchEvaluator
from .objectives import AllocationEvaluator, AllocationSolution, ObjectiveVector
from .pareto import ParetoFront, crowding_distance, dominance_matrix, non_dominated_sort

__all__ = ["GenerationRecord", "Nsga2Result", "Nsga2Optimizer"]

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
    #: Gene tuple → solution of every distinct valid chromosome, in discovery
    #: order; read-only, each value is materialised when first read.
    unique_valid_solutions: Mapping[Tuple[int, ...], AllocationSolution]
    history: List[GenerationRecord] = field(default_factory=list)
    evaluations: int = 0
    memo_hits: int = 0
    wall_clock_seconds: float = 0.0
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


class _RunArchive:
    """Every chromosome one run evaluated, as rows of run-wide arrays.

    ``rows`` is the memo: gene bytes → archive row, in discovery order;
    ``objectives`` (time, ber, energy) and ``valid`` are indexed by row.  No
    solution is built while the run searches.  A row keeps its place in its
    generation's :class:`BatchEvaluation` (restricted to the valid rows) and is
    materialised through :meth:`BatchEvaluation.solution` the first time it is
    read, then cached.
    """

    def __init__(self, batch: BatchEvaluator, capacity: int) -> None:
        self.rows: Dict[bytes, int] = {}
        self.objectives = np.empty((capacity, len(ObjectiveVector.KEYS)))
        self.valid = np.empty(capacity, dtype=bool)
        self.valid_count = 0
        self._batch = batch
        self._batches: List[BatchEvaluation] = []
        #: Row → (index into ``_batches``, position in that batch); -1 = none.
        self._source = np.full(capacity, -1, dtype=np.intp)
        self._position = np.empty(capacity, dtype=np.intp)
        self._solutions: Dict[int, AllocationSolution] = {}

    def add_batch(self, keys: List[bytes], evaluation: BatchEvaluation) -> np.ndarray:
        """Append a batch-evaluated generation; returns its valid rows."""
        newcomers = self._append(keys, evaluation.objective_matrix(), evaluation.valid)
        if newcomers.size:
            self._attach(newcomers, evaluation.take(np.flatnonzero(evaluation.valid)))
        return newcomers

    def _append(self, keys: List[bytes], objectives: np.ndarray, valid: np.ndarray) -> np.ndarray:
        start = len(self.rows)
        stop = start + len(keys)
        self.rows.update(zip(keys, range(start, stop)))
        self.objectives[start:stop] = objectives
        self.valid[start:stop] = valid
        newcomers = start + np.flatnonzero(valid)
        self.valid_count += newcomers.size
        return newcomers

    def _attach(self, rows: np.ndarray, evaluation: BatchEvaluation) -> None:
        self._source[rows] = len(self._batches)
        self._position[rows] = np.arange(len(rows))
        self._batches.append(evaluation)

    def solution(self, row: int) -> AllocationSolution:
        """The solution of one archive row, materialised on first read."""
        solution = self._solutions.get(row)
        if solution is None:
            evaluation = self._batches[self._source[row]]
            solution = self._solutions[row] = evaluation.solution(int(self._position[row]))
        return solution

    def population(self, matrix: np.ndarray) -> List[AllocationSolution]:
        """Solutions of a population matrix whose rows are all in the archive.

        Invalid rows are kept in no batch; they are wrapped in one
        :meth:`BatchEvaluator.invalid_batch` first.
        """
        rows = [self.rows[genes.tobytes()] for genes in matrix]
        pending = {row: index for index, row in enumerate(rows) if self._source[row] < 0}
        if pending:
            self._attach(
                np.fromiter(pending, dtype=np.intp, count=len(pending)),
                self._batch.invalid_batch(matrix[list(pending.values())]),
            )
        return [self.solution(row) for row in rows]


class _ValidSolutions(Mapping[Tuple[int, ...], AllocationSolution]):
    """The run's distinct valid solutions: gene tuple → solution, in discovery order.

    A read-only view of the run archive: lookups, ``in`` and iteration only
    touch the memo; a value is materialised (once) when it is read.
    """

    def __init__(self, archive: _RunArchive) -> None:
        self._archive = archive

    def _row(self, genes: object) -> Optional[int]:
        if not isinstance(genes, tuple):
            return None
        try:
            row = self._archive.rows.get(bytes(genes))
        except (TypeError, ValueError):
            return None
        if row is None or not self._archive.valid[row]:
            return None
        return row

    def __getitem__(self, genes: Tuple[int, ...]) -> AllocationSolution:
        row = self._row(genes)
        if row is None:
            raise KeyError(genes)
        return self._archive.solution(row)

    def __contains__(self, genes: object) -> bool:
        return self._row(genes) is not None

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        valid = self._archive.valid
        return (tuple(key) for key, row in self._archive.rows.items() if valid[row])

    def __len__(self) -> int:
        return self._archive.valid_count


#: ``2**-53``: ``Generator.random`` returns the top 53 bits of a word times this.
_DOUBLE_STEP = 1.0 / 9007199254740992.0
_LOW_HALF = 0xFFFFFFFF
_HALF_SPAN = 1 << 32


class _RawDraws:
    """``Generator.integers(0, n)`` and ``Generator.random()`` replayed from raw words.

    The optimiser's generator is ``np.random.default_rng``, whose bit generator
    is PCG64, so both draws are plain arithmetic on its raw 64-bit words:

    * a double is ``(word >> 11) * 2**-53`` of one fresh word;
    * ``integers(0, n)`` for ``1 < n <= 2**32`` is Lemire's method on 32-bit
      words: ``m = w32 * n``, redrawn while ``m & 0xFFFFFFFF`` is below
      ``(2**32 - n) % n``, giving ``m >> 32``; ``n == 1`` draws nothing;
    * 32-bit words come from PCG64's one-word buffer: a fresh word serves its
      low half and keeps the high half (``has_uint32`` / ``uinteger``) for the
      next 32-bit draw, across calls; doubles never touch it.

    One ``random_raw`` block serves a whole generation and grows when the walk
    runs past its end (rejections, or a short estimate).  :meth:`close` leaves
    the generator exactly where per-call draws would have: at the consumed
    word, with the same buffer fields.
    """

    __slots__ = (
        "_bit_generator", "_saved", "_raw", "_position", "_has_half", "_half",
        "_below", "_hits", "_counts",
    )

    def __init__(self, generator: np.random.Generator, estimate: int) -> None:
        self._bit_generator = generator.bit_generator
        self._saved = self._bit_generator.state
        self._has_half = self._saved["has_uint32"]
        self._half = self._saved["uinteger"]
        self._raw = self._bit_generator.random_raw(max(estimate, 1))
        self._position = 0
        #: The probability ``_hits`` (each word's double below it) and
        #: ``_counts`` (their running count) were built for; ``None`` until
        #: they cover the current block.
        self._below: Optional[float] = None

    def _extend(self, count: int) -> None:
        more = self._bit_generator.random_raw(max(count, len(self._raw)))
        self._raw = np.concatenate([self._raw, more])
        self._below = None

    def random(self) -> float:
        """``Generator.random()``."""
        position = self._position
        if position == len(self._raw):
            self._extend(1)
        self._position = position + 1
        return (self._raw.item(position) >> 11) * _DOUBLE_STEP

    def integers(self, n: int, count: int) -> List[int]:
        """``Generator.integers(0, n, size=count)`` as a list, for ``1 <= n <= 2**32``."""
        if n == 1:
            return [0] * count
        values: List[int] = []
        raw = self._raw
        has_half, half, position = self._has_half, self._half, self._position
        for _ in range(count):
            while True:
                if has_half:
                    has_half = 0
                    word = half
                else:
                    if position == len(raw):
                        self._extend(1)
                        raw = self._raw
                    word = raw.item(position)
                    position += 1
                    has_half = 1
                    half = word >> 32
                    word &= _LOW_HALF
                product = word * n
                leftover = product & _LOW_HALF
                if leftover >= n or leftover >= (_HALF_SPAN - n) % n:
                    break
            values.append(product >> 32)
        self._has_half, self._half, self._position = has_half, half, position
        return values

    def _mask(self, probability: float) -> None:
        if self._below != probability:
            self._hits = (self._raw >> np.uint64(11)) * _DOUBLE_STEP < probability
            self._counts = np.concatenate(([0], np.cumsum(self._hits)))
            self._below = probability

    def random_row(self, length: int, probability: float) -> Tuple[int, bool]:
        """Skip ``Generator.random(length)``.

        Returns the row's start in the block and whether any of its doubles
        is below ``probability``.
        """
        start = self._position
        stop = start + length
        if stop > len(self._raw):
            self._extend(stop - len(self._raw))
        self._mask(probability)
        self._position = stop
        return start, self._counts.item(stop) != self._counts.item(start)

    def rows_below(self, starts: Sequence[int], length: int, probability: float) -> np.ndarray:
        """``Generator.random(length) < probability`` of the rows at ``starts``, as one matrix."""
        self._mask(probability)
        return self._hits[np.asarray(starts, dtype=np.intp)[:, None] + np.arange(length)]

    def close(self) -> None:
        """Leave the generator where per-call draws would have left it."""
        bit_generator = self._bit_generator
        bit_generator.state = self._saved
        bit_generator.advance(self._position)
        # ``advance`` clears the 32-bit buffer; put back the one the walk left.
        state = bit_generator.state
        state["has_uint32"] = self._has_half
        state["uinteger"] = self._half
        bit_generator.state = state


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
    """

    def __init__(
        self,
        evaluator: AllocationEvaluator,
        parameters: Optional[GeneticParameters] = None,
        objective_keys: Sequence[str] = ObjectiveVector.KEYS,
    ) -> None:
        self._evaluator = evaluator
        self._parameters = parameters or GeneticParameters()
        keys = tuple(objective_keys)
        if not keys:
            raise AllocationError("at least one objective key is required")
        for key in keys:
            if key not in ObjectiveVector.KEYS:
                raise AllocationError(f"unknown objective key {key!r}")
        self._objective_keys = keys
        self._batch = evaluator.batch()
        self._rng = np.random.default_rng(self._parameters.seed)
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
        archive = _RunArchive(
            self._batch, parameters.population_size * (parameters.generations + 1)
        )
        # The run-wide front holds archive rows until the run ends.
        front: ParetoFront[int] = ParetoFront()
        history: List[GenerationRecord] = []

        with span(
            "engine.run",
            population=parameters.population_size,
            generations=parameters.generations,
        ), Stopwatch() as run_watch:
            with span("engine.generation", generation=0), Stopwatch() as watch:
                books = self._books()
                population = self._initial_population_matrix()
                objectives = self._evaluate_matrix(population, archive, front)
            registry.counter(GENERATIONS_METRIC).inc()
            history.append(self._record(0, objectives, front, watch.elapsed, books))

            # The population's domination matrix, carried over from the last
            # environmental selection (None: build it in the first sort).
            dominated: Optional[np.ndarray] = None
            for generation in range(1, parameters.generations + 1):
                with span(
                    "engine.generation", generation=generation
                ), Stopwatch() as watch:
                    books = self._books()
                    offspring = self._make_offspring(population, objectives, dominated)
                    offspring_objectives = self._evaluate_matrix(
                        offspring, archive, front
                    )
                    combined = np.concatenate([population, offspring])
                    combined_objectives = np.concatenate(
                        [objectives, offspring_objectives]
                    )
                    selected, dominated = self._environmental_selection(
                        combined_objectives
                    )
                    population = combined[selected]
                    objectives = combined_objectives[selected]
                registry.counter(GENERATIONS_METRIC).inc()
                history.append(
                    self._record(generation, objectives, front, watch.elapsed, books)
                )

            with timed_span(
                "engine.materialise",
                metric=PHASE_METRIC,
                registry=registry,
                phase="materialise",
            ):
                final_population = archive.population(population)
                reported: ParetoFront[AllocationSolution] = ParetoFront(
                    items=[archive.solution(row) for row in front.items],
                    objectives=front.objectives,
                )

        result = Nsga2Result(
            objective_keys=self._objective_keys,
            final_population=final_population,
            pareto_front=reported,
            unique_valid_solutions=_ValidSolutions(archive),
            history=history,
            evaluations=int(registry.counter_value(EVALUATIONS_METRIC)),
            memo_hits=int(registry.counter_value(MEMO_HITS_METRIC)),
            wall_clock_seconds=run_watch.elapsed,
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
        archive: _RunArchive,
        front: ParetoFront[int],
    ) -> np.ndarray:
        """Evaluate a population matrix with memoisation and book-keeping.

        Returns the full three-objective matrix (``inf`` rows for invalid
        chromosomes).  Memo misses are evaluated once and appended to the run
        archive; no solution is materialised here.  The valid newcomers join
        the run-wide Pareto front as archive rows in one batched
        :meth:`~repro.allocation.pareto.ParetoFront.extend_array` call per
        generation.
        """
        registry = self._metrics
        with timed_span(
            "engine.evaluation",
            metric=PHASE_METRIC,
            registry=registry,
            phase="evaluation",
        ):
            keys = [row.tobytes() for row in matrix]
            memo = archive.rows
            fresh: Dict[bytes, int] = {}
            hits = 0
            for index, key in enumerate(keys):
                if key in memo or key in fresh:
                    hits += 1
                else:
                    fresh[key] = index
            if hits:
                registry.counter(MEMO_HITS_METRIC).inc(hits)

            newcomers = np.zeros(0, dtype=np.intp)
            if fresh:
                registry.counter(EVALUATIONS_METRIC).inc(len(fresh))
                evaluation = self._batch.evaluate_population(matrix[list(fresh.values())])
                newcomers = archive.add_batch(list(fresh), evaluation)

            rows = np.fromiter((memo[key] for key in keys), dtype=np.intp, count=len(keys))
            objectives = archive.objectives[rows]

        if newcomers.size:
            with timed_span(
                "engine.selection",
                metric=PHASE_METRIC,
                registry=registry,
                phase="selection",
            ):
                keyed = archive.objectives[np.ix_(newcomers, self._objective_columns)]
                front.extend_array(keyed, newcomers.tolist())
        return objectives

    def _keyed(self, objectives: np.ndarray) -> np.ndarray:
        """Objective rows projected onto the optimised keys, as one matrix.

        The selection path stays in arrays end to end: the projection is a
        contiguous ``(pool, n_keys)`` view the sort/crowding kernels consume
        directly (no per-row tuple round-trips).
        """
        return np.ascontiguousarray(objectives[:, self._objective_columns])

    def _rank_and_distance(
        self, objectives: np.ndarray, dominated: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Tournament keys of every row: front rank and crowding distance.

        ``dominated`` is the rows' domination matrix when the previous
        environmental selection already built it.
        """
        with timed_span(
            "engine.selection",
            metric=PHASE_METRIC,
            registry=self._metrics,
            phase="selection",
        ):
            keyed = self._keyed(objectives)
            fronts = non_dominated_sort(keyed, dominated=dominated)
            rank = np.zeros(len(keyed), dtype=int)
            distance = np.zeros(len(keyed))
            for front_position, front_indices in enumerate(fronts):
                indices = np.asarray(front_indices, dtype=int)
                rank[indices] = front_position
                distance[indices] = crowding_distance(keyed[indices])
        return rank, distance

    def _environmental_selection(
        self, objectives: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Survivors among the merged parent+offspring pool.

        Returns their indices and their block of the pool's domination
        matrix — exactly the survivors' own domination matrix, since dominance
        between two rows depends only on those rows.
        """
        with timed_span(
            "engine.selection",
            metric=PHASE_METRIC,
            registry=self._metrics,
            phase="selection",
        ):
            target = self._parameters.population_size
            keyed = self._keyed(objectives)
            pool_dominated = dominance_matrix(keyed)
            fronts = non_dominated_sort(keyed, dominated=pool_dominated)
            selected: List[int] = []
            for front_indices in fronts:
                if len(selected) + len(front_indices) <= target:
                    selected.extend(front_indices)
                    continue
                remaining = target - len(selected)
                if remaining <= 0:
                    break
                distances = crowding_distance(keyed[np.asarray(front_indices, dtype=int)])
                order = np.argsort(-distances, kind="stable")
                selected.extend(
                    front_indices[position] for position in order[:remaining]
                )
                break
            survivors = np.asarray(selected, dtype=int)
            return survivors, pool_dominated[np.ix_(survivors, survivors)]

    def _make_offspring(
        self,
        population: np.ndarray,
        objectives: np.ndarray,
        dominated: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One generation of offspring on population matrices.

        Every random draw comes from one raw block (:class:`_RawDraws`),
        walked in exactly the per-pair order of the historical
        chromosome-at-a-time implementation: per pair, both tournaments'
        contenders, the crossover coin, the two cut points when it passes,
        then each child's flip row and, when the row flips nothing, one forced
        flip.  The generator ends where those per-call draws would have left
        it, so a fixed seed reproduces the same populations.  Tournament
        winners, segment swaps and bit flips are then decided on whole
        matrices.  ``dominated`` is the population's domination matrix, when
        known.
        """
        rank, distance = self._rank_and_distance(objectives, dominated)
        with timed_span(
            "engine.operator",
            metric=PHASE_METRIC,
            registry=self._metrics,
            phase="operator",
        ):
            parameters = self._parameters
            size = parameters.population_size
            genome = self._genome
            tournament = parameters.tournament_size
            crossover = parameters.crossover_probability
            mutation = parameters.mutation_probability
            pairs = size // 2
            row = genome if mutation > 0.0 else 0
            # Words of every draw unless Lemire rejects one: per pair at most
            # tournament + 2 words of 32-bit draws, one coin and two flip rows.
            draws = _RawDraws(self._rng, pairs * (tournament + 3 + 2 * row))
            contenders: List[int] = []
            swap_bounds: List[Sequence[int]] = [(0, 0)] * pairs
            starts: List[int] = []
            forced_rows: List[int] = []
            forced_genes: List[int] = []
            for pair in range(pairs):
                contenders += draws.integers(size, 2 * tournament)
                if draws.random() < crossover:
                    swap_bounds[pair] = sorted(draws.integers(genome, 2))
                if row:
                    for child in (2 * pair, 2 * pair + 1):
                        start, flipped = draws.random_row(row, mutation)
                        starts.append(start)
                        if not flipped:
                            # The paper's mutation always inverts one randomly chosen point.
                            forced_rows.append(child)
                            forced_genes += draws.integers(genome, 1)
            draws.close()

            # Tournaments: fold each contender column in draw order into the
            # winners, on (rank, crowding distance) with first-come ties.
            columns = np.array(contenders, dtype=np.intp).reshape(size, tournament).T
            winners = columns[0]
            for contender in columns[1:]:
                better = (rank[contender] < rank[winners]) | (
                    (rank[contender] == rank[winners])
                    & (distance[contender] > distance[winners])
                )
                winners = np.where(better, contender, winners)

            parents_a = population[winners[0::2]]
            parents_b = population[winners[1::2]]
            bounds = np.array(swap_bounds, dtype=np.intp)
            positions = np.arange(genome)[None, :]
            swap = (positions >= bounds[:, 0:1]) & (positions < bounds[:, 1:2])
            offspring = np.empty((size, genome), dtype=np.uint8)
            offspring[0::2] = np.where(swap, parents_b, parents_a)
            offspring[1::2] = np.where(swap, parents_a, parents_b)
            if row:
                flips = draws.rows_below(starts, row, mutation)
                flips[forced_rows, forced_genes] = True
                offspring ^= flips
        return offspring

    def _record(
        self,
        generation: int,
        objectives: np.ndarray,
        front: ParetoFront[int],
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
