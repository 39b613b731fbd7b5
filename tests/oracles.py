"""Slow, readable reference implementations the fast code is checked against.

Nothing under ``src/`` imports this module.  It holds:

* :func:`non_dominated_sort_python` and :func:`crowding_distance_python`, the
  textbook O(N²·M) Pareto selection kernels of Deb et al.  They define the
  semantics the vectorized kernels of :mod:`repro.allocation.pareto` must
  reproduce bit for bit: the front index order of Deb's book-keeping and the
  floating-point summation order of the crowding distances.
* :class:`ScalarNsga2Replay`, the NSGA-II run with the production operators,
  seeding and random stream, but evaluating chromosome by chromosome through
  :meth:`~repro.allocation.objectives.AllocationEvaluator.evaluate`, selecting
  through the Python kernels and growing the run-wide front by sequential
  :meth:`~repro.allocation.pareto.ParetoFront.add` calls.
* :class:`PerPairNsga2`, the NSGA-II run with the historical per-pair
  operators: every tournament, crossover coin, cut pair and flip row is its
  own ``Generator`` call.  It defines the random stream the raw-block
  operators of :meth:`~repro.allocation.nsga2.Nsga2Optimizer._make_offspring`
  must replay: the same offspring and the same generator state afterwards.
* :func:`heap_traffic_replay`, the dynamic-traffic replay through the
  discrete-event engine's heap: every arrival is scheduled up front and each
  admitted request schedules its own departure.  It defines the event order
  and the report the presorted replay of
  :class:`~repro.traffic.simulator.DynamicTrafficSimulator` must reproduce.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.allocation import Chromosome, Nsga2Optimizer, ParetoFront, nsga2
from repro.allocation.nsga2 import PHASE_METRIC
from repro.allocation.objectives import AllocationSolution
from repro.allocation.pareto import _INF_CLAMP, dominates
from repro.errors import TrafficError
from repro.simulation.engine import PRIORITY_ACQUIRE, PRIORITY_RELEASE, DiscreteEventEngine
from repro.telemetry import timed_span
from repro.traffic.simulator import BlockingReport, wilson_interval

__all__ = [
    "PerPairNsga2",
    "ScalarNsga2Replay",
    "crowding_distance_python",
    "heap_traffic_replay",
    "non_dominated_sort_python",
]


def non_dominated_sort_python(objectives: Sequence[Sequence[float]]) -> List[List[int]]:
    """Deb's fast non-dominated sort, pair by pair (O(N²·M))."""
    count = len(objectives)
    if count == 0:
        return []
    dominated_by: List[List[int]] = [[] for _ in range(count)]
    domination_counter = [0] * count
    fronts: List[List[int]] = [[]]

    for p in range(count):
        for q in range(count):
            if p == q:
                continue
            if dominates(objectives[p], objectives[q]):
                dominated_by[p].append(q)
            elif dominates(objectives[q], objectives[p]):
                domination_counter[p] += 1
        if domination_counter[p] == 0:
            fronts[0].append(p)

    current = 0
    while fronts[current]:
        next_front: List[int] = []
        for p in fronts[current]:
            for q in dominated_by[p]:
                domination_counter[q] -= 1
                if domination_counter[q] == 0:
                    next_front.append(q)
        current += 1
        fronts.append(next_front)
    fronts.pop()  # the last front is always empty
    return fronts


def crowding_distance_python(objectives: Sequence[Sequence[float]]) -> np.ndarray:
    """Crowding distance of one front, one neighbour pair at a time."""
    count = len(objectives)
    if count == 0:
        return np.zeros(0)
    matrix = np.asarray(objectives, dtype=float)
    # Invalid solutions carry infinite objectives; clamp them to a large finite
    # value so the sort and the neighbour differences stay well defined.
    matrix = np.where(np.isfinite(matrix), matrix, _INF_CLAMP)
    distances = np.zeros(count)
    for objective in range(matrix.shape[1]):
        order = np.argsort(matrix[:, objective], kind="stable")
        values = matrix[order, objective]
        distances[order[0]] = float("inf")
        distances[order[-1]] = float("inf")
        span = values[-1] - values[0]
        if span <= 0.0 or count < 3:
            continue
        for position in range(1, count - 1):
            distances[order[position]] += (
                values[position + 1] - values[position - 1]
            ) / span
    return distances


def _python_sort(
    objectives: Sequence[Sequence[float]], dominated: Optional[np.ndarray] = None
) -> List[List[int]]:
    """The oracle sort behind the production signature; ``dominated`` is ignored."""
    return non_dominated_sort_python(objectives)


@contextlib.contextmanager
def python_selection_kernels() -> Iterator[None]:
    """Route the optimiser's sort and crowding calls through the Python kernels.

    Rebinds the names :mod:`repro.allocation.nsga2` calls and restores them on
    exit, however the block ends.
    """
    originals = (nsga2.non_dominated_sort, nsga2.crowding_distance)
    nsga2.non_dominated_sort = _python_sort
    nsga2.crowding_distance = crowding_distance_python
    try:
        yield
    finally:
        nsga2.non_dominated_sort, nsga2.crowding_distance = originals


class _Built:
    """Scalar-built solutions, read back by position like a batch evaluation."""

    def __init__(self, solutions: List[AllocationSolution]) -> None:
        self._solutions = solutions

    def solution(self, index: int) -> AllocationSolution:
        return self._solutions[index]


class ScalarNsga2Replay(Nsga2Optimizer):
    """NSGA-II on the scalar evaluator and the Python selection kernels.

    Operators, seeding and the random stream are inherited unchanged, so a
    fixed seed walks the populations the batch engine walks; only the
    objective arithmetic differs, at floating-point summation-order level.
    """

    def run(self) -> nsga2.Nsga2Result:
        with python_selection_kernels():
            return super().run()

    def _evaluate_matrix(
        self, matrix: np.ndarray, archive: nsga2._RunArchive, front: ParetoFront
    ) -> np.ndarray:
        keys = [row.tobytes() for row in matrix]
        fresh: Dict[bytes, int] = {}
        for index, key in enumerate(keys):
            if key not in archive.rows and key not in fresh:
                fresh[key] = index
        self.metrics.counter(nsga2.MEMO_HITS_METRIC).inc(len(keys) - len(fresh))
        self.metrics.counter(nsga2.EVALUATIONS_METRIC).inc(len(fresh))
        if fresh:
            shape = (self.evaluator.communication_count, self.evaluator.wavelength_count)
            solutions = [
                self.evaluator.evaluate(Chromosome.from_numpy(matrix[index], *shape))
                for index in fresh.values()
            ]
            start = len(archive.rows)
            newcomers = archive._append(
                list(fresh),
                np.array([solution.objectives.as_tuple() for solution in solutions]),
                np.array([solution.is_valid for solution in solutions], dtype=bool),
            )
            archive._attach(np.arange(start, start + len(solutions)), _Built(solutions))
            for row in newcomers.tolist():
                front.add(row, archive.objectives[row, self._objective_columns])
        return archive.objectives[[archive.rows[key] for key in keys]]


class PerPairNsga2(Nsga2Optimizer):
    """NSGA-II whose operators draw pair by pair from the ``Generator``.

    ``_make_offspring``, ``_tournament`` and ``_draw_flips`` are the
    operator code the optimiser ran before it replayed one raw block per
    generation; the tournaments read their keys as Python lists, as they did.
    """

    def _rank_and_distance(
        self, objectives: np.ndarray, dominated: Optional[np.ndarray]
    ) -> Tuple[List[int], List[float]]:
        rank, distance = super()._rank_and_distance(objectives, dominated)
        return rank.tolist(), distance.tolist()

    def _make_offspring(
        self,
        population: np.ndarray,
        objectives: np.ndarray,
        dominated: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One generation of offspring on population matrices.

        The random draws happen pair by pair in exactly the sequence the
        historical chromosome-at-a-time implementation used, so a fixed seed
        reproduces the same populations it produced; the gene work itself
        (segment swaps, bit flips) is applied to whole matrices at once.
        ``dominated`` is the population's domination matrix, when known.
        """
        rank, distance = self._rank_and_distance(objectives, dominated)
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

    def _tournament(self, rank: List[int], distance: List[float]) -> int:
        """Binary (or larger) tournament on (rank, crowding distance)."""
        contenders = self._rng.integers(
            0, len(rank), size=self._parameters.tournament_size
        ).tolist()
        best = contenders[0]
        for contender in contenders[1:]:
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


def heap_traffic_replay(
    topology, model, allocator, warmup_fraction: float = 0.1, topology_name: str = ""
) -> BlockingReport:
    """The dynamic-traffic run through the discrete-event engine's heap.

    Arrivals are scheduled up front at ``PRIORITY_ACQUIRE``; an admitted
    request schedules its departure at ``PRIORITY_RELEASE`` when it arrives,
    so the heap's (time, priority, insertion) order decides every tie.
    """
    requests = model.requests(list(topology.core_ids()))
    wavelength_count = topology.wavelength_count
    full_mask = (1 << wavelength_count) - 1
    warmup_count = int(len(requests) * warmup_fraction)
    segments_of: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}

    def segments(source: int, destination: int) -> List[Tuple[int, int]]:
        key = (source, destination)
        if key not in segments_of:
            segments_of[key] = topology.path(source, destination).segment_keys()
        return segments_of[key]

    engine = DiscreteEventEngine()
    busy_masks: Dict[Tuple[int, int], int] = {}
    usage = [0] * wavelength_count
    carried_per_wavelength = [0] * wavelength_count
    offered = 0
    blocked = 0
    busy_segment_time = 0.0

    def depart(path: List[Tuple[int, int]], wavelength: int) -> None:
        clear = ~(1 << wavelength)
        for segment in path:
            busy_masks[segment] &= clear
        usage[wavelength] -= 1

    def arrive(request) -> None:
        nonlocal offered, blocked, busy_segment_time
        measured = request.index >= warmup_count
        if measured:
            offered += 1
        path = segments(request.source, request.destination)
        combined = 0
        for segment in path:
            combined |= busy_masks.get(segment, 0)
        free_mask = ~combined & full_mask
        if free_mask == 0:
            if measured:
                blocked += 1
            return
        free = tuple(w for w in range(wavelength_count) if free_mask >> w & 1)
        wavelength = allocator.choose(request, free, usage)
        if wavelength not in free:
            raise TrafficError(
                f"allocator {getattr(allocator, 'name', '?')!r} chose wavelength "
                f"{wavelength}, which is not free on the path of request {request.index}"
            )
        bit = 1 << wavelength
        for segment in path:
            busy_masks[segment] = busy_masks.get(segment, 0) | bit
        usage[wavelength] += 1
        carried_per_wavelength[wavelength] += 1
        busy_segment_time += request.holding * len(path)
        engine.schedule_at(
            request.departure,
            lambda: depart(path, wavelength),
            priority=PRIORITY_RELEASE,
        )

    for request in requests:
        engine.schedule_at(
            request.arrival,
            lambda request=request: arrive(request),
            priority=PRIORITY_ACQUIRE,
        )
    duration = engine.run(max_events=max(1_000_000, 4 * len(requests)))

    network = set()
    for source in topology.core_ids():
        for destination in topology.core_ids():
            if source != destination:
                network.update(segments(source, destination))
    probability = blocked / offered if offered else 0.0
    low, high = wilson_interval(blocked, offered)
    capacity = len(network) * wavelength_count * duration
    return BlockingReport(
        model=getattr(model, "name", type(model).__name__),
        strategy=getattr(allocator, "name", type(allocator).__name__),
        topology=topology_name or type(topology).__name__,
        wavelength_count=wavelength_count,
        total_requests=len(requests),
        warmup_excluded=warmup_count,
        offered=offered,
        blocked=blocked,
        blocking_probability=probability,
        wilson_low=low,
        wilson_high=high,
        mean_link_utilisation=busy_segment_time / capacity if capacity > 0.0 else 0.0,
        duration=duration,
        per_wavelength_carried=tuple(carried_per_wavelength),
        events_processed=engine.processed_events,
    )
