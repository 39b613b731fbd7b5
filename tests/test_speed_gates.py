"""Throughput floors of the fast paths.

Two ratios gate the vectorized engine, each measured back to back on one
fixed input so host speed cancels out:

* one sort+crowding selection pass of the NumPy kernels against the Python
  oracles of ``tests/oracles.py``: at least 10x on a merged population-256
  pool (512 rows);
* whole-population evaluation through the batch engine against
  :meth:`AllocationEvaluator.evaluate` row by row: at least 5x on a
  population of 64 paper chromosomes.

A third ratio, measured the same way, gates the GA operators: one
generation's offspring from the raw-block walk of
:meth:`Nsga2Optimizer._make_offspring` against the per-pair ``Generator``
calls of ``tests/oracles.py`` (``PerPairNsga2``), at least 2x on a 400-row
NW 8 population, rank and crowding included on both sides.

One absolute floor gates the dynamic-traffic simulator: at least 5 000
events/s on a 20 000-request Poisson run on the 4x4 ring with 4 wavelengths.
The engine runs at tens of thousands of events/s; the quadratic event-queue
regression this guards against ran at ~1 300, so the floor separates the two
regimes with a wide margin on slow machines.

One more ratio gates the result store: a study re-run through a new
:class:`~repro.store.ResultStore` handle on the file its cold run filled
(NW 4/8/12, population 32, 12 generations) must serve every scenario from
the store, with the cold run's documents, at least 10x faster.

These gates prove the fast paths stay fast; they are not a performance
trajectory (``perfbench/`` measures that).
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from oracles import PerPairNsga2, crowding_distance_python, non_dominated_sort_python
from repro.allocation import (
    AllocationEvaluator,
    Nsga2Optimizer,
    crowding_distance,
    dominance_matrix,
    non_dominated_sort,
)
from repro.application import paper_mapping, paper_task_graph
from repro.config import GeneticParameters
from repro.scenarios import Scenario, Study
from repro.store import ResultStore
from repro.topology import build_topology
from repro.traffic import DynamicTrafficSimulator, build_online_allocator, build_traffic_model

#: Minimum vectorized/Python sort+crowding speedup at population 256.
MIN_SELECTION_SPEEDUP = 10.0

#: Minimum batch/scalar evaluation speedup at population 64.
MIN_EVALUATION_SPEEDUP = 5.0

#: Minimum raw-block/per-pair offspring speedup at population 400.
MIN_OPERATOR_SPEEDUP = 2.0

#: Minimum events/second of the dynamic-traffic simulator.
MIN_TRAFFIC_EVENTS_PER_SECOND = 5_000.0

#: Minimum cold/warm wall-clock ratio of a study re-run against its store.
MIN_STORE_WARMUP_SPEEDUP = 10.0


def ops_per_second(operation: Callable[[], object], min_seconds: float) -> float:
    """Calls per second of ``operation`` over at least ``min_seconds`` (after a warm-up)."""
    operation()
    started = time.perf_counter()
    count = 0
    while time.perf_counter() - started < min_seconds:
        operation()
        count += 1
    return count / (time.perf_counter() - started)


def selection_pool(population: int, objectives: int = 3) -> np.ndarray:
    """A merged 2N parent+offspring pool shaped like real GA objective data.

    Roughly a quarter of GA candidates are invalid (all-``inf`` objective
    rows) and memoisation produces duplicate vectors; both shapes stress the
    kernels' tie handling.
    """
    rng = np.random.default_rng(2017)
    pool = 2 * population
    matrix = rng.uniform(1.0, 100.0, size=(pool, objectives))
    invalid = rng.random(pool) < 0.25
    matrix[invalid] = np.inf
    duplicates = rng.integers(0, pool, size=pool // 8)
    matrix[duplicates] = matrix[rng.integers(0, pool, size=pool // 8)]
    return matrix


def test_selection_kernels_beat_the_python_oracles_tenfold():
    matrix = selection_pool(256)
    rows = [tuple(row) for row in matrix]

    def python_selection():
        for front in non_dominated_sort_python(rows):
            crowding_distance_python([rows[index] for index in front])

    def vectorized_selection():
        for front in non_dominated_sort(matrix):
            crowding_distance(matrix[np.asarray(front, dtype=int)])

    python_rate = ops_per_second(python_selection, 0.3)
    vectorized_rate = ops_per_second(vectorized_selection, 0.3)
    speedup = vectorized_rate / python_rate
    assert speedup >= MIN_SELECTION_SPEEDUP, (python_rate, vectorized_rate)


def test_batch_evaluation_beats_the_scalar_evaluator_fivefold():
    architecture = build_topology("ring", 4, 4, wavelength_count=8)
    evaluator = AllocationEvaluator(
        architecture, paper_task_graph(), paper_mapping(architecture)
    )
    batch = evaluator.batch()
    rng = np.random.default_rng(2017)
    tensor = np.stack(
        [
            batch.random_population(1, rng, reserve_probability=density)[0]
            for density in np.linspace(0.1, 0.6, 64)
        ]
    )
    evaluation = batch.evaluate_population(tensor)
    chromosomes = [evaluation.chromosome(index) for index in range(len(tensor))]

    def scalar_pass():
        for chromosome in chromosomes:
            evaluator.evaluate(chromosome)

    scalar_rate = ops_per_second(scalar_pass, 0.5)
    batch_rate = ops_per_second(lambda: batch.evaluate_population(tensor), 0.5)
    speedup = batch_rate / scalar_rate
    assert speedup >= MIN_EVALUATION_SPEEDUP, (scalar_rate, batch_rate)


def test_raw_block_operators_beat_the_per_pair_draws_twofold():
    architecture = build_topology("ring", 4, 4, wavelength_count=8)
    evaluator = AllocationEvaluator(
        architecture, paper_task_graph(), paper_mapping(architecture)
    )
    parameters = GeneticParameters(population_size=400, generations=1, seed=2017)
    production = Nsga2Optimizer(evaluator, parameters)
    oracle = PerPairNsga2(evaluator, parameters)
    population = production._initial_population_matrix()
    objectives = evaluator.batch().evaluate_population(population).objective_matrix()
    # The run hands each generation the survivors' domination matrix.
    dominated = dominance_matrix(objectives)

    oracle_rate = ops_per_second(
        lambda: oracle._make_offspring(population, objectives, dominated), 0.5
    )
    production_rate = ops_per_second(
        lambda: production._make_offspring(population, objectives, dominated), 0.5
    )
    speedup = production_rate / oracle_rate
    assert speedup >= MIN_OPERATOR_SPEEDUP, (oracle_rate, production_rate)


def test_traffic_simulator_keeps_its_events_per_second_floor():
    topology = build_topology("ring", 4, 4, wavelength_count=4)
    model = build_traffic_model(
        "poisson", {"offered_load_erlangs": 16.0, "request_count": 20_000}, seed=2017
    )
    allocator = build_online_allocator("first_fit", None, seed=2018)
    simulator = DynamicTrafficSimulator(topology, model, allocator, topology_name="ring")
    started = time.perf_counter()
    report = simulator.run()
    seconds = time.perf_counter() - started
    rate = report.events_processed / seconds
    assert rate >= MIN_TRAFFIC_EVENTS_PER_SECOND, (report.events_processed, seconds)


def test_warm_study_rerun_beats_the_cold_run_tenfold(tmp_path):
    scenarios = [
        Scenario(
            name=f"store-bench-nw{count}",
            wavelength_count=count,
            genetic=GeneticParameters(population_size=32, generations=12),
        )
        for count in (4, 8, 12)
    ]
    path = tmp_path / "bench.sqlite"
    with ResultStore(path) as store:
        started = time.perf_counter()
        cold = Study(scenarios, name="store-bench", store=store).run()
        cold_seconds = time.perf_counter() - started
    with ResultStore(path) as store:
        started = time.perf_counter()
        warm = Study(scenarios, name="store-bench", store=store).run()
        warm_seconds = time.perf_counter() - started
    assert warm.store_misses == 0
    assert [result.to_dict() for result in warm] == [result.to_dict() for result in cold]
    speedup = cold_seconds / warm_seconds
    assert speedup >= MIN_STORE_WARMUP_SPEEDUP, (cold_seconds, warm_seconds)
