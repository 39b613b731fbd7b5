"""Cross-topology benchmark: throughput and front quality per architecture.

For every registered topology this benchmark measures

* **batch-engine throughput** (evaluations/sec of the vectorized engine on the
  paper workload mapped onto that topology),
* **Pareto front quality** (the 2D time/energy hypervolume of a seeded NSGA-II
  run, normalised per topology against a shared reference point), and
* the **static worst-case link loss** the topology imposes (Li-style
  comparison figure),

and writes them to ``BENCH_topology.json`` — one of the reports the CI
``engine-bench`` smoke job uploads::

    PYTHONPATH=src python benchmarks/bench_topology_comparison.py \
        --output BENCH_topology.json --check

``--check`` asserts that every topology completes its exploration with a
non-empty front and a conflict-free simulation replay, which is exactly the
cross-topology guarantee the test-suite enforces at smaller scale.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.allocation import AllocationEvaluator
from repro.analysis import hypervolume_2d
from repro.application import Mapping, paper_task_graph
from repro.config import GeneticParameters
from repro.scenarios import OptimizerParameters, create_optimizer
from repro.simulation import SimulationVerifier
from repro.topology import TOPOLOGIES, build_topology, worst_case_link_loss_db

#: Per-topology factory options used for the comparison (defaults elsewhere).
TOPOLOGY_OPTIONS = {"multi_ring": {"layers": 2}}

#: Stride of the deterministic task spread; 5 pushes tasks across the layers
#: of the multi-ring stack and across distant crossbar rows/columns.
MAPPING_STRIDE = 5

#: Shared (time, energy) reference point of the hypervolume metric; generous
#: enough to dominate every front any of the topologies produces.
HYPERVOLUME_REFERENCE = (60.0, 20.0)


def _evaluator_for(name: str, wavelength_count: int) -> AllocationEvaluator:
    topology = build_topology(
        name, 4, 4, wavelength_count=wavelength_count,
        options=TOPOLOGY_OPTIONS.get(name, {}),
    )
    graph = paper_task_graph()
    mapping = Mapping.round_robin(graph, topology, stride=MAPPING_STRIDE)
    return AllocationEvaluator(topology, graph, mapping)


def _measure_throughput(
    evaluator: AllocationEvaluator, population: int, min_seconds: float
) -> float:
    batch = evaluator.batch()
    tensor = batch.random_population(population, np.random.default_rng(2017))
    batch.evaluate_population(tensor)  # warm-up
    started = time.perf_counter()
    evaluations = 0
    while time.perf_counter() - started < min_seconds:
        batch.evaluate_population(tensor)
        evaluations += population
    return evaluations / (time.perf_counter() - started)


def measure_topology(
    name: str,
    wavelength_count: int = 8,
    population: int = 64,
    min_seconds: float = 0.3,
    generations: int = 16,
) -> dict:
    """Benchmark one topology end to end and return its report row."""
    evaluator = _evaluator_for(name, wavelength_count)
    throughput = _measure_throughput(evaluator, population, min_seconds)

    backend = create_optimizer("nsga2")
    parameters = OptimizerParameters(
        genetic=GeneticParameters(
            population_size=population, generations=generations, seed=2017
        ),
        objective_keys=("time", "energy"),
    )
    started = time.perf_counter()
    result = backend.run(evaluator, parameters)
    exploration_seconds = time.perf_counter() - started

    front = [
        (
            solution.objectives.execution_time_kcycles,
            solution.objectives.bit_energy_fj,
        )
        for solution in result.pareto_solutions
    ]
    verification = SimulationVerifier.from_evaluator(evaluator).verify_solutions(
        result.pareto_solutions
    )
    return {
        "topology": name,
        "cores": evaluator.architecture.core_count,
        "wavelength_count": wavelength_count,
        "worst_case_link_loss_db": worst_case_link_loss_db(evaluator.architecture),
        "batch_evaluations_per_second": throughput,
        "exploration_seconds": exploration_seconds,
        "valid_solution_count": result.valid_solution_count,
        "pareto_size": result.pareto_size,
        "pareto_hypervolume_time_energy": hypervolume_2d(
            front, HYPERVOLUME_REFERENCE
        ),
        "replay_divergences": verification.divergence_count,
        "replay_conflicts": verification.conflict_count,
    }


def measure_all(**kwargs) -> dict:
    """Benchmark every registered topology into one comparison report."""
    return {
        "hypervolume_reference": list(HYPERVOLUME_REFERENCE),
        "topologies": [measure_topology(name, **kwargs) for name in TOPOLOGIES.names()],
    }


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Compare throughput and front quality across ONoC topologies."
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_topology.json"),
        help="where to write the JSON report (default: BENCH_topology.json)",
    )
    parser.add_argument(
        "--population", type=int, default=64, help="GA/batch population size"
    )
    parser.add_argument(
        "--generations", type=int, default=16, help="NSGA-II generations per topology"
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.3,
        help="minimum throughput measurement window per topology",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when any topology yields an empty front or a "
        "diverging simulation replay",
    )
    arguments = parser.parse_args()

    report = measure_all(
        population=arguments.population,
        generations=arguments.generations,
        min_seconds=arguments.min_seconds,
    )
    arguments.output.write_text(json.dumps(report, indent=2) + "\n")
    failures = []
    for row in report["topologies"]:
        print(
            f"{row['topology']:<10} {row['batch_evaluations_per_second']:>9.0f} evals/s, "
            f"front {row['pareto_size']:>3d}, "
            f"hypervolume {row['pareto_hypervolume_time_energy']:>7.1f}, "
            f"worst-case loss {row['worst_case_link_loss_db']:.2f} dB, "
            f"{row['replay_divergences']} replay divergences"
        )
        if row["pareto_size"] < 1 or row["replay_divergences"] or row["replay_conflicts"]:
            failures.append(row["topology"])
    print(f"-> {arguments.output}")
    if arguments.check and failures:
        raise SystemExit(
            f"topologies failing the front/replay check: {', '.join(failures)}"
        )


if __name__ == "__main__":
    main()
