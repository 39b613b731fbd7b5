"""The NSGA-II run archive: lazy materialisation and the unique-valid books.

A run keeps every evaluated chromosome as a row of run-wide arrays and builds
an :class:`~repro.allocation.objectives.AllocationSolution` only for the
reported front and the final population; any other valid row is built when a
caller first reads it, always through
:meth:`~repro.allocation.batch.BatchEvaluation.solution`.  These tests count
those calls and pin the archive's contents against the scalar reference replay
of ``tests/oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import ScalarNsga2Replay
from repro.allocation import AllocationEvaluator, BatchEvaluation, Nsga2Optimizer
from repro.allocation.nsga2 import PHASE_METRIC
from repro.application import paper_mapping, paper_task_graph
from repro.config import GeneticParameters
from repro.scenarios.backends import Nsga2Backend, OptimizerParameters
from repro.telemetry import configure_tracing, get_registry, render_prometheus, reset_tracing
from repro.telemetry.report import load_trace
from repro.topology import RingOnocArchitecture

#: The laziness runs: big enough that most valid rows never reach the front.
PARAMETERS = GeneticParameters(population_size=64, generations=30, seed=23)


@pytest.fixture(scope="module")
def paper_evaluator() -> AllocationEvaluator:
    architecture = RingOnocArchitecture.grid(4, 4, wavelength_count=8)
    return AllocationEvaluator(
        architecture, paper_task_graph(), paper_mapping(architecture)
    )


@pytest.fixture
def built(monkeypatch):
    """Gene tuples of every solution built through ``BatchEvaluation.solution``."""
    genes = []
    original = BatchEvaluation.solution

    def counting(self, index):
        solution = original(self, index)
        genes.append(solution.chromosome.genes)
        return solution

    monkeypatch.setattr(BatchEvaluation, "solution", counting)
    return genes


def seeding_rows(evaluator: AllocationEvaluator) -> int:
    """Uniform allocations the optimiser seeds its population with (one build each)."""
    return min(evaluator.wavelength_count, 3)


class TestLazyMaterialisation:
    def test_run_builds_only_front_and_final_population(self, paper_evaluator, built):
        result = Nsga2Optimizer(paper_evaluator, PARAMETERS).run()
        front = {solution.chromosome.genes for solution in result.pareto_solutions}
        population = {solution.chromosome.genes for solution in result.final_population}
        assert len(built) <= len(front | population) + seeding_rows(paper_evaluator)
        # Without the archive every valid row used to be built up front.
        assert len(built) < result.valid_solution_count

    def test_reading_valid_solutions_twice_builds_each_row_once(
        self, paper_evaluator, built
    ):
        exploration = Nsga2Backend().run(
            paper_evaluator, OptimizerParameters(genetic=PARAMETERS)
        )
        result = exploration.nsga2
        already = {solution.chromosome.genes for solution in result.pareto_solutions}
        already |= {
            solution.chromosome.genes
            for solution in result.final_population
            if solution.is_valid
        }
        before = len(built)
        first = exploration.valid_solutions
        assert len(built) - before == result.valid_solution_count - len(already)
        assert len(set(built[before:])) == len(built) - before
        second = exploration.valid_solutions
        assert len(built) - before == result.valid_solution_count - len(already)
        assert all(a is b for a, b in zip(first, second))
        assert len(first) == result.valid_solution_count

    def test_reading_the_valid_count_builds_no_solution(self, paper_evaluator, built):
        exploration = Nsga2Backend().run(
            paper_evaluator, OptimizerParameters(genetic=PARAMETERS)
        )
        before = len(built)
        assert exploration.valid_solution_count == exploration.nsga2.valid_solution_count
        assert exploration.valid_solution_count == len(exploration.solutions)
        assert len(built) == before

    def test_front_and_population_share_their_solutions(self, paper_evaluator):
        result = Nsga2Optimizer(paper_evaluator, PARAMETERS).run()
        by_genes = {
            solution.chromosome.genes: solution for solution in result.pareto_solutions
        }
        shared = [
            solution
            for solution in result.final_population
            if solution.chromosome.genes in by_genes
        ]
        assert shared
        assert all(solution is by_genes[solution.chromosome.genes] for solution in shared)
        assert all(
            result.unique_valid_solutions[genes] is solution
            for genes, solution in by_genes.items()
        )


class TestArchiveContents:
    def test_unique_valid_solutions_match_the_scalar_engine(self, paper_evaluator):
        batch = Nsga2Optimizer(paper_evaluator, PARAMETERS).run()
        scalar = ScalarNsga2Replay(paper_evaluator, PARAMETERS).run()
        assert list(batch.unique_valid_solutions) == list(scalar.unique_valid_solutions)
        for genes, expected in scalar.unique_valid_solutions.items():
            solution = batch.unique_valid_solutions[genes]
            assert solution.chromosome.genes == expected.chromosome.genes == genes
            assert solution.is_valid and expected.is_valid
            assert solution.wavelength_counts == expected.wavelength_counts
            # Durations are exact; BER and energy sum in a different order.
            assert (
                solution.per_communication_duration_kcycles
                == expected.per_communication_duration_kcycles
            )
            for name in ("per_communication_ber", "per_communication_energy_fj"):
                values, reference = getattr(solution, name), getattr(expected, name)
                assert len(values) == len(reference)
                assert all(
                    math.isclose(value, other, rel_tol=1e-12, abs_tol=0.0)
                    for value, other in zip(values, reference)
                )
            assert all(
                math.isclose(value, other, rel_tol=1e-12, abs_tol=0.0)
                for value, other in zip(
                    solution.objective_tuple(), expected.objective_tuple()
                )
            )

    def test_mapping_is_read_only_and_keyed_by_gene_tuples(self, paper_evaluator):
        result = Nsga2Optimizer(
            paper_evaluator, GeneticParameters.smoke_test(seed=4)
        ).run()
        valid = result.unique_valid_solutions
        genes = next(iter(valid))
        assert genes in valid and valid[genes].chromosome.genes == genes
        assert len(list(valid)) == len(valid) == result.valid_solution_count
        missing = tuple(1 - gene for gene in genes)
        for key in (missing, genes[:-1], list(genes), bytes(genes), "genes", (2,) * len(genes)):
            assert key not in valid
            with pytest.raises(KeyError):
                valid[key]
        assert valid.get(missing) is None
        with pytest.raises(TypeError):
            valid[genes] = valid[genes]  # type: ignore[index]

    def test_invalid_final_population_rows_are_materialised(self):
        # Two wavelengths for the paper application: most chromosomes conflict,
        # so invalid rows survive into the final population.
        architecture = RingOnocArchitecture.grid(4, 4, wavelength_count=2)
        evaluator = AllocationEvaluator(
            architecture, paper_task_graph(), paper_mapping(architecture)
        )
        parameters = GeneticParameters(population_size=16, generations=3, seed=1)
        batch = Nsga2Optimizer(evaluator, parameters).run()
        scalar = ScalarNsga2Replay(evaluator, parameters).run()
        assert any(not solution.is_valid for solution in batch.final_population)
        assert len(batch.final_population) == len(scalar.final_population)
        for solution, expected in zip(batch.final_population, scalar.final_population):
            assert solution.chromosome.genes == expected.chromosome.genes
            assert solution.is_valid == expected.is_valid
            assert solution.wavelength_counts == expected.wavelength_counts
            if not expected.is_valid:
                assert solution.validity == expected.validity
                assert not np.isfinite(solution.objective_tuple()).any()


class TestMaterialisePhase:
    def test_end_of_run_materialisation_is_its_own_phase(self, paper_evaluator, tmp_path):
        path = tmp_path / "trace.jsonl"
        configure_tracing(str(path))
        try:
            optimizer = Nsga2Optimizer(paper_evaluator, GeneticParameters.smoke_test(seed=3))
            result = optimizer.run()
        finally:
            reset_tracing()
        stats = optimizer.metrics.histogram_stats(PHASE_METRIC, phase="materialise")
        assert stats["count"] == 1 and stats["sum"] > 0.0
        spans = [record for record in load_trace(str(path)) if record["name"] == "engine.materialise"]
        assert len(spans) == 1
        assert spans[0]["duration"] == pytest.approx(stats["sum"], rel=1e-9)
        # The evaluation phase no longer carries it: the run total is still
        # exactly the per-generation sum.
        assert result.evaluation_seconds == sum(
            record.evaluation_seconds for record in result.history
        )
        assert 'phase="materialise"' in render_prometheus(get_registry())
