"""Tests for the exhaustive search and the exploration result of a scenario run."""

from __future__ import annotations

import pytest

from repro.allocation import (
    AllocationEvaluator,
    Chromosome,
    Nsga2Optimizer,
    exhaustive_pareto_front,
    uniform_allocation,
)
from repro.allocation.exhaustive import enumerate_chromosomes
from repro.application import Mapping, pipeline_task_graph
from repro.config import GeneticParameters
from repro.errors import AllocationError
from repro.scenarios import Scenario, build_scenario_evaluator, execute_scenario
from repro.topology import RingOnocArchitecture


@pytest.fixture
def tiny_evaluator() -> AllocationEvaluator:
    """A three-stage pipeline on a 2x2 ring with 3 wavelengths: 49 candidate chromosomes."""
    architecture = RingOnocArchitecture.grid(2, 2, wavelength_count=3)
    graph = pipeline_task_graph(stage_count=3, execution_cycles=2000.0, volume_bits=3000.0)
    mapping = Mapping.from_dict({"S0": 0, "S1": 1, "S2": 3})
    return AllocationEvaluator(architecture, graph, mapping)


class TestEnumeration:
    def test_enumeration_skips_empty_communications(self):
        chromosomes = list(enumerate_chromosomes(2, 2))
        # Each communication independently picks a non-empty subset of 2 channels: 3 * 3.
        assert len(chromosomes) == 9
        assert all(not chromosome.has_empty_communication() for chromosome in chromosomes)

    def test_enumeration_has_no_duplicates(self):
        chromosomes = list(enumerate_chromosomes(2, 3))
        assert len({c.genes for c in chromosomes}) == len(chromosomes)
        assert len(chromosomes) == 49

    def test_space_guard(self):
        with pytest.raises(AllocationError):
            list(enumerate_chromosomes(10, 10))


class TestExhaustiveFront:
    def test_front_is_non_empty_and_counts_valid_solutions(self, tiny_evaluator):
        front, valid_count = exhaustive_pareto_front(tiny_evaluator)
        assert valid_count > 0
        assert 1 <= len(front) <= valid_count

    def test_ga_front_is_not_dominated_by_exhaustive_optimum(self, tiny_evaluator):
        true_front, _ = exhaustive_pareto_front(
            tiny_evaluator, objective_keys=("time", "energy")
        )
        optimizer = Nsga2Optimizer(
            tiny_evaluator,
            GeneticParameters(population_size=16, generations=15, seed=4),
            objective_keys=("time", "energy"),
        )
        result = optimizer.run()
        # On this tiny instance the GA must recover the true extreme points.
        true_best_time = min(obj[0] for obj in true_front.objectives)
        true_best_energy = min(obj[1] for obj in true_front.objectives)
        ga_best_time = result.best_by("time").objectives.execution_time_kcycles
        ga_best_energy = result.best_by("energy").objectives.bit_energy_fj
        assert ga_best_time == pytest.approx(true_best_time)
        assert ga_best_energy == pytest.approx(true_best_energy, rel=1e-6)


@pytest.fixture(scope="module")
def paper_outcome():
    """The paper setup at 8 wavelengths, explored by a smoke-sized NSGA-II."""
    return execute_scenario(Scenario(genetic=GeneticParameters.smoke_test()))


class TestScenarioExploration:
    def test_explore_returns_consistent_result(self, paper_outcome):
        result = paper_outcome.result
        assert result.wavelength_count == 8
        assert result.valid_solution_count == len(result.valid_solutions)
        assert result.pareto_size == len(result.pareto_front)
        assert len(paper_outcome.pareto_rows()) == result.pareto_size

    def test_summary_rows_have_expected_columns(self, paper_outcome):
        rows = paper_outcome.pareto_rows()
        assert rows
        assert set(rows[0]) == {
            "wavelength_count",
            "allocation",
            "execution_time_kcycles",
            "bit_energy_fj",
            "mean_ber",
            "log10_ber",
        }

    def test_front_for_projection_is_subset_of_valid_solutions(self, paper_outcome):
        result = paper_outcome.result
        projected = result.front_for(("time", "energy"))
        valid_keys = {solution.chromosome.genes for solution in result.valid_solutions}
        assert len(projected) >= 1
        for solution, _ in projected:
            assert solution.chromosome.genes in valid_keys

    def test_front_for_same_keys_returns_run_front(self, paper_outcome):
        result = paper_outcome.result
        assert result.front_for(result.objective_keys) is result.nsga2.pareto_front

    def test_evaluate_shortcuts(self):
        evaluator = build_scenario_evaluator(Scenario())
        chromosome = Chromosome.from_allocation(
            [(0,), (1,), (2,), (3,), (4,), (5,)], evaluator.wavelength_count
        )
        direct = evaluator.evaluate(chromosome)
        via_allocation = evaluator.evaluate_allocation(chromosome.allocation())
        assert direct.objectives == via_allocation.objectives

    def test_evaluate_uniform(self):
        solution = uniform_allocation(build_scenario_evaluator(Scenario()), 1)
        assert solution.is_valid
        assert solution.wavelength_counts == (1,) * 6

    def test_baseline_solutions_cover_every_heuristic(self):
        for name in ("first_fit", "most_used", "least_used", "random"):
            result = execute_scenario(Scenario(optimizer=name)).result
            # Invalid heuristic picks never reach the front: one valid point each.
            assert result.backend == name
            assert len(result.pareto_solutions) == 1
            assert result.pareto_solutions[0].is_valid

    def test_best_by_each_objective(self, paper_outcome):
        result = paper_outcome.result
        fastest = result.best_by("time")
        greenest = result.best_by("energy")
        assert (
            fastest.objectives.execution_time_kcycles
            <= greenest.objectives.execution_time_kcycles
        )
        assert greenest.objectives.bit_energy_fj <= fastest.objectives.bit_energy_fj
