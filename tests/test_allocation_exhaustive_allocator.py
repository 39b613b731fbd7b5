"""Tests for the exhaustive search and the exploration result of a scenario run."""

from __future__ import annotations

import hashlib
import json

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


def accessor_view(result):
    """Every reporting accessor of an exploration result, as plain JSON data."""

    def genes(solution):
        return list(solution.chromosome.genes)

    keys = result.objective_keys
    return {
        "pareto_front": [[genes(s), list(v)] for s, v in result.pareto_front],
        "pareto_solutions": [genes(s) for s in result.pareto_solutions],
        "valid_solution_count": result.valid_solution_count,
        "pareto_size": result.pareto_size,
        "valid_solutions": [
            [genes(s), s.objective_tuple(keys)] for s in result.valid_solutions
        ],
        "best_by": {key: genes(result.best_by(key)) for key in keys},
        "best_objective_values": list(result.best_objective_values()),
        "summary_rows": result.summary_rows(),
        "front_series": result.front_series("time", "log_ber"),
        "evaluation_count": result.evaluation_count,
        "memo_hit_count": result.memo_hit_count,
        "backend": result.backend,
    }


class TestOneResultShape:
    """Every backend fills the same fields; the accessors only read them."""

    #: SHA-256 prefixes of :func:`accessor_view`, recorded when an NSGA-II
    #: result still answered each accessor from its raw run.
    PINNED = {
        "nsga2": ("bc86cf6bd688bf49", {}),
        "first_fit": ("2ea200b572c3b43b", {"sweep": [1, 2, 3]}),
    }

    @pytest.mark.parametrize("optimizer", sorted(PINNED))
    def test_accessors_return_the_pinned_values(self, optimizer):
        digest, options = self.PINNED[optimizer]
        scenario = Scenario(
            name="acc",
            optimizer=optimizer,
            optimizer_options=options,
            genetic=GeneticParameters(population_size=16, generations=4),
        )
        result = execute_scenario(scenario).result
        text = json.dumps(accessor_view(result), sort_keys=True, default=float)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_nsga2_fields_are_the_runs_own(self):
        scenario = Scenario(genetic=GeneticParameters(population_size=16, generations=4))
        result = execute_scenario(scenario).result
        run = result.nsga2
        assert result.front is run.pareto_front
        assert result.solutions is run.unique_valid_solutions
        assert result.valid_count == run.valid_solution_count
        assert (result.evaluations, result.memo_hits) == (run.evaluations, run.memo_hits)
        assert all(a is b for a, b in zip(result.pareto_solutions, run.pareto_solutions))
        for key in result.objective_keys:
            assert result.best_by(key) is run.best_by(key)
