"""Unit tests for the NSGA-II optimiser."""

from __future__ import annotations

import numpy as np
import pytest

from repro.allocation import Chromosome, Nsga2Optimizer
from repro.allocation.pareto import dominates
from repro.config import GeneticParameters
from repro.errors import AllocationError


@pytest.fixture
def optimizer(evaluator, smoke_ga) -> Nsga2Optimizer:
    return Nsga2Optimizer(evaluator, smoke_ga)


class TestConfiguration:
    def test_default_objectives_are_all_three(self, evaluator, smoke_ga):
        optimizer = Nsga2Optimizer(evaluator, smoke_ga)
        assert optimizer.objective_keys == ("time", "ber", "energy")

    def test_objective_subset(self, evaluator, smoke_ga):
        optimizer = Nsga2Optimizer(evaluator, smoke_ga, objective_keys=("time", "energy"))
        assert optimizer.objective_keys == ("time", "energy")

    def test_unknown_objective_rejected(self, evaluator, smoke_ga):
        with pytest.raises(AllocationError):
            Nsga2Optimizer(evaluator, smoke_ga, objective_keys=("time", "area"))

    def test_empty_objectives_rejected(self, evaluator, smoke_ga):
        with pytest.raises(AllocationError):
            Nsga2Optimizer(evaluator, smoke_ga, objective_keys=())


class TestRun:
    def test_run_produces_valid_solutions_and_history(self, optimizer, smoke_ga):
        result = optimizer.run()
        assert result.valid_solution_count > 0
        assert len(result.final_population) == smoke_ga.population_size
        assert len(result.history) == smoke_ga.generations + 1
        assert result.evaluations > 0

    def test_front_members_are_valid_and_mutually_non_dominated(self, optimizer):
        result = optimizer.run()
        assert len(result.pareto_front) >= 1
        for solution, _ in result.pareto_front:
            assert solution.is_valid
        objectives = list(result.pareto_front.objectives)
        for first in objectives:
            for second in objectives:
                assert not dominates(first, second) or first == second

    def test_front_contains_the_single_wavelength_anchor(self, optimizer):
        # The seeded [1, 1, ..., 1] allocation must survive as the energy optimum.
        result = optimizer.run()
        best_energy = result.best_by("energy")
        assert best_energy.wavelength_counts == (1,) * 6

    def test_best_by_unknown_objective_raises(self, evaluator, smoke_ga):
        optimizer = Nsga2Optimizer(evaluator, smoke_ga, objective_keys=("time", "energy"))
        result = optimizer.run()
        with pytest.raises(AllocationError):
            result.best_by("ber")

    def test_reproducible_with_same_seed(self, evaluator):
        parameters = GeneticParameters.smoke_test(seed=99)
        first = Nsga2Optimizer(evaluator, parameters).run()
        second = Nsga2Optimizer(evaluator, parameters).run()
        assert first.valid_solution_count == second.valid_solution_count
        assert first.pareto_front.objectives == second.pareto_front.objectives

    def test_different_seeds_explore_differently(self, evaluator):
        first = Nsga2Optimizer(evaluator, GeneticParameters.smoke_test(seed=1)).run()
        second = Nsga2Optimizer(evaluator, GeneticParameters.smoke_test(seed=2)).run()
        assert (
            first.unique_valid_solutions.keys() != second.unique_valid_solutions.keys()
            or first.pareto_front.objectives != second.pareto_front.objectives
        )

    def test_history_front_size_is_non_decreasing(self, optimizer):
        result = optimizer.run()
        sizes = [record.front_size for record in result.history]
        assert all(later >= earlier for earlier, later in zip(sizes, sizes[1:]))

    def test_more_generations_do_not_hurt_best_time(self, evaluator):
        short = Nsga2Optimizer(evaluator, GeneticParameters(population_size=16, generations=2, seed=5)).run()
        long = Nsga2Optimizer(evaluator, GeneticParameters(population_size=16, generations=20, seed=5)).run()
        assert (
            long.best_by("time").objectives.execution_time_kcycles
            <= short.best_by("time").objectives.execution_time_kcycles + 1e-9
        )

    def test_pareto_solutions_sorted_by_first_objective(self, optimizer):
        result = optimizer.run()
        times = [s.objectives.execution_time_kcycles for s in result.pareto_solutions]
        assert times == sorted(times)


class TestOperators:
    """The matrix operator one generation of the run uses: ``_make_offspring``."""

    @staticmethod
    def offspring(evaluator, population, **probabilities):
        optimizer = Nsga2Optimizer(
            evaluator,
            GeneticParameters(population_size=len(population), generations=1, **probabilities),
        )
        objectives = np.random.default_rng(3).random((len(population), 3))
        return optimizer._make_offspring(population, objectives)

    @staticmethod
    def random_population(evaluator, size, seed):
        rng = np.random.default_rng(seed)
        return np.stack(
            [evaluator.random_chromosome(rng).as_array().reshape(-1) for _ in range(size)]
        ).astype(np.uint8)

    def test_crossover_preserves_shape_and_genes(self, evaluator):
        population = self.random_population(evaluator, 16, seed=0)
        children = self.offspring(evaluator, population, mutation_probability=0.0)
        assert children.shape == population.shape
        # Without mutation every child pair is a position-wise swap of two
        # parents: each gene position comes from one of them, and the pair
        # keeps both parents' genes at that position.
        for first, second in zip(children[0::2], children[1::2]):
            pair = np.sort(np.stack([first, second]), axis=0)
            assert any(
                np.array_equal(pair, np.sort(np.stack([parent_a, parent_b]), axis=0))
                for parent_a in population
                for parent_b in population
            )

    def test_mutation_changes_at_least_one_gene(self, evaluator):
        # Identical parents and no crossover: any difference is a mutation.
        parent = self.random_population(evaluator, 1, seed=1)[0]
        population = np.tile(parent, (16, 1))
        children = self.offspring(evaluator, population, crossover_probability=0.0)
        assert children.shape == population.shape
        assert (children != parent).any(axis=1).all()

    def test_zero_mutation_probability_is_identity(self, evaluator):
        population = self.random_population(evaluator, 16, seed=2)
        children = self.offspring(
            evaluator, population, crossover_probability=0.0, mutation_probability=0.0
        )
        # Every child is an unchanged copy of a tournament winner.
        parents = {row.tobytes() for row in population}
        assert all(child.tobytes() in parents for child in children)
