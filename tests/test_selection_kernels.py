"""Equivalence and telemetry tests of the vectorized Pareto selection kernels.

The selection path mirrors the batch/scalar evaluator split: the pure-Python
sort/crowding kernels of ``tests/oracles.py`` and sequential
:meth:`ParetoFront.add` are the semantic oracle, the NumPy kernels must
reproduce them *exactly* — fronts in identical index order, crowding distances
to 0 ulp, Pareto-front membership and item order bit for bit.  The randomized
suite here drives both through objective matrices with ``inf`` rows, duplicate
vectors, 1–4 objectives and degenerate sizes.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import ScalarNsga2Replay, crowding_distance_python, non_dominated_sort_python
from repro.allocation import (
    AllocationEvaluator,
    Nsga2Optimizer,
    ParetoFront,
    crowding_distance,
    dominance_matrix,
    dominates,
    non_dominated_sort,
    nsga2,
    pareto,
)
from repro.allocation.exhaustive import exhaustive_pareto_front
from repro.analysis import coverage
from repro.application import paper_mapping, paper_task_graph
from repro.config import GeneticParameters
from repro.scenarios import Scenario, execute_scenario
from repro.topology import RingOnocArchitecture


def random_objective_matrix(
    rng: np.random.Generator, count: int, objectives: int
) -> np.ndarray:
    """A GA-shaped pool: random points plus inf rows, duplicates and ties."""
    matrix = rng.uniform(0.0, 10.0, size=(count, objectives))
    if count:
        for _ in range(int(rng.integers(0, max(count // 8, 1) + 1))):
            matrix[rng.integers(0, count)] = np.inf  # invalid chromosomes
        for _ in range(int(rng.integers(0, max(count // 4, 1) + 1))):
            matrix[rng.integers(0, count)] = matrix[rng.integers(0, count)]
        if rng.random() < 0.5:
            matrix = np.round(matrix, 1)  # force plenty of per-objective ties
    return matrix


class TestDominanceMatrix:
    def test_matches_pairwise_dominates(self):
        rng = np.random.default_rng(3)
        matrix = random_objective_matrix(rng, 25, 3)
        table = dominance_matrix(matrix)
        for p in range(25):
            for q in range(25):
                expected = p != q and dominates(tuple(matrix[p]), tuple(matrix[q]))
                assert bool(table[p, q]) == expected

    def test_rejects_non_matrix_input(self):
        with pytest.raises(ValueError):
            dominance_matrix(np.zeros(4))


class TestSortEquivalence:
    @pytest.mark.parametrize("objectives", [1, 2, 3, 4])
    def test_randomized_fronts_identical(self, objectives):
        rng = np.random.default_rng(100 + objectives)
        for _ in range(60):
            count = int(rng.integers(0, 70))
            matrix = random_objective_matrix(rng, count, objectives)
            oracle = non_dominated_sort_python([tuple(row) for row in matrix])
            assert non_dominated_sort(matrix) == oracle
            assert non_dominated_sort([tuple(row) for row in matrix]) == oracle

    def test_dispatch_engines_agree(self):
        # The array kernel serves both input forms; each must match the oracle.
        rng = np.random.default_rng(7)
        matrix = random_objective_matrix(rng, 40, 3)
        rows = [tuple(row) for row in matrix]
        oracle = non_dominated_sort_python(rows)
        assert non_dominated_sort(matrix) == oracle
        assert non_dominated_sort(rows) == oracle

    def test_empty_and_single(self):
        assert non_dominated_sort(np.zeros((0, 3))) == []
        assert non_dominated_sort([]) == []
        assert non_dominated_sort(np.asarray([[1.0, 2.0]])) == [[0]]

    def test_all_infinite_rows(self):
        matrix = np.full((4, 3), np.inf)
        assert non_dominated_sort(matrix) == non_dominated_sort_python(
            [tuple(row) for row in matrix]
        )


class TestCrowdingEquivalence:
    @pytest.mark.parametrize("objectives", [1, 2, 3, 4])
    def test_randomized_distances_bit_identical(self, objectives):
        rng = np.random.default_rng(200 + objectives)
        for _ in range(60):
            count = int(rng.integers(0, 70))
            matrix = random_objective_matrix(rng, count, objectives)
            oracle = crowding_distance_python([tuple(row) for row in matrix])
            # np.array_equal treats equal inf as equal and NaN as unequal, so
            # this is an exact 0-ulp comparison.
            assert np.array_equal(oracle, crowding_distance(matrix))
            assert np.array_equal(oracle, crowding_distance([tuple(row) for row in matrix]))

    def test_degenerate_fronts(self):
        assert crowding_distance(np.zeros((0, 2))).size == 0
        assert crowding_distance([]).size == 0
        assert np.array_equal(
            crowding_distance(np.asarray([[1.0, 2.0]])),
            crowding_distance_python([(1.0, 2.0)]),
        )
        duplicate = np.asarray([[1.0, 1.0]] * 4)
        assert np.array_equal(
            crowding_distance(duplicate),
            crowding_distance_python([tuple(row) for row in duplicate]),
        )


class TestFrontBatchedExtend:
    def sequential(self, matrix: np.ndarray) -> ParetoFront:
        front: ParetoFront[int] = ParetoFront()
        for index, row in enumerate(matrix):
            front.add(index, tuple(row))
        return front

    @pytest.mark.parametrize("objectives", [1, 2, 3, 4])
    def test_randomized_state_identical_to_sequential_adds(self, objectives):
        rng = np.random.default_rng(300 + objectives)
        for _ in range(60):
            count = int(rng.integers(0, 50))
            matrix = random_objective_matrix(rng, count, objectives)
            expected = self.sequential(matrix)
            batched: ParetoFront[int] = ParetoFront()
            batched.extend_array(matrix, list(range(count)))
            assert batched.items == expected.items
            assert batched.objectives == expected.objectives

    def test_incremental_batches_against_populated_front(self):
        rng = np.random.default_rng(11)
        matrix = random_objective_matrix(rng, 48, 3)
        expected = self.sequential(matrix)
        batched: ParetoFront[int] = ParetoFront()
        for start in range(0, 48, 12):
            block = matrix[start : start + 12]
            batched.extend_array(block, list(range(start, start + len(block))))
        assert batched.items == expected.items
        assert batched.objectives == expected.objectives

    def test_insert_count_reports_final_members(self):
        front: ParetoFront[str] = ParetoFront()
        # "b" dominates "a": only "b" is part of the front afterwards.
        inserted = front.extend_array(
            np.asarray([[2.0, 2.0], [1.0, 1.0], [3.0, 3.0]]), ["a", "b", "c"]
        )
        assert inserted == 1
        assert front.items == ["b"]

    def test_empty_batch_is_a_no_op(self):
        front: ParetoFront[str] = ParetoFront()
        front.add("a", (1.0, 2.0))
        assert front.extend_array([], []) == 0
        assert front.items == ["a"]

    def test_shape_errors(self):
        front: ParetoFront[str] = ParetoFront()
        with pytest.raises(ValueError):
            front.extend_array(np.zeros((2, 2)), ["only-one"])
        front.add("a", (1.0, 2.0))
        with pytest.raises(ValueError):
            front.extend_array(np.zeros((1, 3)), ["wrong-width"])


def broadcast_dominance_matrix(matrix: np.ndarray) -> np.ndarray:
    """The historical ``(N, N, M)`` broadcast the column-wise kernel replaced."""
    no_worse = (matrix[:, None, :] <= matrix[None, :, :]).all(axis=-1)
    return no_worse & ~no_worse.T


#: Pool sizes of the kernel equivalence checks: degenerate up to a paper pool.
POOL_SIZES = [0, 1, 2, 50, 800]


class TestColumnwiseKernel:
    """The column-wise comparison kernel against the broadcast reference."""

    @pytest.mark.parametrize("objectives", [1, 2, 3, 4])
    @pytest.mark.parametrize("count", POOL_SIZES)
    def test_dominance_matrix_equals_broadcast(self, count, objectives):
        rng = np.random.default_rng(1000 * count + objectives)
        for _ in range(3):
            matrix = random_objective_matrix(rng, count, objectives)
            table = dominance_matrix(matrix)
            assert table.dtype == bool and table.shape == (count, count)
            assert np.array_equal(table, broadcast_dominance_matrix(matrix))

    @pytest.mark.parametrize("objectives", [1, 2, 3, 4])
    @pytest.mark.parametrize("count", POOL_SIZES)
    def test_sort_on_a_submatrix_equals_a_fresh_sort(self, count, objectives):
        rng = np.random.default_rng(2000 * count + objectives)
        matrix = random_objective_matrix(rng, count, objectives)
        dominated = dominance_matrix(matrix)
        for _ in range(3):
            # A random subset in random order, like NSGA-II's survivors.
            selected = rng.permutation(count)[: int(rng.integers(0, count + 1))]
            subset = matrix[selected]
            block = dominated[np.ix_(selected, selected)]
            assert non_dominated_sort(subset, dominated=block) == non_dominated_sort(subset)

    @pytest.mark.parametrize("objectives", [1, 2, 3, 4])
    @pytest.mark.parametrize("count", POOL_SIZES)
    def test_extend_array_equals_sequential_adds(self, count, objectives):
        rng = np.random.default_rng(3000 * count + objectives)
        matrix = random_objective_matrix(rng, count, objectives)
        expected: ParetoFront[int] = ParetoFront()
        for index, row in enumerate(matrix):
            expected.add(index, tuple(row))
        batched: ParetoFront[int] = ParetoFront()
        half = count // 2  # the second half meets a populated front
        batched.extend_array(matrix[:half], list(range(half)))
        batched.extend_array(matrix[half:], list(range(half, count)))
        assert batched.items == expected.items
        assert batched.objectives == expected.objectives

    def test_mismatched_domination_matrix_rejected(self):
        matrix = np.asarray([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]])
        with pytest.raises(ValueError):
            non_dominated_sort(matrix, dominated=dominance_matrix(matrix[:2]))


class TestConsumerRegression:
    """The fast path must not change what exhaustive search and analysis report."""

    def test_exhaustive_front_matches_sequential_oracle(self):
        architecture = RingOnocArchitecture.grid(2, 2, wavelength_count=2)
        from repro.application import Mapping, pipeline_task_graph

        evaluator = AllocationEvaluator(
            architecture,
            pipeline_task_graph(stage_count=3),
            Mapping.from_dict({"S0": 0, "S1": 1, "S2": 3}),
        )
        front, valid_count = exhaustive_pareto_front(evaluator)
        oracle: ParetoFront = ParetoFront()
        batch = evaluator.batch()
        from repro.allocation.exhaustive import iter_gene_batches

        count = 0
        for genes in iter_gene_batches(
            evaluator.communication_count, evaluator.wavelength_count
        ):
            evaluation = batch.evaluate_population(genes)
            for index in np.flatnonzero(evaluation.valid):
                solution = evaluation.solution(int(index))
                oracle.add(solution, solution.objective_tuple(("time", "ber", "energy")))
            count += evaluation.valid_count
        assert valid_count == count
        assert front.objectives == oracle.objectives
        assert [s.chromosome.genes for s, _ in front] == [
            s.chromosome.genes for s, _ in oracle
        ]

    def test_exhaustive_scenario_output_unchanged(self):
        scenario = (
            Scenario.builder()
            .named("exhaustive-regression")
            .grid(2, 2)
            .wavelengths(2)
            .workload("pipeline", stage_count=3)
            .mapping("round_robin")
            .optimizer("exhaustive")
            .build()
        )
        summary = execute_scenario(scenario).summary()
        assert summary.evaluations == 9  # (2^2 - 1)^2 candidates
        assert summary.pareto_size >= 1
        assert summary.valid_solution_count >= summary.pareto_size

    def test_coverage_matches_pairwise_dominates_loop(self):
        rng = np.random.default_rng(17)
        first = rng.uniform(0, 10, size=(20, 2))
        second = rng.uniform(0, 10, size=(30, 2))
        second[5] = first[3]  # equal point: must not count as dominated
        expected = sum(
            1
            for candidate in second
            if any(dominates(tuple(point), tuple(candidate)) for point in first)
        ) / len(second)
        assert coverage(first, second) == expected
        assert coverage([], second) == 0.0
        assert coverage(first, []) == 0.0


@pytest.fixture
def paper_evaluator() -> AllocationEvaluator:
    architecture = RingOnocArchitecture.grid(4, 4, wavelength_count=8)
    return AllocationEvaluator(
        architecture, paper_task_graph(), paper_mapping(architecture)
    )


class TestPhaseTelemetry:
    def test_generation_records_split_phases(self, paper_evaluator):
        parameters = GeneticParameters.smoke_test(seed=13)
        result = Nsga2Optimizer(paper_evaluator, parameters).run()
        for record in result.history:
            assert record.evaluation_seconds >= 0.0
            assert record.selection_seconds >= 0.0
            assert record.operator_seconds >= 0.0
            accounted = (
                record.evaluation_seconds
                + record.selection_seconds
                + record.operator_seconds
            )
            assert accounted <= record.wall_clock_seconds + 1e-4
        # Generation 0 evaluates but runs no operators.
        assert result.history[0].evaluation_seconds > 0.0
        assert result.history[0].operator_seconds == 0.0
        # Later generations exercise every phase.
        assert any(record.selection_seconds > 0.0 for record in result.history[1:])
        assert any(record.operator_seconds > 0.0 for record in result.history[1:])

    def test_run_totals_are_history_sums(self, paper_evaluator):
        result = Nsga2Optimizer(
            paper_evaluator, GeneticParameters.smoke_test(seed=5)
        ).run()
        assert result.evaluation_seconds == sum(
            record.evaluation_seconds for record in result.history
        )
        assert result.selection_seconds == sum(
            record.selection_seconds for record in result.history
        )
        assert result.operator_seconds == sum(
            record.operator_seconds for record in result.history
        )
        assert result.evaluation_seconds > 0.0
        assert result.selection_seconds > 0.0

    def test_scenario_result_surfaces_phase_seconds(self, tmp_path):
        scenario = (
            Scenario.builder()
            .named("profiled")
            .grid(4, 4)
            .wavelengths(4)
            .genetic(population_size=8, generations=3)
            .seed(11)
            .build()
        )
        summary = execute_scenario(scenario).summary()
        assert summary.evaluation_seconds > 0.0
        assert summary.selection_seconds > 0.0
        row = summary.summary_row()
        assert row["evaluation_seconds"] == summary.evaluation_seconds
        assert row["selection_seconds"] == summary.selection_seconds
        assert row["operator_seconds"] == summary.operator_seconds
        rebuilt = type(summary).from_dict(summary.to_dict())
        assert rebuilt.evaluation_seconds == summary.evaluation_seconds
        assert rebuilt.selection_seconds == summary.selection_seconds
        assert rebuilt.operator_seconds == summary.operator_seconds
        # The wall-clock phase split must not break determinism comparisons.
        assert "selection_seconds" not in summary.comparable_dict()


class TestScalarEngineKernels:
    def test_scalar_replay_routes_through_the_oracles(self, paper_evaluator, monkeypatch):
        """Every replay evaluation is a scalar one, made under the Python kernels."""
        original = AllocationEvaluator.evaluate
        calls = []

        def counting(self, chromosome):
            calls.append(
                nsga2.non_dominated_sort is not pareto.non_dominated_sort
                and nsga2.crowding_distance is crowding_distance_python
            )
            return original(self, chromosome)

        monkeypatch.setattr(AllocationEvaluator, "evaluate", counting)
        parameters = GeneticParameters.smoke_test(seed=42)
        result = ScalarNsga2Replay(paper_evaluator, parameters).run()
        assert result.evaluations > 0
        assert len(calls) == result.evaluations
        assert all(calls)
        # The production bindings are back once the replay ends.
        assert nsga2.non_dominated_sort is pareto.non_dominated_sort
        assert nsga2.crowding_distance is pareto.crowding_distance
        calls.clear()
        Nsga2Optimizer(paper_evaluator, parameters).run()
        assert calls == []

    def test_engines_walk_identical_selection_trajectories(self, paper_evaluator):
        parameters = GeneticParameters.smoke_test(seed=42)
        batch = Nsga2Optimizer(paper_evaluator, parameters).run()
        scalar = ScalarNsga2Replay(paper_evaluator, parameters).run()
        # The run-wide fronts hold the same solutions; objectives only differ
        # by the evaluator engines' floating-point summation order (≤1 ulp),
        # exactly as the batch-vs-scalar evaluator goldens allow.
        assert sorted(s.chromosome.genes for s, _ in batch.pareto_front) == sorted(
            s.chromosome.genes for s, _ in scalar.pareto_front
        )
        assert np.allclose(
            np.array(sorted(batch.pareto_front.objectives)),
            np.array(sorted(scalar.pareto_front.objectives)),
        )
