"""Tests for the parallel-kernel task graphs (FFT, Gaussian elimination)."""

from __future__ import annotations

import pytest

from repro.allocation import uniform_allocation
from repro.application import fft_task_graph, gaussian_elimination_task_graph
from repro.config import GeneticParameters
from repro.errors import TaskGraphError
from repro.scenarios import Scenario, build_scenario_evaluator, execute_scenario

#: The 4-point FFT butterfly spread over adjacent cores of the 4x4 ring.
def is_acyclic(graph) -> bool:
    """Every task appears once in the topological order and every edge points forward."""
    position = {name: index for index, name in enumerate(graph.topological_order())}
    return len(position) == graph.task_count and all(
        position[edge.source] < position[edge.destination] for edge in graph.communications()
    )


FFT_SCENARIO = Scenario(
    name="fft",
    workload="fft",
    workload_options={"points": 4, "execution_cycles": 1000.0, "volume_bits": 1000.0},
    mapping="round_robin",
    mapping_options={"stride": 1},
)


class TestFftTaskGraph:
    def test_task_and_edge_counts(self):
        graph = fft_task_graph(points=4)
        # 4 inputs + 2 stages x 4 butterflies; each butterfly has 2 inputs.
        assert graph.task_count == 12
        assert graph.communication_count == 16

    def test_eight_point_fft(self):
        graph = fft_task_graph(points=8)
        assert graph.task_count == 8 + 3 * 8
        assert graph.communication_count == 3 * 8 * 2

    def test_is_a_dag_with_log_depth(self):
        graph = fft_task_graph(points=8, execution_cycles=1000.0, volume_bits=500.0)
        assert is_acyclic(graph)
        # Critical path: input + 3 butterfly stages.
        assert graph.critical_path_cycles() == pytest.approx(4000.0)

    def test_entry_and_exit_counts(self):
        graph = fft_task_graph(points=4)
        assert len(graph.entry_tasks()) == 4
        assert len(graph.exit_tasks()) == 4

    def test_butterfly_partners(self):
        graph = fft_task_graph(points=4)
        # Stage 1, index 0 consumes IN_0 and IN_1 (partner bit 0).
        assert set(graph.predecessors("B1_0")) == {"IN_0", "IN_1"}
        # Stage 2, index 0 consumes B1_0 and B1_2 (partner bit 1).
        assert set(graph.predecessors("B2_0")) == {"B1_0", "B1_2"}

    def test_rejects_non_power_of_two(self):
        with pytest.raises(TaskGraphError):
            fft_task_graph(points=6)
        with pytest.raises(TaskGraphError):
            fft_task_graph(points=1)

    def test_allocation_flow_on_paper_ring(self):
        # The butterfly's fan-in makes many transfers concurrent: 4 wavelengths
        # are not enough for a conflict-free single-wavelength assignment, but
        # the paper's 8-wavelength waveguide is.
        result = execute_scenario(
            FFT_SCENARIO.derive(genetic=GeneticParameters.smoke_test())
        ).result
        assert result.pareto_size >= 1
        assert result.best_by("energy").is_valid

    def test_four_wavelengths_are_too_few_for_the_butterfly(self):
        from repro.allocation import first_fit_allocation
        from repro.errors import AllocationError

        evaluator = build_scenario_evaluator(FFT_SCENARIO.derive(wavelength_count=4))
        with pytest.raises(AllocationError):
            first_fit_allocation(evaluator, 1)


class TestGaussianEliminationTaskGraph:
    def test_task_and_edge_counts(self):
        graph = gaussian_elimination_task_graph(size=5)
        # 4 pivots + 4+3+2+1 updates.
        assert graph.task_count == 4 + 10
        # Step 0 has 4 pivot->update edges; step k>0 has 1 pivot input,
        # (4-k) pivot->update edges and (4-k) same-column chains: 4+7+5+3.
        assert graph.communication_count == 19

    def test_is_a_dag(self):
        graph = gaussian_elimination_task_graph(size=6)
        assert is_acyclic(graph)

    def test_single_entry_is_first_pivot(self):
        graph = gaussian_elimination_task_graph(size=5)
        assert graph.entry_tasks() == ["P0"]

    def test_last_update_is_an_exit(self):
        graph = gaussian_elimination_task_graph(size=5)
        assert "U3_4" in graph.exit_tasks()

    def test_pivot_chain_dependencies(self):
        graph = gaussian_elimination_task_graph(size=4)
        assert set(graph.predecessors("P1")) == {"U0_1"}
        assert set(graph.predecessors("U1_2")) == {"P1", "U0_2"}

    def test_critical_path_grows_with_size(self):
        small = gaussian_elimination_task_graph(size=3)
        large = gaussian_elimination_task_graph(size=6)
        assert large.critical_path_cycles() > small.critical_path_cycles()

    def test_rejects_tiny_system(self):
        with pytest.raises(TaskGraphError):
            gaussian_elimination_task_graph(size=1)

    def test_allocation_flow_on_paper_ring(self):
        scenario = Scenario(
            workload="gaussian_elimination",
            workload_options={"size": 5},
            mapping="round_robin",
            mapping_options={"stride": 1},
        )
        solution = uniform_allocation(build_scenario_evaluator(scenario), 1)
        assert solution.is_valid
        assert solution.objectives.execution_time_kcycles > 0.0
