"""Unit tests for the task graph model (Definition 1)."""

from __future__ import annotations

import math

import pytest

from repro.application import TaskGraph, paper_task_graph
from repro.errors import TaskGraphError


@pytest.fixture
def diamond() -> TaskGraph:
    graph = TaskGraph(name="diamond")
    graph.add_tasks([("A", 1000.0), ("B", 2000.0), ("C", 3000.0), ("D", 1000.0)])
    graph.add_communication("A", "B", 500.0)
    graph.add_communication("A", "C", 700.0)
    graph.add_communication("B", "D", 900.0)
    graph.add_communication("C", "D", 1100.0)
    return graph


class TestConstruction:
    def test_counts(self, diamond):
        assert diamond.task_count == 4
        assert diamond.communication_count == 4

    def test_duplicate_task_rejected(self, diamond):
        with pytest.raises(TaskGraphError):
            diamond.add_task("A", 1.0)

    def test_duplicate_edge_rejected(self, diamond):
        with pytest.raises(TaskGraphError):
            diamond.add_communication("A", "B", 1.0)

    def test_edge_to_unknown_task_rejected(self, diamond):
        with pytest.raises(TaskGraphError):
            diamond.add_communication("A", "Z", 1.0)

    def test_cycle_rejected_and_rolled_back(self, diamond):
        with pytest.raises(TaskGraphError):
            diamond.add_communication("D", "A", 1.0)
        # The offending edge must not linger in the graph.
        assert diamond.communication_count == 4
        assert "A" not in diamond.successors("D")

    def test_shortcut_across_a_path_is_no_cycle(self, diamond):
        # A already reaches D through B and C; a direct A -> D edge is fine.
        edge = diamond.add_communication("A", "D", 1.0)
        assert edge.index == 4
        assert diamond.predecessors("D") == ["B", "C", "A"]
        assert diamond.topological_order() == ["A", "B", "C", "D"]

    def test_self_loop_rejected(self, diamond):
        with pytest.raises(TaskGraphError):
            diamond.add_communication("A", "A", 1.0)

    def test_zero_volume_rejected(self, diamond):
        with pytest.raises(TaskGraphError):
            diamond.add_communication("B", "C", 0.0)

    def test_negative_execution_time_rejected(self):
        graph = TaskGraph()
        with pytest.raises(TaskGraphError):
            graph.add_task("bad", -1.0)

    def test_empty_task_name_rejected(self):
        with pytest.raises(TaskGraphError):
            TaskGraph().add_task("", 1.0)

    @pytest.mark.parametrize("cycles", [math.nan, math.inf])
    def test_non_finite_execution_time_rejected(self, cycles):
        # NaN compares false against every bound, so only a range check
        # refuses it; a NaN delay would pass the engine's past-time check too.
        with pytest.raises(TaskGraphError, match="finite and non-negative"):
            TaskGraph().add_task("bad", cycles)

    @pytest.mark.parametrize("volume", [math.nan, math.inf])
    def test_non_finite_volume_rejected(self, diamond, volume):
        with pytest.raises(TaskGraphError, match="finite and positive"):
            diamond.add_communication("B", "C", volume)
        assert diamond.communication_count == 4

    @pytest.mark.parametrize("cycles", [True, False])
    def test_boolean_execution_time_rejected(self, cycles):
        # True would pass the range check as 1 cycle.
        with pytest.raises(TaskGraphError, match="must be a number"):
            TaskGraph().add_task("bad", cycles)

    @pytest.mark.parametrize("volume", [True, False])
    def test_boolean_volume_rejected(self, diamond, volume):
        with pytest.raises(TaskGraphError, match="must be a number"):
            diamond.add_communication("B", "C", volume)
        assert diamond.communication_count == 4


class TestAccess:
    def test_edges_keep_insertion_order(self, diamond):
        labels = [edge.label for edge in diamond.communications()]
        assert labels == ["c0", "c1", "c2", "c3"]
        assert diamond.communication(2).endpoints == ("B", "D")

    def test_communication_index_bounds(self, diamond):
        with pytest.raises(TaskGraphError):
            diamond.communication(7)

    def test_communication_between(self, diamond):
        edge = diamond.communication_between("A", "C")
        assert edge.volume_bits == pytest.approx(700.0)
        with pytest.raises(TaskGraphError):
            diamond.communication_between("C", "A")

    def test_predecessors_and_successors(self, diamond):
        assert set(diamond.predecessors("D")) == {"B", "C"}
        assert set(diamond.successors("A")) == {"B", "C"}
        with pytest.raises(TaskGraphError):
            diamond.predecessors("Z")

    def test_entry_and_exit_tasks(self, diamond):
        assert diamond.entry_tasks() == ["A"]
        assert diamond.exit_tasks() == ["D"]

    def test_topological_order_respects_edges(self, diamond):
        order = diamond.topological_order()
        assert order.index("A") < order.index("B") < order.index("D")
        assert order.index("A") < order.index("C") < order.index("D")

    def test_totals(self, diamond):
        assert diamond.total_volume_bits() == pytest.approx(3200.0)
        assert diamond.total_execution_cycles() == pytest.approx(7000.0)

    def test_critical_path(self, diamond):
        # A -> C -> D is the longest compute chain: 1000 + 3000 + 1000.
        assert diamond.critical_path_cycles() == pytest.approx(5000.0)

    def test_contains_and_iter(self, diamond):
        assert "A" in diamond
        assert "Z" not in diamond
        assert set(iter(diamond)) == {"A", "B", "C", "D"}


class TestPaperTaskGraph:
    def test_shape(self):
        graph = paper_task_graph()
        assert graph.task_count == 6
        assert graph.communication_count == 6

    def test_every_task_runs_five_kilocycles(self):
        graph = paper_task_graph()
        assert all(task.execution_cycles == pytest.approx(5000.0) for task in graph.tasks())

    def test_readable_volumes_match_figure5(self):
        graph = paper_task_graph()
        volumes = {edge.label: edge.volume_bits for edge in graph.communications()}
        assert volumes["c0"] == pytest.approx(6000.0)
        assert volumes["c2"] == pytest.approx(4000.0)
        assert volumes["c4"] == pytest.approx(8000.0)
        assert volumes["c5"] == pytest.approx(4000.0)

    def test_critical_path_is_twenty_kilocycles(self):
        # The asymptote of Fig. 6: four 5 k-cycle tasks in sequence.
        assert paper_task_graph().critical_path_cycles() == pytest.approx(20000.0)

    def test_single_source_and_sink(self):
        graph = paper_task_graph()
        assert graph.entry_tasks() == ["T0"]
        assert graph.exit_tasks() == ["T5"]
