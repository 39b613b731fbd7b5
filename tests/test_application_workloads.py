"""Unit tests for the workload generators."""

from __future__ import annotations

import pytest

from repro.application import (
    default_mapping,
    fork_join_task_graph,
    paper_task_graph,
    pipeline_task_graph,
    random_task_graph,
)
from repro.errors import TaskGraphError


class TestPipeline:
    def test_shape(self):
        graph = pipeline_task_graph(stage_count=5)
        assert graph.task_count == 5
        assert graph.communication_count == 4
        assert graph.entry_tasks() == ["S0"]
        assert graph.exit_tasks() == ["S4"]

    def test_every_transfer_on_critical_path(self):
        graph = pipeline_task_graph(stage_count=4, execution_cycles=1000.0)
        assert graph.critical_path_cycles() == pytest.approx(4000.0)

    def test_custom_volume(self):
        graph = pipeline_task_graph(stage_count=3, volume_bits=1234.0)
        assert all(edge.volume_bits == pytest.approx(1234.0) for edge in graph.communications())

    def test_rejects_single_stage(self):
        with pytest.raises(TaskGraphError):
            pipeline_task_graph(stage_count=1)


class TestForkJoin:
    def test_shape(self):
        graph = fork_join_task_graph(branch_count=3)
        assert graph.task_count == 5
        assert graph.communication_count == 6
        assert graph.entry_tasks() == ["source"]
        assert graph.exit_tasks() == ["sink"]

    def test_fanout_edges_share_the_source(self):
        graph = fork_join_task_graph(branch_count=4)
        sources = [edge.source for edge in graph.communications()[:4]]
        assert sources == ["source"] * 4

    def test_rejects_zero_branches(self):
        with pytest.raises(TaskGraphError):
            fork_join_task_graph(branch_count=0)


class TestRandomGraph:
    def test_reproducible_with_seed(self):
        first = random_task_graph(task_count=10, seed=11)
        second = random_task_graph(task_count=10, seed=11)
        assert [t.execution_cycles for t in first.tasks()] == [
            t.execution_cycles for t in second.tasks()
        ]
        assert [e.endpoints for e in first.communications()] == [
            e.endpoints for e in second.communications()
        ]

    def test_is_acyclic_and_connected(self):
        graph = random_task_graph(task_count=12, edge_probability=0.4, seed=5)
        position = {name: index for index, name in enumerate(graph.topological_order())}
        assert len(position) == graph.task_count
        assert all(
            position[edge.source] < position[edge.destination]
            for edge in graph.communications()
        )
        # Weakly connected: ignoring directions, one task reaches every other.
        reached = {graph.task_names()[0]}
        frontier = list(reached)
        while frontier:
            name = frontier.pop()
            for neighbour in graph.predecessors(name) + graph.successors(name):
                if neighbour not in reached:
                    reached.add(neighbour)
                    frontier.append(neighbour)
        assert reached == set(graph.task_names())

    def test_respects_ranges(self):
        graph = random_task_graph(
            task_count=8,
            seed=1,
            execution_cycles_range=(100.0, 200.0),
            volume_bits_range=(50.0, 60.0),
        )
        assert all(100.0 <= t.execution_cycles <= 200.0 for t in graph.tasks())
        assert all(50.0 <= e.volume_bits <= 60.0 for e in graph.communications())

    def test_rejects_bad_parameters(self):
        with pytest.raises(TaskGraphError):
            random_task_graph(task_count=1)
        with pytest.raises(TaskGraphError):
            random_task_graph(task_count=4, edge_probability=1.5)


class TestDefaultMapping:
    def test_valid_for_every_generator(self, architecture):
        for graph in (
            paper_task_graph(),
            pipeline_task_graph(stage_count=6),
            fork_join_task_graph(branch_count=4),
            random_task_graph(task_count=8, seed=3),
        ):
            mapping = default_mapping(graph, architecture)
            mapping.validate_against(graph, architecture)
