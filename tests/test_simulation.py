"""Unit tests for the discrete-event simulation substrate."""

from __future__ import annotations

import pytest

from repro.application import Mapping, paper_mapping, paper_task_graph, pipeline_task_graph
from repro.errors import SimulationError
from repro.simulation import (
    PRIORITY_ACQUIRE,
    PRIORITY_RELEASE,
    ConflictRecord,
    DiscreteEventEngine,
    OnocSimulator,
)
from repro.topology import RingOnocArchitecture


def run_in_order(*events):
    """Schedule ``(time, name, priority)`` events; return the names as fired."""
    engine = DiscreteEventEngine()
    order = []
    for time, name, priority in events:
        engine.schedule_at(time, lambda name=name: order.append(name), priority)
    engine.run()
    return order


class TestEventQueue:
    """The engine's heap order: time, then priority, then insertion."""

    def test_events_pop_in_time_order(self):
        order = run_in_order((5.0, "late", 0), (1.0, "early", 0), (3.0, "middle", 0))
        assert order == ["early", "middle", "late"]

    def test_same_time_uses_priority_then_insertion(self):
        order = run_in_order((1.0, "second", 1), (1.0, "first", 0), (1.0, "third", 1))
        assert order == ["first", "second", "third"]

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            DiscreteEventEngine().schedule_at(-1.0, lambda: None)

    def test_release_fires_before_acquire_at_equal_time(self):
        # The shared tie-break convention: capacity freed at time t must be
        # visible to an acquisition at the same t, regardless of which event
        # was scheduled first.
        assert PRIORITY_RELEASE < PRIORITY_ACQUIRE
        order = run_in_order(
            (2.0, "acquire", PRIORITY_ACQUIRE), (2.0, "release", PRIORITY_RELEASE)
        )
        assert order == ["release", "acquire"]


class TestDiscreteEventEngine:
    def test_clock_advances_with_events(self):
        engine = DiscreteEventEngine()
        times = []
        engine.schedule_at(2.0, lambda: times.append(engine.now))
        engine.schedule_at(5.0, lambda: times.append(engine.now))
        end = engine.run()
        assert times == [2.0, 5.0]
        assert end == pytest.approx(5.0)
        assert engine.processed_events == 2

    def test_schedule_after_uses_relative_delay(self):
        engine = DiscreteEventEngine()
        seen = []

        def first():
            engine.schedule_after(3.0, lambda: seen.append(engine.now))

        engine.schedule_at(1.0, first)
        engine.run()
        assert seen == [4.0]

    def test_scheduling_in_the_past_rejected(self):
        engine = DiscreteEventEngine()
        engine.schedule_at(5.0, lambda: engine.schedule_at(1.0, lambda: None))
        with pytest.raises(SimulationError):
            engine.run()

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            DiscreteEventEngine().schedule_after(-1.0, lambda: None)

    def test_event_cap_detects_loops(self):
        engine = DiscreteEventEngine()

        def loop():
            engine.schedule_after(1.0, loop)

        engine.schedule_at(0.0, loop)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)


class TestOnocSimulator:
    def test_matches_analytical_schedule(self, architecture, task_graph, mapping, evaluator):
        simulator = OnocSimulator(architecture, task_graph, mapping)
        allocation = [(0,), (1,), (2,), (3,), (4,), (5,)]
        report = simulator.run(allocation)
        analytical = evaluator.evaluate_allocation(allocation)
        assert report.makespan_kilocycles == pytest.approx(
            analytical.objectives.execution_time_kcycles
        )
        assert report.is_conflict_free

    def test_matches_schedule_for_multi_wavelength_allocation(
        self, architecture, task_graph, mapping, evaluator
    ):
        simulator = OnocSimulator(architecture, task_graph, mapping)
        allocation = [(0, 1), (2, 3, 4), (5, 6), (0, 7), (2, 3), (5, 6)]
        report = simulator.run(allocation)
        analytical = evaluator.evaluate_allocation(allocation)
        assert analytical.is_valid
        assert report.makespan_kilocycles == pytest.approx(
            analytical.objectives.execution_time_kcycles
        )
        assert report.is_conflict_free

    def test_detects_wavelength_conflicts(self, architecture, task_graph, mapping):
        simulator = OnocSimulator(architecture, task_graph, mapping)
        # c0 and c1 overlap in time and share segments: same channel conflicts.
        report = simulator.run([(0,), (0,), (2,), (3,), (4,), (5,)])
        assert not report.is_conflict_free
        assert report.statistics.conflicts_detected == len(report.conflicts)
        # ConflictRecord is part of the public surface (it is what
        # SimulationReport.conflicts holds), so it must be importable.
        for conflict in report.conflicts:
            assert isinstance(conflict, ConflictRecord)
            assert conflict.channel == 0

    def test_transfer_records_cover_every_edge(self, architecture, task_graph, mapping):
        simulator = OnocSimulator(architecture, task_graph, mapping)
        report = simulator.run([(0,), (1,), (2,), (3,), (4,), (5,)])
        assert [record.edge_index for record in report.transfers] == list(range(6))
        assert report.statistics.transfers_completed == 6
        assert report.statistics.tasks_completed == 6
        assert report.statistics.total_bits_transferred == pytest.approx(
            task_graph.total_volume_bits()
        )

    def test_statistics_utilisations_are_fractions(self, architecture, task_graph, mapping):
        simulator = OnocSimulator(architecture, task_graph, mapping)
        report = simulator.run([(0,), (1,), (2,), (3,), (4,), (5,)])
        for value in report.statistics.core_utilisation.values():
            assert 0.0 < value <= 1.0
        for value in report.statistics.wavelength_utilisation.values():
            assert 0.0 < value <= 1.0
        assert 0.0 < report.statistics.average_core_utilisation <= 1.0
        assert report.statistics.effective_bandwidth_bits_per_cycle > 0.0

    def test_pipeline_simulation(self, architecture):
        graph = pipeline_task_graph(stage_count=4)
        mapping = Mapping.round_robin(graph, architecture, stride=3)
        simulator = OnocSimulator(architecture, graph, mapping)
        report = simulator.run([(0,), (1,), (2,)])
        expected = 4 * 5000.0 + 3 * 4000.0
        assert report.makespan_cycles == pytest.approx(expected)

    def test_input_validation(self, architecture, task_graph, mapping):
        simulator = OnocSimulator(architecture, task_graph, mapping)
        with pytest.raises(SimulationError):
            simulator.run([(0,)] * 3)
        with pytest.raises(SimulationError):
            simulator.run([(0,), (), (2,), (3,), (4,), (5,)])
        with pytest.raises(SimulationError):
            simulator.run([(0,), (99,), (2,), (3,), (4,), (5,)])
