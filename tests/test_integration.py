"""Cross-module integration tests.

These tests exercise whole-pipeline consistency properties:

* the fast allocation evaluator agrees with the readable reference models of
  :mod:`repro.models` and with the discrete-event simulator;
* every Pareto solution of an exploration replays conflict-free in simulation
  with the same makespan;
* the public package surface re-exports what the README advertises.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import (
    CrosstalkScope,
    GeneticParameters,
    OnocSimulator,
    Scenario,
    execute_scenario,
    paper_task_graph,
)
from repro.allocation import AllocationEvaluator, uniform_allocation
from repro.scenarios import build_scenario_evaluator
from repro.models import BerModel, LinkBudget, PowerLossModel, SnrModel
from repro.units import dbm_to_mw


class TestPublicApi:
    def test_version_is_exposed(self):
        assert repro.__version__ == "1.0.0"

    def test_star_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_flow(self):
        scenario = Scenario(wavelength_count=4, genetic=GeneticParameters.smoke_test())
        result = execute_scenario(scenario).result
        assert result.pareto_size >= 1
        assert result.best_by("energy").is_valid


class TestEvaluatorAgainstReferenceModels:
    def test_signal_power_matches_power_loss_model(self, architecture, task_graph, mapping):
        """The evaluator's base loss equals the reference Eq. 6 accumulation."""
        evaluator = AllocationEvaluator(
            architecture, task_graph, mapping, crosstalk_scope=CrosstalkScope.INTRA
        )
        reference = PowerLossModel(architecture)
        architecture.reset_network_state()
        for communication in evaluator.communications:
            expected = reference.signal_power_dbm(
                communication.source_core, communication.destination_core, channel=0
            )
            base_loss = evaluator._victim_base_loss_db[communication.index]
            assert -10.0 + base_loss == pytest.approx(expected.power_dbm, abs=1e-9)

    def test_single_link_ber_matches_link_budget(self, architecture, task_graph, mapping):
        """For an isolated communication the evaluator and LinkBudget agree."""
        evaluator = AllocationEvaluator(
            architecture, task_graph, mapping, crosstalk_scope=CrosstalkScope.INTRA
        )
        budget = LinkBudget(architecture)
        communication = evaluator.communications[0]
        channels = [0, 1]
        solution = evaluator.evaluate_allocation(
            [tuple(channels)] + [(c + 2,) for c in range(5)]
        )
        architecture.reset_network_state()
        reports = budget.evaluate_channels(
            communication.source_core, communication.destination_core, channels
        )
        expected_ber = float(np.mean([report.bit_error_rate for report in reports]))
        assert solution.per_communication_ber[0] == pytest.approx(expected_ber, rel=0.05)

    def test_snr_chain_consistency(self, architecture):
        """PowerLoss -> SNR -> BER by hand equals the LinkBudget composition."""
        power_model = PowerLossModel(architecture)
        snr_model = SnrModel(architecture.configuration.photonic)
        ber_model = BerModel()
        budget = LinkBudget(architecture)
        signal = power_model.signal_power_dbm(0, 6, channel=2)
        result = snr_model.evaluate(signal.power_dbm, [])
        manual_ber = ber_model.from_snr_result(result)
        report = budget.evaluate_link(0, 6, channel=2)
        assert report.bit_error_rate == pytest.approx(manual_ber)
        assert report.snr.snr_linear == pytest.approx(result.snr_linear)


class TestEvaluatorAgainstSimulator:
    def test_every_pareto_solution_replays_in_simulation(
        self, architecture, task_graph, mapping
    ):
        outcome = execute_scenario(Scenario(genetic=GeneticParameters.smoke_test()))
        result = outcome.result
        simulator = OnocSimulator(architecture, task_graph, mapping)
        for solution in result.pareto_solutions:
            report = simulator.run(solution.chromosome.allocation())
            assert report.is_conflict_free
            assert report.makespan_kilocycles == pytest.approx(
                solution.objectives.execution_time_kcycles
            )

    def test_random_valid_solutions_replay_consistently(self, evaluator, architecture, task_graph, mapping):
        rng = np.random.default_rng(123)
        simulator = OnocSimulator(architecture, task_graph, mapping)
        checked = 0
        for _ in range(200):
            chromosome = evaluator.random_chromosome(rng)
            solution = evaluator.evaluate(chromosome)
            if not solution.is_valid:
                continue
            report = simulator.run(chromosome.allocation())
            assert report.is_conflict_free
            assert report.makespan_kilocycles == pytest.approx(
                solution.objectives.execution_time_kcycles
            )
            checked += 1
            if checked >= 10:
                break
        assert checked >= 5


class TestArchitectureScaling:
    @pytest.mark.parametrize("rows,columns", [(2, 2), (3, 3), (4, 4), (4, 8)])
    def test_exploration_works_across_architecture_sizes(self, rows, columns):
        scenario = Scenario(
            rows=rows,
            columns=columns,
            wavelength_count=4,
            genetic=GeneticParameters.smoke_test(),
        )
        if paper_task_graph().task_count > rows * columns:
            pytest.skip("not enough cores for the paper application")
        if rows * columns < 13:
            scenario = scenario.derive(mapping="default", mapping_options={"stride": 1})
        result = execute_scenario(scenario).result
        assert result.pareto_size >= 1

    @pytest.mark.parametrize("wavelength_count", [2, 4, 8, 16])
    def test_wavelength_scaling(self, wavelength_count):
        evaluator = build_scenario_evaluator(Scenario(wavelength_count=wavelength_count))
        solution = uniform_allocation(evaluator, 1)
        assert solution.is_valid
        assert solution.objectives.execution_time_kcycles == pytest.approx(38.0)
