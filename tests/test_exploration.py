"""Single runs, design-space sweeps and paper reports, all expressed as scenarios.

A sweep is a plain list of :class:`~repro.scenarios.scenario.Scenario` values
built with :meth:`~repro.scenarios.scenario.Scenario.derive`; the paper's
Table II / Fig. 6 / Fig. 7 reports are read off the
:class:`~repro.scenarios.study.ScenarioOutcome` objects a
:class:`~repro.paper.PaperExperimentSuite` caches.
"""

from __future__ import annotations

import pytest

from repro.allocation import AllocationEvaluator
from repro.application import paper_mapping, paper_task_graph
from repro.config import GeneticParameters, OnocConfiguration
from repro.errors import ExperimentError
from repro.paper import PaperExperimentSuite
from repro.scenarios import (
    OptimizerParameters,
    Scenario,
    build_scenario_evaluator,
    create_optimizer,
    execute_scenario,
)

#: A deliberately tiny GA so the exploration tests stay fast.
TINY = GeneticParameters.smoke_test()

#: The paper's application and mapping on the 4x4 ring, 8 wavelengths.
BASE = Scenario(name="tiny", genetic=TINY)


def run_all(scenarios):
    return [execute_scenario(scenario) for scenario in scenarios]


@pytest.fixture(scope="module")
def suite() -> PaperExperimentSuite:
    return PaperExperimentSuite(
        wavelength_counts=(4, 8), configuration=OnocConfiguration(genetic=TINY)
    )


class TestExperiment:
    def test_run_single_produces_a_complete_record(self):
        outcome = execute_scenario(BASE.derive(wavelength_count=4))
        summary = outcome.summary()
        assert summary.wavelength_count == 4
        assert summary.valid_solution_count > 0
        assert summary.pareto_size > 0
        assert summary.best_time_kcycles <= 38.0
        assert outcome.runtime_seconds > 0.0

    def test_run_many_keeps_request_order(self, suite):
        assert [outcome.result.wavelength_count for outcome in suite.records()] == [4, 8]

    def test_build_allocator_uses_requested_wavelengths(self):
        evaluator = build_scenario_evaluator(BASE.derive(wavelength_count=12))
        assert evaluator.architecture.wavelength_count == 12

    def test_zero_wavelengths_rejected(self):
        with pytest.raises(ExperimentError):
            BASE.derive(wavelength_count=0)

    def test_explicit_mapping_object_is_accepted(self, architecture):
        # An in-memory placement runs through the backend call execute_scenario makes.
        evaluator = AllocationEvaluator(
            architecture, paper_task_graph(), paper_mapping(architecture)
        )
        result = create_optimizer("nsga2").run(evaluator, OptimizerParameters(genetic=TINY))
        assert result.wavelength_count == 8
        # That placement is the registry's "paper" mapping: the runs agree.
        assert result.summary_rows() == execute_scenario(BASE).pareto_rows()

    def test_record_rows(self, suite):
        outcome = suite.record(4)
        assert len(outcome.pareto_rows()) == outcome.result.pareto_size
        valid_points = suite.fig7(4)["valid_solutions"]
        assert len(valid_points) == outcome.result.valid_solution_count


class TestReports:
    def test_solution_count_table_rows(self, suite):
        rows = suite.table2()
        assert [row["wavelength_count"] for row in rows] == [4, 8]
        for row, outcome in zip(rows, suite.records()):
            assert row["valid_solution_count"] == outcome.result.valid_solution_count
            assert 0 < row["pareto_front_size"] <= outcome.result.valid_solution_count

    def test_front_series_is_sorted_and_non_dominated(self, suite):
        series = suite.record(4).result.front_series("time", "energy")
        xs = [x for x, _ in series]
        ys = [y for _, y in series]
        assert xs == sorted(xs)
        # Along a 2-objective minimisation front sorted by x, y must decrease.
        assert all(earlier >= later for earlier, later in zip(ys, ys[1:]))

    def test_front_series_log_ber_axis(self, suite):
        series = suite.record(4).result.front_series("time", "log_ber")
        assert all(-6.0 < y < 0.0 for _, y in series)

    def test_front_series_rejects_unknown_axis(self, suite):
        with pytest.raises(ExperimentError):
            suite.record(4).result.front_series("time", "area")

    def test_pareto_table_concatenates_records(self, suite):
        rows = suite.pareto_rows()
        assert len(rows) == sum(outcome.result.pareto_size for outcome in suite.records())
        assert {row["wavelength_count"] for row in rows} == {4, 8}


class TestSweeps:
    def test_sweep_wavelength_counts(self):
        outcomes = run_all([BASE.derive(wavelength_count=count) for count in (4, 8)])
        assert [outcome.result.wavelength_count for outcome in outcomes] == [4, 8]

    def test_sweep_quality_factor_degrades_ber_when_q_drops(self):
        best_log10_ber = {
            quality_factor: execute_scenario(
                BASE.derive(overrides={"photonic": {"quality_factor": quality_factor}})
            ).summary().best_log10_ber
            for quality_factor in (9600.0, 1000.0)
        }
        # A blunter filter (low Q) leaks more crosstalk: the best reachable BER gets worse.
        assert best_log10_ber[1000.0] >= best_log10_ber[9600.0] - 1e-9

    def test_sweep_channel_setup_energy_raises_energy(self):
        best_energy = {
            setup_energy: execute_scenario(
                BASE.derive(overrides={"energy": {"channel_setup_energy_fj": setup_energy}})
            ).summary().best_energy_fj
            for setup_energy in (0.0, 6000.0)
        }
        assert best_energy[6000.0] > best_energy[0.0]

    def test_sweep_genetic_parameters(self):
        budgets = [TINY, GeneticParameters(population_size=24, generations=10)]
        outcomes = run_all([BASE.derive(genetic=budget) for budget in budgets])
        assert len(outcomes) == 2
        assert outcomes[1].result.valid_solution_count >= outcomes[0].result.valid_solution_count

    def test_sweep_mappings(self):
        outcomes = run_all(
            [BASE, BASE.derive(mapping="round_robin", mapping_options={"stride": 1})]
        )
        assert len(outcomes) == 2
        assert all(outcome.result.pareto_size > 0 for outcome in outcomes)
