"""Determinism of the vectorized NSGA-II and its evaluation telemetry.

The golden check of the vectorization refactor: with a fixed seed, the batch
engine must walk exactly the same populations as the scalar reference replay
of ``tests/oracles.py`` (the two share one operator implementation and one
random stream — only the objective arithmetic differs, at floating-point
summation-order level), and repeated runs must be bit-identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import ScalarNsga2Replay
from repro.allocation import AllocationEvaluator, Nsga2Optimizer
from repro.application import paper_mapping, paper_task_graph
from repro.config import GeneticParameters
from repro.errors import ScenarioError
from repro.scenarios import Scenario, Study, execute_scenario
from repro.topology import RingOnocArchitecture


@pytest.fixture
def paper_evaluator() -> AllocationEvaluator:
    architecture = RingOnocArchitecture.grid(4, 4, wavelength_count=8)
    return AllocationEvaluator(
        architecture, paper_task_graph(), paper_mapping(architecture)
    )


class TestGoldenDeterminism:
    def test_batch_engine_is_deterministic(self, paper_evaluator):
        parameters = GeneticParameters.smoke_test(seed=42)
        first = Nsga2Optimizer(paper_evaluator, parameters).run()
        second = Nsga2Optimizer(paper_evaluator, parameters).run()
        assert first.pareto_front.objectives == second.pareto_front.objectives
        assert first.unique_valid_solutions.keys() == second.unique_valid_solutions.keys()
        assert [s.chromosome.genes for s in first.final_population] == [
            s.chromosome.genes for s in second.final_population
        ]

    def test_batch_front_matches_scalar_reference_run(self, paper_evaluator):
        """Same seed, before/after vectorization: identical fronts.

        The scalar replay reproduces the historical chromosome-at-a-time
        evaluation path with the Python selection kernels; the batch engine
        must discover exactly the same chromosome sets, with objectives equal
        to tight tolerance.
        """
        parameters = GeneticParameters.smoke_test(seed=42)
        batch = Nsga2Optimizer(paper_evaluator, parameters).run()
        scalar = ScalarNsga2Replay(paper_evaluator, parameters).run()

        # Identical search trajectory: same unique valid chromosomes, same
        # final population, same Pareto-front membership.
        assert batch.unique_valid_solutions.keys() == scalar.unique_valid_solutions.keys()
        assert [s.chromosome.genes for s in batch.final_population] == [
            s.chromosome.genes for s in scalar.final_population
        ]
        batch_front = sorted(s.chromosome.genes for s in batch.pareto_solutions)
        scalar_front = sorted(s.chromosome.genes for s in scalar.pareto_solutions)
        assert batch_front == scalar_front
        # Identical telemetry (the memo sees the same duplicate stream).
        assert batch.evaluations == scalar.evaluations
        assert batch.memo_hits == scalar.memo_hits
        # Objective values agree to floating-point summation-order tolerance.
        assert np.allclose(
            np.array(sorted(batch.pareto_front.objectives)),
            np.array(sorted(scalar.pareto_front.objectives)),
            rtol=1e-9,
        )


class TestTelemetry:
    def test_generation_records_carry_telemetry(self, paper_evaluator):
        parameters = GeneticParameters.smoke_test(seed=7)
        result = Nsga2Optimizer(paper_evaluator, parameters).run()
        assert len(result.history) == parameters.generations + 1
        # Per-generation counters sum up to the run totals.
        assert sum(record.evaluations for record in result.history) == result.evaluations
        assert sum(record.memo_hits for record in result.history) == result.memo_hits
        assert all(record.wall_clock_seconds >= 0.0 for record in result.history)
        # The initial population is evaluated in generation zero.
        assert result.history[0].evaluations > 0
        assert result.wall_clock_seconds > 0.0
        assert result.evaluations_per_second > 0.0

    def test_memo_skips_duplicate_offspring(self):
        from repro.application import Mapping, pipeline_task_graph

        # A 4-gene instance: a 12-generation run must revisit chromosomes.
        architecture = RingOnocArchitecture.grid(2, 2, wavelength_count=2)
        evaluator = AllocationEvaluator(
            architecture,
            pipeline_task_graph(stage_count=3),
            Mapping.from_dict({"S0": 0, "S1": 1, "S2": 3}),
        )
        result = Nsga2Optimizer(
            evaluator, GeneticParameters(population_size=16, generations=12, seed=3)
        ).run()
        assert result.memo_hits > 0
        assert result.evaluations <= 16  # the whole space is 2^4 chromosomes
        total = result.evaluations + result.memo_hits
        assert total == 16 * 13  # population + one offspring batch per generation


class TestStudySurface:
    @pytest.fixture
    def tiny_scenario(self) -> Scenario:
        return (
            Scenario.builder()
            .named("telemetry")
            .grid(4, 4)
            .wavelengths(4)
            .genetic(population_size=8, generations=3)
            .seed(11)
            .build()
        )

    def test_summary_and_csv_carry_evaluations(self, tiny_scenario, tmp_path):
        study = Study([tiny_scenario])
        result = study.run()
        summary = result.results[0]
        assert summary.evaluations > 0
        assert summary.memo_hits >= 0
        assert summary.evaluations_per_second >= 0.0
        row = summary.summary_row()
        assert row["evaluations"] == summary.evaluations
        assert row["memo_hits"] == summary.memo_hits
        csv_path = result.to_csv(tmp_path / "study.csv")
        header = csv_path.read_text().splitlines()[0]
        assert "evaluations" in header and "memo_hits" in header
        assert "evaluations" in result.report()

    def test_summary_round_trips_telemetry(self, tiny_scenario):
        summary = execute_scenario(tiny_scenario).summary()
        rebuilt = type(summary).from_dict(summary.to_dict())
        assert rebuilt.evaluations == summary.evaluations
        assert rebuilt.memo_hits == summary.memo_hits

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_retired_engine_option_is_rejected(self, engine):
        """``engine`` is no nsga2 option any more: naming it fails cleanly."""
        scenario = (
            Scenario.builder()
            .named("retired-engine")
            .grid(4, 4)
            .wavelengths(4)
            .genetic(population_size=8, generations=2)
            .optimizer("nsga2", engine=engine)
            .seed(5)
            .build()
        )
        with pytest.raises(ScenarioError, match="unknown options for optimizer 'nsga2'.*engine"):
            execute_scenario(scenario)
