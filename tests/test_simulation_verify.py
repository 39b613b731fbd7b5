"""Tests for the simulation-in-the-loop verification stage.

Covers the :mod:`repro.simulation.verify` subsystem itself, its integration
into scenarios/studies, and the divergence report of :mod:`repro.analysis`:
every Pareto solution of every registered optimizer backend on the paper
scenario must replay conflict-free with a simulated makespan equal to the
analytical ``execution_time_kcycles``, and an intentionally conflicting
allocation must be flagged.
"""

from __future__ import annotations

import math

import pytest

from repro.allocation.heuristics import first_fit_allocation
from repro.analysis import divergence_report, divergence_rows
from repro.config import GeneticParameters
from repro.errors import SimulationError
from repro.scenarios import Scenario, ScenarioBuilder, ScenarioResult, Study, VerificationSettings
from repro.scenarios.study import build_scenario_evaluator, execute_scenario
from repro.simulation import (
    DEFAULT_TOLERANCE,
    SimulationVerifier,
    SolutionVerification,
    VerificationReport,
)

#: Heuristic backends that run the paper instance quickly; together with
#: ``nsga2`` and ``exhaustive`` this covers every registered optimizer.
HEURISTICS = ("first_fit", "most_used", "least_used", "random")


def verified_scenario(**changes) -> Scenario:
    """A fast paper scenario with simulation verification enabled."""
    base = Scenario(
        name="verified",
        genetic=GeneticParameters(population_size=16, generations=6),
        verification=VerificationSettings(simulate=True),
    )
    return base.derive(**changes) if changes else base


# ----------------------------------------------------------------- verifier unit
class TestSimulationVerifier:
    def test_valid_solution_passes(self):
        evaluator = build_scenario_evaluator(verified_scenario())
        verifier = SimulationVerifier.from_evaluator(evaluator)
        solution = first_fit_allocation(evaluator, 2)
        verification = verifier.verify_solution(solution)
        assert verification.passed
        assert verification.is_conflict_free
        assert verification.simulated_kcycles == pytest.approx(
            solution.objectives.execution_time_kcycles
        )
        assert verification.allocation == solution.allocation_summary

    def test_conflicting_allocation_is_flagged(self):
        evaluator = build_scenario_evaluator(verified_scenario())
        verifier = SimulationVerifier.from_evaluator(evaluator)
        # c0 (T0->T1) and c1 (T0->T2) leave the same source simultaneously and
        # share the first ring segment: one shared wavelength must conflict.
        conflicting = [(0,), (0,), (1,), (2,), (3,), (4,)]
        verification = verifier.verify_allocation(conflicting, analytical_kcycles=38.0)
        assert verification.conflict_count > 0
        assert not verification.is_conflict_free
        assert not verification.passed

    def test_makespan_disagreement_is_flagged(self):
        evaluator = build_scenario_evaluator(verified_scenario())
        verifier = SimulationVerifier.from_evaluator(evaluator)
        solution = first_fit_allocation(evaluator, 1)
        verification = verifier.verify_allocation(
            solution.chromosome.allocation(),
            analytical_kcycles=solution.objectives.execution_time_kcycles + 1.0,
        )
        assert verification.is_conflict_free
        assert not verification.agrees
        assert not verification.passed
        assert verification.divergence_kcycles == pytest.approx(1.0)

    def test_infinite_analytical_value_never_agrees(self):
        verification = SolutionVerification(
            allocation="[1]",
            analytical_kcycles=float("inf"),
            simulated_kcycles=38.0,
            conflict_count=0,
            average_core_utilisation=0.5,
            average_wavelength_utilisation=0.5,
        )
        assert math.isinf(verification.relative_divergence)
        assert not verification.agrees

    def test_negative_tolerance_rejected(self):
        evaluator = build_scenario_evaluator(verified_scenario())
        with pytest.raises(SimulationError):
            SimulationVerifier.from_evaluator(evaluator, tolerance=-1.0)

    def test_report_round_trip_and_aggregates(self):
        evaluator = build_scenario_evaluator(verified_scenario())
        verifier = SimulationVerifier.from_evaluator(evaluator)
        report = verifier.verify_solutions(
            [first_fit_allocation(evaluator, count) for count in (1, 2)]
        )
        assert report.all_passed
        assert report.conflict_count == 0
        assert report.divergence_count == 0
        assert report.max_divergence_kcycles == pytest.approx(0.0)
        restored = VerificationReport.from_dict(report.to_dict())
        assert [item.to_dict() for item in restored] == [
            item.to_dict() for item in report
        ]


# ------------------------------------------------------- every backend replays
class TestEveryBackendReplays:
    @pytest.mark.parametrize("optimizer", ("nsga2",) + HEURISTICS)
    def test_paper_scenario_front_replays_exactly(self, optimizer):
        options = {"sweep": [1, 2, 3]} if optimizer in HEURISTICS else {}
        scenario = verified_scenario(
            name=f"verify-{optimizer}", optimizer=optimizer, optimizer_options=options
        )
        outcome = execute_scenario(scenario)
        assert outcome.verification is not None
        assert outcome.verification.solutions_checked == outcome.result.pareto_size
        assert outcome.verification.conflict_count == 0
        assert outcome.verification.all_passed
        for verification in outcome.verification:
            assert verification.simulated_kcycles == pytest.approx(
                verification.analytical_kcycles
            )

    def test_exhaustive_front_replays_exactly(self):
        # The exhaustive backend needs a tiny chromosome space: the paper
        # application on a 2-wavelength comb has (2^2 - 1)^6 = 729 candidates.
        scenario = verified_scenario(
            name="verify-exhaustive", optimizer="exhaustive", wavelength_count=2
        )
        outcome = execute_scenario(scenario)
        assert outcome.verification is not None
        assert outcome.verification.solutions_checked == outcome.result.pareto_size
        assert outcome.verification.all_passed


# ------------------------------------------------------------ study integration
class TestStudyIntegration:
    def test_unverified_scenario_keeps_old_shape(self):
        summary = execute_scenario(
            verified_scenario(verification=VerificationSettings())
        ).summary()
        assert not summary.verified
        assert summary.verification_rows == ()
        assert not summary.verification_passed
        assert "simulated_kcycles" not in summary.pareto_rows[0]

    def test_verified_summary_carries_replay_columns(self):
        summary = execute_scenario(verified_scenario()).summary()
        assert summary.verified
        assert summary.verification_passed
        assert len(summary.verification_rows) == summary.pareto_size
        for pareto_row, verification_row in zip(
            summary.pareto_rows, summary.verification_rows
        ):
            assert pareto_row["simulated_kcycles"] == pytest.approx(
                pareto_row["execution_time_kcycles"]
            )
            assert pareto_row["sim_conflicts"] == 0
            assert verification_row["passed"]
        row = summary.summary_row()
        assert row["verified"] is True
        assert row["sim_conflicts"] == 0
        assert row["sim_divergences"] == 0

    def test_scenario_result_round_trips_verification(self):
        summary = execute_scenario(verified_scenario()).summary()
        assert ScenarioResult.from_dict(summary.to_dict()) == summary

    def test_study_report_and_csv_surface_verification(self, tmp_path):
        study = Study(
            [
                verified_scenario(),
                verified_scenario(name="ff", optimizer="first_fit"),
            ],
            name="verified-study",
        )
        result = study.run()
        assert result.verification_passed
        assert "Simulation verification" in result.report()
        assert "all replays conflict-free" in result.report()

        summary_csv = (result.to_csv(tmp_path / "summary.csv")).read_text()
        assert "sim_conflicts" in summary_csv.splitlines()[0]
        pareto_csv = (result.pareto_to_csv(tmp_path / "pareto.csv")).read_text()
        assert "simulated_kcycles" in pareto_csv.splitlines()[0]
        verification_csv = (
            result.verification_to_csv(tmp_path / "verification.csv")
        ).read_text()
        header = verification_csv.splitlines()[0]
        assert "scenario" in header and "analytical_kcycles" in header
        assert len(verification_csv.splitlines()) == len(result.verification_rows()) + 1

    def test_parallel_study_matches_serial(self):
        scenarios = [verified_scenario(), verified_scenario(name="ff", optimizer="first_fit")]
        serial = Study(scenarios).run()
        parallel = Study(scenarios).run(parallel=2)
        assert [r.comparable_dict() for r in serial] == [
            r.comparable_dict() for r in parallel
        ]


# ---------------------------------------------------------- verification block
class TestVerificationSettings:
    def test_defaults_stay_out_of_the_document(self):
        scenario = Scenario()
        assert "verification" not in scenario.to_dict()
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_round_trip_and_fingerprint(self):
        scenario = verified_scenario()
        assert scenario.to_dict()["verification"]["simulate"] is True
        assert Scenario.from_dict(scenario.to_dict()) == scenario
        unverified = scenario.derive(verification=VerificationSettings())
        assert scenario.fingerprint() != unverified.fingerprint()

    def test_builder_verify(self):
        scenario = (
            ScenarioBuilder()
            .named("b")
            .verify(simulate=True, tolerance=1e-6, parallel=2)
            .build()
        )
        assert scenario.verification == VerificationSettings(
            simulate=True, tolerance=1e-6, parallel=2
        )

    def test_default_tolerance_matches_verifier(self):
        assert VerificationSettings().tolerance == DEFAULT_TOLERANCE

    def test_bad_settings_rejected(self):
        from repro.errors import ScenarioError

        with pytest.raises(ScenarioError):
            VerificationSettings(tolerance=-0.5)
        with pytest.raises(ScenarioError):
            VerificationSettings.from_dict({"simulate": True, "warp": 9})
        with pytest.raises(ScenarioError):
            Scenario.from_dict({**Scenario().to_dict(), "verification": "yes"})

    def test_non_boolean_simulate_rejected_not_coerced(self):
        # bool("false") is True — coercion would silently *enable* simulation
        # on the exact document an author wrote to disable it.
        from repro.errors import ScenarioError

        with pytest.raises(ScenarioError, match="boolean"):
            VerificationSettings.from_dict({"simulate": "false"})


# ----------------------------------------------------------- divergence report
class TestDivergenceReport:
    def test_clean_run_reports_all_clear(self):
        result = Study([verified_scenario()]).run()
        assert divergence_rows(result) == []
        assert "none" in divergence_report(result)

    def test_conflicting_solution_is_listed(self):
        evaluator = build_scenario_evaluator(verified_scenario())
        verifier = SimulationVerifier.from_evaluator(evaluator)
        good = first_fit_allocation(evaluator, 1)
        report = VerificationReport(
            verifications=(
                verifier.verify_solution(good),
                verifier.verify_allocation(
                    [(0,), (0,), (1,), (2,), (3,), (4,)], analytical_kcycles=38.0
                ),
            )
        )
        failed = divergence_rows(report)
        assert len(failed) == 1
        assert failed[0]["sim_conflicts"] > 0
        text = divergence_report(report)
        assert "1 of 2" in text

    def test_verified_pareto_rows_expose_divergences(self):
        # Pareto rows carry 'makespan_divergence_kcycles' (not
        # 'divergence_kcycles') and no 'passed' verdict; the fallback must
        # still catch a diverging row and ignore float noise.
        base = {
            "execution_time_kcycles": 38.0,
            "simulated_kcycles": 38.0,
            "sim_conflicts": 0,
        }
        diverged = {**base, "makespan_divergence_kcycles": 5.0}
        noisy = {**base, "makespan_divergence_kcycles": 1e-13}
        clean = {**base, "makespan_divergence_kcycles": 0.0}
        assert divergence_rows([diverged, noisy, clean]) == [diverged]

    def test_accepts_bare_rows_and_verifications(self):
        verification = SolutionVerification(
            allocation="[1]",
            analytical_kcycles=38.0,
            simulated_kcycles=39.0,
            conflict_count=0,
            average_core_utilisation=0.1,
            average_wavelength_utilisation=0.1,
        )
        assert len(divergence_rows([verification])) == 1
        assert len(divergence_rows([verification.row()])) == 1
        assert "no solutions were verified" in divergence_report([])
