"""Tests for the declarative scenario/study API (:mod:`repro.scenarios`)."""

from __future__ import annotations

import json
import math

import pytest

from repro.allocation import AllocationEvaluator, Nsga2Optimizer
from repro.application import paper_mapping, paper_task_graph
from repro.config import GeneticParameters
from repro.errors import ExperimentError, ReproError, ScenarioError
from repro.scenarios import (
    MAPPING_STRATEGIES,
    OPTIMIZERS,
    WORKLOADS,
    OptimizerParameters,
    Registry,
    Scenario,
    ScenarioBuilder,
    ScenarioResult,
    Study,
    build_scenario_evaluator,
    build_workload,
    create_optimizer,
    execute_scenario,
)
from repro.topology import RingOnocArchitecture


def smoke_scenario(**changes) -> Scenario:
    """A fast-running paper scenario for the tests."""
    base = Scenario(
        name="smoke",
        genetic=GeneticParameters(population_size=16, generations=6),
    )
    return base.derive(**changes) if changes else base


# ---------------------------------------------------------------- serialisation
class TestScenarioRoundTrip:
    def test_dict_round_trip_is_identity(self):
        scenario = smoke_scenario(
            wavelength_count=12,
            workload="pipeline",
            workload_options={"stage_count": 5},
            mapping="round_robin",
            mapping_options={"stride": 3},
            objectives=("time", "energy"),
            crosstalk_scope="spatial",
            optimizer="first_fit",
            optimizer_options={"sweep": [1, 2]},
            overrides={"photonic": {"quality_factor": 5000.0}},
            seed=11,
        )
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_json_round_trip_preserves_fingerprint(self):
        scenario = smoke_scenario(seed=3)
        restored = Scenario.from_json(scenario.to_json())
        assert restored == scenario
        assert restored.fingerprint() == scenario.fingerprint()

    def test_fingerprint_distinguishes_scenarios(self):
        assert (
            smoke_scenario().fingerprint()
            != smoke_scenario(wavelength_count=12).fingerprint()
        )

    def test_file_round_trip(self, tmp_path):
        scenario = smoke_scenario()
        path = scenario.save(tmp_path / "scenario.json")
        assert Scenario.load(path) == scenario

    def test_unknown_top_level_key_rejected(self):
        payload = smoke_scenario().to_dict()
        payload["warp_factor"] = 9
        with pytest.raises(ScenarioError, match="warp_factor"):
            Scenario.from_dict(payload)

    def test_bad_schema_rejected(self):
        payload = smoke_scenario().to_dict()
        payload["schema"] = "repro.scenario/99"
        with pytest.raises(ScenarioError, match="schema"):
            Scenario.from_dict(payload)

    def test_plain_string_sections_accepted(self):
        scenario = Scenario.from_dict(
            {"workload": "paper", "mapping": "paper", "optimizer": "nsga2"}
        )
        assert scenario.workload == "paper"
        assert scenario.optimizer_options == {}

    def test_invalid_values_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario(wavelength_count=0)
        with pytest.raises(ScenarioError):
            Scenario(objectives=("speed",))
        with pytest.raises(ScenarioError):
            Scenario(crosstalk_scope="psychic")
        with pytest.raises(ScenarioError):
            Scenario(overrides={"quantum": {}})

    @pytest.mark.parametrize(
        "payload",
        [
            {"rows": "four"},
            {"seed": "lucky"},
            {"objectives": "time"},
            {"objectives": 3},
            {"genetic": "fast"},
            {"overrides": ["photonic"]},
            {"overrides": {"photonic": 5}},
            {"workload": {"name": "paper", "options": "none"}},
        ],
    )
    def test_malformed_documents_raise_scenario_error(self, payload):
        with pytest.raises(ScenarioError):
            Scenario.from_dict(payload)

    @pytest.mark.parametrize(
        "settings",
        [
            {"parallel": 2.5},
            {"parallel": "2"},
            {"parallel": True},
            {"tolerance": True},
            {"tolerance": math.inf},
            {"tolerance": "1e-9"},
        ],
    )
    def test_verification_typos_are_refused_not_coerced(self, settings):
        # int(2.5) is 2 and float(True) is 1.0: coercion would run a typo
        # under a fingerprint of its own, and an infinite or boolean tolerance
        # would let a diverging replay pass.
        key = next(iter(settings))
        with pytest.raises(ScenarioError, match=f"verification '{key}'"):
            Scenario.from_dict({"verification": {"simulate": True, **settings}})
        with pytest.raises(ScenarioError, match=f"verification '{key}'"):
            ScenarioBuilder().verify(simulate=True, **settings)

    @pytest.mark.parametrize(
        "settings, fingerprint",
        [
            ({"simulate": True, "parallel": 2}, "3825a38c93d88072"),
            ({"simulate": True, "tolerance": 1.0}, "f60b81a46151d328"),
            ({"simulate": True, "tolerance": 1}, "f60b81a46151d328"),
        ],
    )
    def test_valid_verification_documents_keep_their_fingerprints(self, settings, fingerprint):
        document = dict(Scenario().to_dict(), verification=settings)
        assert Scenario.from_dict(document).fingerprint() == fingerprint

    @staticmethod
    def traffic_document(**warmup) -> dict:
        traffic = {
            "model": "poisson",
            "model_options": {"offered_load_erlangs": 8.0, "request_count": 1000},
            **warmup,
        }
        return {"optimizer": {"name": "dynamic_rwa", "options": {}}, "traffic": traffic}

    @pytest.mark.parametrize(
        "warmup", [False, True, "0.5", "abc", None, math.nan, math.inf, 1.0, -0.1]
    )
    def test_warmup_fraction_typos_are_refused_not_coerced(self, warmup):
        # float(False) is 0.0 and float("0.5") is 0.5: coercion would run a
        # typo; float("abc") and float(None) would escape as ValueError and
        # TypeError instead of a document error.
        with pytest.raises(ScenarioError, match="traffic 'warmup_fraction'"):
            Scenario.from_dict(self.traffic_document(warmup_fraction=warmup))

    @pytest.mark.parametrize(
        "warmup, fingerprint",
        [
            ({}, "b154af3877605402"),
            ({"warmup_fraction": 0}, "81e79ff3341c6014"),
            ({"warmup_fraction": 0.0}, "81e79ff3341c6014"),
            ({"warmup_fraction": 0.5}, "2c147f7316cdb3a2"),
        ],
    )
    def test_valid_warmup_fractions_keep_their_fingerprints(self, warmup, fingerprint):
        scenario = Scenario.from_dict(self.traffic_document(**warmup))
        assert scenario.fingerprint() == fingerprint
        assert type(scenario.traffic.warmup_fraction) is float


class TestScenarioBuilder:
    def test_builder_matches_explicit_construction(self):
        built = (
            ScenarioBuilder()
            .named("built")
            .grid(4, 4)
            .wavelengths(12)
            .workload("fork_join", branch_count=3)
            .mapping("default", stride=2)
            .objectives("time", "ber")
            .crosstalk("spatial")
            .genetic(population_size=16, generations=6)
            .optimizer("least_used")
            .seed(5)
            .build()
        )
        explicit = Scenario(
            name="built",
            wavelength_count=12,
            workload="fork_join",
            workload_options={"branch_count": 3},
            mapping="default",
            mapping_options={"stride": 2},
            objectives=("time", "ber"),
            crosstalk_scope="spatial",
            genetic=GeneticParameters(population_size=16, generations=6),
            optimizer="least_used",
            seed=5,
        )
        assert built == explicit

    def test_tune_merges_overrides(self):
        scenario = (
            ScenarioBuilder()
            .tune("photonic", quality_factor=4000.0)
            .tune("photonic", free_spectral_range_nm=10.0)
            .build()
        )
        assert scenario.overrides["photonic"] == {
            "quality_factor": 4000.0,
            "free_spectral_range_nm": 10.0,
        }
        assert scenario.onoc_configuration().photonic.quality_factor == 4000.0

    def test_builder_rejects_unknown_genetic_field(self):
        with pytest.raises(ScenarioError):
            ScenarioBuilder().genetic(population=10).build()


# -------------------------------------------------------------------- registries
class TestRegistries:
    def test_expected_names_present(self):
        for name in ("nsga2", "exhaustive", "first_fit", "most_used", "least_used", "random"):
            assert name in OPTIMIZERS
        for name in ("paper", "pipeline", "fork_join", "random", "fft", "gaussian_elimination"):
            assert name in WORKLOADS
        for name in ("paper", "round_robin", "random", "default"):
            assert name in MAPPING_STRATEGIES

    def test_unknown_name_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="unknown optimizer backend"):
            OPTIMIZERS.get("simulated-annealing")
        with pytest.raises(ScenarioError, match="unknown workload"):
            WORKLOADS.get("cholesky")

    def test_scenario_error_is_catchable_as_experiment_error(self):
        with pytest.raises(ExperimentError):
            MAPPING_STRATEGIES.get("teleport")
        with pytest.raises(ReproError):
            MAPPING_STRATEGIES.get("teleport")

    def test_duplicate_registration_rejected(self):
        registry: Registry = Registry("demo")
        registry.register("thing")(object())
        with pytest.raises(ScenarioError, match="already registered"):
            registry.register("thing")(object())

    def test_lookup_is_case_insensitive(self):
        assert OPTIMIZERS.get("NSGA2") is OPTIMIZERS.get("nsga2")


# ---------------------------------------------------------------------- backends
class TestBackends:
    def test_nsga2_backend_matches_direct_allocator_run(self, smoke_ga):
        architecture = RingOnocArchitecture.grid(4, 4, wavelength_count=8)
        task_graph = paper_task_graph()
        mapping = paper_mapping(architecture)
        evaluator = AllocationEvaluator(architecture, task_graph, mapping)
        direct = Nsga2Optimizer(evaluator, smoke_ga).run()

        backend = create_optimizer("nsga2")
        via_registry = backend.run(evaluator, OptimizerParameters(genetic=smoke_ga))

        assert via_registry.valid_solution_count == direct.valid_solution_count
        assert via_registry.pareto_size == len(direct.pareto_front)
        assert [s.chromosome.genes for s in via_registry.pareto_solutions] == [
            s.chromosome.genes for s in direct.pareto_solutions
        ]

    def test_every_heuristic_runs_by_name(self):
        for name in ("first_fit", "most_used", "least_used", "random"):
            outcome = execute_scenario(smoke_scenario(name=name, optimizer=name))
            assert outcome.result.backend == name
            assert outcome.result.pareto_size == 1
            solution = outcome.result.pareto_solutions[0]
            assert solution.is_valid

    def test_heuristic_sweep_pools_feasible_counts(self):
        scenario = smoke_scenario(
            optimizer="first_fit", optimizer_options={"sweep": [1, 2, 3, 88]}
        )
        outcome = execute_scenario(scenario)
        assert 1 <= outcome.result.valid_solution_count <= 3

    def test_heuristic_unknown_option_rejected(self):
        scenario = smoke_scenario(
            optimizer="first_fit", optimizer_options={"tartget_counts": 1}
        )
        with pytest.raises(ScenarioError, match="tartget_counts"):
            execute_scenario(scenario)

    def test_exhaustive_backend_on_tiny_instance(self):
        scenario = Scenario(
            name="tiny",
            rows=2,
            columns=2,
            wavelength_count=3,
            workload="pipeline",
            workload_options={"stage_count": 3},
            mapping="round_robin",
            optimizer="exhaustive",
        )
        outcome = execute_scenario(scenario)
        assert outcome.result.backend == "exhaustive"
        assert outcome.result.valid_solution_count > outcome.result.pareto_size >= 1

    def test_evaluator_respects_scenario_shape(self):
        scenario = smoke_scenario(
            workload="pipeline", workload_options={"stage_count": 4}, mapping="default"
        )
        evaluator = build_scenario_evaluator(scenario)
        assert evaluator.communication_count == 3
        assert evaluator.wavelength_count == 8


# ----------------------------------------------------------- seed determinism
def _graph_signature(task_graph):
    """Everything that distinguishes two task graphs, as a comparable value."""
    return (
        [(task.name, task.execution_cycles) for task in task_graph.tasks()],
        [
            (edge.source, edge.destination, edge.volume_bits)
            for edge in task_graph.communications()
        ],
    )


class TestScenarioSeedDeterminism:
    def test_unseeded_random_workload_is_deterministic_per_scenario(self):
        """Regression: ``workload("random")`` without an explicit seed used to
        call ``random_task_graph(seed=None)`` — a different graph on every
        materialization under one stable fingerprint, which also poisoned the
        study cache.  The scenario's effective seed must be folded in."""
        scenario = smoke_scenario(
            workload="random",
            workload_options={"task_count": 6},
            mapping="default",
        )
        first = build_scenario_evaluator(scenario).task_graph
        second = build_scenario_evaluator(scenario).task_graph
        assert _graph_signature(first) == _graph_signature(second)

    def test_scenario_seed_changes_the_random_workload(self):
        base = smoke_scenario(
            workload="random", workload_options={"task_count": 6}, mapping="default"
        )
        graph_a = build_scenario_evaluator(base.derive(seed=1)).task_graph
        graph_b = build_scenario_evaluator(base.derive(seed=2)).task_graph
        assert _graph_signature(graph_a) != _graph_signature(graph_b)

    def test_explicit_seed_option_wins(self):
        scenario = smoke_scenario(
            workload="random",
            workload_options={"task_count": 6, "seed": 99},
            mapping="default",
        )
        with_scenario_seed = build_scenario_evaluator(scenario.derive(seed=1))
        direct = build_workload("random", {"task_count": 6, "seed": 99})
        assert _graph_signature(with_scenario_seed.task_graph) == _graph_signature(direct)

    def test_unseeded_random_mapping_follows_scenario_seed(self):
        base = smoke_scenario(
            workload="pipeline", workload_options={"stage_count": 5}, mapping="random"
        )
        placements = set()
        for seed in (1, 2, 3):
            evaluator = build_scenario_evaluator(base.derive(seed=seed))
            again = build_scenario_evaluator(base.derive(seed=seed))
            placement = tuple(
                evaluator.mapping.core_of(name)
                for name in evaluator.task_graph.task_names()
            )
            assert placement == tuple(
                again.mapping.core_of(name)
                for name in again.task_graph.task_names()
            )
            placements.add(placement)
        assert len(placements) > 1


# ------------------------------------------------------------------------ study
class TestStudy:
    def scenarios(self):
        return [
            smoke_scenario(name=f"nw{count}", wavelength_count=count)
            for count in (4, 6, 8)
        ]

    def test_serial_and_parallel_results_identical(self):
        serial = Study(self.scenarios()).run()
        parallel = Study(self.scenarios()).run(parallel=2)
        assert [r.comparable_dict() for r in serial] == [
            r.comparable_dict() for r in parallel
        ]

    def test_duplicate_scenarios_share_one_execution(self):
        scenario = smoke_scenario()
        study = Study([scenario, scenario.derive(), scenario.derive()])
        result = study.run()
        assert len(result) == 3
        assert len(study.store) == 1
        first, second, third = result
        assert first.comparable_dict() == second.comparable_dict() == third.comparable_dict()

    def test_default_store_is_memory_backend_with_telemetry(self):
        study = Study([smoke_scenario()])
        first = study.run()
        second = study.run()
        assert first.store_backend == "memory" and first.store_path is None
        assert (first.store_hits, first.store_misses) == (0, 1)
        assert (second.store_hits, second.store_misses) == (1, 0)
        assert first.rows()[0]["store_hit"] is False
        assert second.rows()[0]["store_hit"] is True
        assert "Result store: memory — 1 hit(s), 0 miss(es)." in second.report()

    def test_cache_reused_across_runs(self):
        study = Study([smoke_scenario()])
        first = study.run()
        second = study.run()
        assert first.results[0] == second.results[0]

    def test_progress_callback_sees_every_scenario(self):
        seen = []
        Study(self.scenarios()).run(
            progress=lambda done, total, result: seen.append((done, total, result.name))
        )
        assert seen == [(1, 3, "nw4"), (2, 3, "nw6"), (3, 3, "nw8")]

    def test_progress_fires_during_serial_execution_not_after(self):
        cache_sizes = []
        study = Study(self.scenarios())
        study.run(progress=lambda done, total, result: cache_sizes.append(len(study.store)))
        # At the first callback only one scenario has executed; were progress
        # deferred to the end, the cache would already hold all three.
        assert cache_sizes == [1, 2, 3]

    def test_progress_fires_in_parallel_mode_and_covers_duplicates(self):
        scenario = smoke_scenario()
        seen = []
        Study([scenario, scenario.derive(), smoke_scenario(wavelength_count=4)]).run(
            parallel=2,
            progress=lambda done, total, result: seen.append((done, total)),
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_results_keep_scenario_order(self):
        result = Study(self.scenarios()).run(parallel=3)
        assert [r.name for r in result] == ["nw4", "nw6", "nw8"]

    def test_study_round_trip_and_csv(self, tmp_path):
        study = Study(self.scenarios(), name="trip")
        path = study.save(tmp_path / "study.json")
        restored = Study.load(path)
        assert restored.name == "trip"
        assert restored.scenarios == study.scenarios

        result = restored.run()
        csv_path = result.to_csv(tmp_path / "out.csv")
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 4  # header + one row per scenario
        assert lines[0].startswith("name,")
        assert "trip" in result.report()

    def test_scenario_result_round_trip(self):
        result = Study([smoke_scenario()]).run().results[0]
        assert ScenarioResult.from_dict(json.loads(json.dumps(result.to_dict()))) == result

    def test_bare_scenario_array_accepted(self, tmp_path):
        path = tmp_path / "plain.json"
        path.write_text(json.dumps([s.to_dict() for s in self.scenarios()]))
        assert len(Study.load(path)) == 3

    def test_empty_study_rejected(self):
        with pytest.raises(ScenarioError, match="at least one scenario"):
            Study([])


# ------------------------------------------------------------- paper suite shim
class TestPaperSuiteScenario:
    def test_paper_suite_record_runs_through_scenarios(self, smoke_ga):
        from repro.config import OnocConfiguration
        from repro.paper import PaperExperimentSuite

        suite = PaperExperimentSuite(
            wavelength_counts=(8,),
            configuration=OnocConfiguration(genetic=smoke_ga),
        )
        scenario = suite.scenario_for(8)
        assert scenario.workload == "paper"
        assert Scenario.from_dict(scenario.to_dict()) == scenario

        record = suite.record(8)
        assert record.scenario == scenario
        outcome = execute_scenario(scenario)
        assert record.result.valid_solution_count == outcome.result.valid_solution_count
        assert record.result.pareto_size == outcome.result.pareto_size
        assert record.pareto_rows() == outcome.pareto_rows()
