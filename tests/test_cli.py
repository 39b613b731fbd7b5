"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.analysis import write_csv
from repro.cli import _genetic_parameters, build_parser, main
from repro.config import GeneticParameters
from repro.errors import ReproError
from repro.paper import PaperExperimentSuite
from repro.scenarios import Scenario, execute_scenario


def run_cli(capsys, *argv: str) -> str:
    """Run the CLI and return its captured standard output."""
    exit_code = main(list(argv))
    captured = capsys.readouterr()
    assert exit_code == 0, captured.err
    return captured.out


FAST_GA = ("--population", "16", "--generations", "6")


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_paper_artefact_choices(self):
        parser = build_parser()
        args = parser.parse_args(["paper", "table2"])
        assert args.artefact == "table2"
        with pytest.raises(SystemExit):
            parser.parse_args(["paper", "fig99"])


class TestInfo:
    def test_describes_architecture_and_application(self, capsys):
        output = run_cli(capsys, "info")
        assert "4x4 IP cores" in output
        assert "8 wavelengths" in output
        assert "6 tasks" in output
        assert "Lp0" in output

    def test_respects_wavelength_flag(self, capsys):
        output = run_cli(capsys, "info", "--wavelengths", "12")
        assert "12 wavelengths" in output


class TestEvaluate:
    def test_single_wavelength_allocation(self, capsys):
        output = run_cli(capsys, "evaluate", "--allocation", "1,1,1,1,1,1")
        assert "[1, 1, 1, 1, 1, 1]" in output
        assert "38.00 kcc" in output
        assert "valid            : True" in output

    def test_csv_output(self, capsys, tmp_path):
        target = tmp_path / "eval.csv"
        output = run_cli(
            capsys, "evaluate", "--allocation", "1,1,1,1,1,1", "--csv", str(target)
        )
        assert target.exists()
        assert "wrote 1 rows" in output

    def test_bad_allocation_string_is_a_clean_error(self, capsys):
        exit_code = main(["evaluate", "--allocation", "1,x,1"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err

    def test_infeasible_allocation_is_a_clean_error(self, capsys):
        # Requesting every wavelength for conflicting communications cannot work.
        exit_code = main(["evaluate", "--allocation", "8,8,8,8,8,8"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err


class TestSimulate:
    def test_simulation_reports_makespan_and_conflicts(self, capsys):
        output = run_cli(capsys, "simulate", "--allocation", "1,1,1,1,1,1")
        assert "makespan             : 38.00 kcc" in output
        assert "wavelength conflicts : 0" in output

    def test_simulation_checks_the_analytical_schedule(self, capsys):
        output = run_cli(capsys, "simulate", "--allocation", "2,1,1,2,1,1")
        assert "analytical schedule  : 35.00 kcc" in output
        assert "verdict              : PASS" in output

    def test_simulate_accepts_registry_workload_and_mapping(self, capsys):
        output = run_cli(
            capsys,
            "simulate",
            "--workload", "pipeline",
            "--workload-options", '{"stage_count": 4}',
            "--mapping", "default",
            "--allocation", "1,1,1",
        )
        assert "workload 'pipeline', mapping 'default'" in output
        assert "verdict              : PASS" in output

    def test_unknown_workload_is_a_clean_error(self, capsys):
        exit_code = main(["simulate", "--workload", "warp", "--allocation", "1"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "unknown workload" in captured.err

    def test_bad_options_json_is_a_clean_error(self, capsys):
        exit_code = main(
            ["simulate", "--workload-options", "{oops", "--allocation", "1"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "--workload-options" in captured.err


class TestExplore:
    def test_explore_prints_pareto_table(self, capsys):
        output = run_cli(capsys, "explore", *FAST_GA)
        assert "Pareto front" in output
        assert "execution_time_kcycles" in output

    def test_explore_with_registry_optimizer(self, capsys):
        output = run_cli(capsys, "explore", "--optimizer", "first_fit")
        assert "(first_fit)" in output
        assert "1 on the Pareto front" in output

    def test_explore_on_registry_workload(self, capsys):
        output = run_cli(
            capsys,
            "explore",
            *FAST_GA,
            "--workload", "fork_join",
            "--mapping", "default",
        )
        assert "Pareto front" in output

    def test_explore_with_objective_subset_and_csv(self, capsys, tmp_path):
        target = tmp_path / "front.csv"
        output = run_cli(
            capsys,
            "explore",
            *FAST_GA,
            "--objectives",
            "time,energy",
            "--csv",
            str(target),
        )
        assert "(time, energy)" in output
        assert target.exists()
        assert target.read_text().startswith("wavelength_count")

    def test_explore_csv_rows_are_the_equivalent_scenario_rows(self, capsys, tmp_path):
        target = tmp_path / "front.csv"
        run_cli(
            capsys,
            "explore",
            *FAST_GA,
            "--workload", "pipeline",
            "--mapping", "round_robin",
            "--mapping-options", '{"stride": 2}',
            "--objectives", "time,energy",
            "--seed", "7",
            "--csv", str(target),
        )
        scenario = Scenario(
            workload="pipeline",
            mapping="round_robin",
            mapping_options={"stride": 2},
            objectives=("time", "energy"),
            genetic=GeneticParameters(population_size=16, generations=6, seed=7),
        )
        expected = write_csv(tmp_path / "expected.csv", execute_scenario(scenario).pareto_rows())
        assert target.read_text() == expected.read_text()


class TestGeneticFlagFallback:
    @staticmethod
    def args(population=None, generations=None, seed=2017):
        return argparse.Namespace(population=population, generations=generations, seed=seed)

    def test_none_falls_back_to_defaults(self):
        parameters = _genetic_parameters(self.args())
        assert parameters.population_size == 120
        assert parameters.generations == 80

    def test_explicit_values_are_kept(self):
        parameters = _genetic_parameters(self.args(population=16, generations=6))
        assert parameters.population_size == 16
        assert parameters.generations == 6

    def test_zero_population_is_rejected_not_replaced(self):
        with pytest.raises(ReproError, match="--population"):
            _genetic_parameters(self.args(population=0))

    def test_negative_generations_rejected(self):
        with pytest.raises(ReproError, match="--generations"):
            _genetic_parameters(self.args(generations=-5))

    def test_cli_reports_zero_population_cleanly(self, capsys):
        exit_code = main(["explore", "--population", "0"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "--population" in captured.err


def fast_scenario_dict(name="cli-scenario", wavelength_count=8):
    return {
        "name": name,
        "wavelength_count": wavelength_count,
        "genetic": {"population_size": 16, "generations": 4},
    }


class TestRunCommand:
    def test_template_prints_valid_scenario(self, capsys):
        from repro.scenarios import Scenario

        output = run_cli(capsys, "run", "--template")
        scenario = Scenario.from_json(output)
        assert scenario.optimizer == "nsga2"

    def test_run_executes_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(fast_scenario_dict()))
        output = run_cli(capsys, "run", str(path))
        assert "cli-scenario" in output
        assert "Pareto front" in output

    def test_run_writes_pareto_csv(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(fast_scenario_dict()))
        target = tmp_path / "front.csv"
        run_cli(capsys, "run", str(path), "--csv", str(target))
        assert target.read_text().startswith("wavelength_count")

    def test_run_profile_prints_phase_breakdown(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(fast_scenario_dict()))
        output = run_cli(capsys, "run", str(path), "--profile")
        assert "phase breakdown:" in output
        assert "evaluation" in output
        assert "selection" in output
        assert "operators" in output

    def test_run_without_profile_omits_phase_breakdown(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(fast_scenario_dict()))
        output = run_cli(capsys, "run", str(path))
        assert "phase breakdown" not in output

    def test_missing_scenario_argument_is_a_clean_error(self, capsys):
        exit_code = main(["run"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err

    def test_unreadable_file_is_a_clean_error(self, capsys, tmp_path):
        exit_code = main(["run", str(tmp_path / "missing.json")])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err

    def test_run_with_verify_flag_replays_the_front(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(fast_scenario_dict()))
        output = run_cli(capsys, "run", str(path), "--verify")
        assert "simulation divergence: none" in output
        assert "simulated_kcycles" in output

    def test_run_honours_scenario_verification_block(self, capsys, tmp_path):
        document = fast_scenario_dict()
        document["verification"] = {"simulate": True}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(document))
        output = run_cli(capsys, "run", str(path))
        assert "simulation divergence: none" in output

    def test_run_tolerance_applies_to_scenario_verification_block(
        self, capsys, tmp_path
    ):
        document = fast_scenario_dict()
        document["verification"] = {"simulate": True, "tolerance": 0.5}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(document))
        # --tolerance must override the block's value even without --verify.
        output = run_cli(capsys, "run", str(path), "--tolerance", "0.25")
        assert "simulation divergence: none" in output

    def test_run_tolerance_without_verification_is_a_clean_error(
        self, capsys, tmp_path
    ):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(fast_scenario_dict()))
        exit_code = main(["run", str(path), "--tolerance", "0.5"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "--tolerance" in captured.err


class TestStudyCommand:
    def test_study_runs_batch_and_writes_csv(self, capsys, tmp_path):
        document = {
            "schema": "repro.study/1",
            "name": "cli-study",
            "scenarios": [
                fast_scenario_dict(name=f"nw{count}", wavelength_count=count)
                for count in (4, 8)
            ],
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(document))
        target = tmp_path / "summary.csv"
        output = run_cli(capsys, "study", str(path), "--csv", str(target))
        assert "[1/2]" in output and "[2/2]" in output
        assert "cli-study" in output
        assert target.read_text().startswith("name,")

    def test_study_parallel_flag(self, capsys, tmp_path):
        document = [
            fast_scenario_dict(name=f"nw{count}", wavelength_count=count)
            for count in (4, 8)
        ]
        path = tmp_path / "plain.json"
        path.write_text(json.dumps(document))
        output = run_cli(capsys, "study", str(path), "--parallel", "2")
        assert "2 scenarios" in output

    def test_study_with_verification_writes_replay_csv(self, capsys, tmp_path):
        scenario = fast_scenario_dict()
        scenario["verification"] = {"simulate": True}
        path = tmp_path / "verified.json"
        path.write_text(json.dumps([scenario]))
        target = tmp_path / "verification.csv"
        output = run_cli(
            capsys, "study", str(path), "--verification-csv", str(target)
        )
        assert "Simulation verification" in output
        assert "all replays conflict-free" in output
        header = target.read_text().splitlines()[0]
        assert "scenario" in header and "simulated_kcycles" in header


class TestStoreCommands:
    def _study_file(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text(
            json.dumps(
                [
                    fast_scenario_dict(name=f"nw{count}", wavelength_count=count)
                    for count in (4, 8)
                ]
            )
        )
        return path

    def test_run_store_serves_second_invocation_from_cache(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(fast_scenario_dict()))
        store = tmp_path / "results.sqlite"
        cold = run_cli(capsys, "run", str(path), "--store", str(store))
        assert "served from result store" not in cold
        warm = run_cli(capsys, "run", str(path), "--store", str(store))
        assert "served from result store" in warm
        assert "no optimizer executed" in warm
        # The cached table is the same Pareto front the cold run printed.
        assert cold.splitlines()[-1] == warm.splitlines()[-1]

    def test_study_store_warm_start_reports_hits(self, capsys, tmp_path):
        study = self._study_file(tmp_path)
        store = tmp_path / "results.sqlite"
        cold = run_cli(capsys, "study", str(study), "--store", str(store))
        assert "0 hit(s), 2 miss(es)" in cold
        warm = run_cli(capsys, "study", str(study), "--store", str(store))
        assert "2 hit(s), 0 miss(es)" in warm

    def test_cache_ls_stats_gc_export(self, capsys, tmp_path):
        study = self._study_file(tmp_path)
        store = tmp_path / "results.sqlite"
        run_cli(capsys, "study", str(study), "--store", str(store))

        listing = run_cli(capsys, "cache", "ls", "--store", str(store))
        assert "2 result(s)" in listing and "nw4" in listing and "nw8" in listing

        stats = run_cli(capsys, "cache", "stats", "--store", str(store))
        assert "backend" in stats and "sqlite" in stats
        assert "entries" in stats and "study" in stats

        dump = tmp_path / "dump.json"
        export = run_cli(
            capsys, "cache", "export", "--store", str(store), "--output", str(dump)
        )
        assert "exported 2 document(s)" in export
        documents = json.loads(dump.read_text())
        assert {doc["name"] for doc in documents} == {"nw4", "nw8"}

        gc = run_cli(capsys, "cache", "gc", "--store", str(store), "--max-entries", "1")
        assert "evicted 1 result(s); 1 remaining" in gc

    def test_cache_export_to_stdout(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(fast_scenario_dict()))
        store = tmp_path / "results.sqlite"
        run_cli(capsys, "run", str(path), "--store", str(store))
        output = run_cli(capsys, "cache", "export", "--store", str(store))
        assert json.loads(output)[0]["name"] == "cli-scenario"

    def test_cache_gc_without_policy_is_a_clean_error(self, capsys, tmp_path):
        store = tmp_path / "results.sqlite"
        run_cli(capsys, "cache", "stats", "--store", str(store))  # creates the db
        exit_code = main(["cache", "gc", "--store", str(store)])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "--max-entries" in captured.err

    def test_serve_on_occupied_port_is_a_clean_error(self, capsys, tmp_path):
        import socket

        store = tmp_path / "results.sqlite"
        run_cli(capsys, "cache", "stats", "--store", str(store))  # creates the db
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            port = blocker.getsockname()[1]
            exit_code = main(["serve", "--store", str(store), "--port", str(port)])
        finally:
            blocker.close()
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "cannot bind" in captured.err

    def test_cache_on_corrupt_store_is_a_clean_error(self, capsys, tmp_path):
        store = tmp_path / "broken.sqlite"
        store.write_bytes(b"junk" * 100)
        exit_code = main(["cache", "stats", "--store", str(store)])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err


class TestTopologiesCommand:
    def test_lists_every_registered_topology(self, capsys):
        from repro.topology import TOPOLOGIES

        output = run_cli(capsys, "topologies")
        for name in TOPOLOGIES.names():
            assert name in output
        assert "worst_case_loss_db" in output

    def test_csv_export(self, capsys, tmp_path):
        target = tmp_path / "topologies.csv"
        run_cli(capsys, "topologies", "--csv", str(target))
        lines = target.read_text().splitlines()
        assert "topology" in lines[0]
        assert len(lines) >= 4  # header + three topologies


class TestTopologyFlags:
    def test_explore_runs_on_a_crossbar(self, capsys):
        output = run_cli(
            capsys,
            "explore",
            *FAST_GA,
            "--topology",
            "crossbar",
            "--mapping",
            "default",
        )
        assert "Pareto front" in output

    def test_simulate_on_multi_ring_passes(self, capsys):
        output = run_cli(
            capsys,
            "simulate",
            "--topology",
            "multi_ring",
            "--topology-options",
            '{"layers": 2}',
            "--mapping",
            "default",
            "--allocation",
            "1,1,1,1,1,1",
        )
        assert "PASS" in output

    def test_run_topology_override(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        document = fast_scenario_dict()
        document["mapping"] = "default"
        path.write_text(json.dumps(document))
        output = run_cli(
            capsys, "run", str(path), "--topology", "crossbar"
        )
        assert "topology 'crossbar'" in output

    def test_topology_options_without_topology_rejected(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(fast_scenario_dict()))
        exit_code = main(["run", str(path), "--topology-options", '{"layers": 2}'])
        assert exit_code == 2
        assert "--topology" in capsys.readouterr().err

    def test_unknown_topology_rejected(self, capsys):
        exit_code = main(["info", "--topology", "torus"])
        assert exit_code == 2
        assert "unknown topology" in capsys.readouterr().err

    def test_mistyped_topology_option_value_rejected_cleanly(self, capsys):
        exit_code = main(
            ["info", "--topology", "multi_ring", "--topology-options", '{"layers": "two"}']
        )
        assert exit_code == 2
        assert "invalid options for topology 'multi_ring'" in capsys.readouterr().err

    def test_paper_artefacts_refuse_non_ring_topologies(self, capsys):
        exit_code = main(["paper", "table1", "--topology", "crossbar"])
        assert exit_code == 2
        assert "'ring' topology" in capsys.readouterr().err


class TestPaperArtefacts:
    def test_table1(self, capsys):
        output = run_cli(capsys, "paper", "table1")
        assert "Propagation loss" in output
        assert "-0.274 dB/cm" in output

    def test_table2(self, capsys):
        output = run_cli(capsys, "paper", "table2", *FAST_GA)
        assert "pareto_front_size" in output
        assert "valid_solution_count" in output

    def test_fig6a_ascii_plot(self, capsys):
        output = run_cli(capsys, "paper", "fig6a", *FAST_GA)
        assert "bit energy (fJ/bit)" in output
        assert "execution time (kcc)" in output

    def test_fig7_for_eight_wavelengths(self, capsys):
        output = run_cli(capsys, "paper", "fig7", *FAST_GA, "--wavelengths", "8")
        assert "Pareto front" in output
        assert "log10(BER)" in output

    @pytest.mark.parametrize(
        "flags",
        [
            ("--workload", "fft"),
            ("--mapping", "round_robin"),
            ("--rows", "2"),
            ("--columns", "2"),
            ("--workload-options", "{}"),
            ("--mapping-options", '{"stride": 2}'),
            ("--topology-options", '{"layers": 2}'),
        ],
    )
    def test_flags_that_change_the_paper_setup_are_rejected(self, capsys, flags):
        exit_code = main(["paper", "table2", *FAST_GA, *flags])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.out == ""
        assert flags[0] in captured.err
        assert "paper's 4x4 grid, workload and mapping" in captured.err

    @pytest.mark.parametrize(
        "full_scale,flags,sizing",
        [
            ("1", (), (400, 300)),
            # An explicit flag replaces only its own half of the sizing.
            ("1", ("--generations", "2"), (400, 2)),
            (None, (), (120, 80)),
            (None, FAST_GA, (16, 6)),
        ],
    )
    def test_ga_sizing_follows_paper_full_unless_flags_are_given(
        self, capsys, monkeypatch, full_scale, flags, sizing
    ):
        if full_scale is None:
            monkeypatch.delenv("REPRO_PAPER_FULL", raising=False)
        else:
            monkeypatch.setenv("REPRO_PAPER_FULL", full_scale)
        seen = []

        def fake_table2(suite):
            seen.append(suite.configuration.genetic)
            return [{"wavelength_count": 8}]

        monkeypatch.setattr(PaperExperimentSuite, "table2", fake_table2)
        run_cli(capsys, "paper", "table2", *flags)
        assert [(genetic.population_size, genetic.generations) for genetic in seen] == [sizing]
