"""Tests for the dynamic-traffic RWA subsystem (:mod:`repro.traffic`).

Covers the traffic-model and online-allocator registries, the event-driven
blocking simulator (with its Erlang-B analytical oracle and the
release-before-acquire tie-break), determinism of seeded streams and
reports, the scenario/study/store plumbing of ``dynamic_rwa`` scenarios,
and the ``repro traffic`` CLI sweep — including the pinned qualitative
strategy ordering of the documented default sweep.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.cli import main
from repro.errors import ScenarioError, TrafficError
from repro.scenarios import Scenario, ScenarioBuilder, TrafficSettings, execute_scenario
from repro.scenarios.study import Study, fetch_or_execute
from repro.store import MemoryStore
from repro.telemetry import MetricsRegistry, set_registry
from repro.topology import build_topology
from repro.traffic import (
    ALLOCATOR_SEED_OFFSET,
    DEFAULT_SWEEP_SEED,
    ONLINE_ALLOCATORS,
    TRAFFIC_MODELS,
    BlockingReport,
    DynamicTrafficSimulator,
    OnlineAllocator,
    build_online_allocator,
    build_traffic_model,
    erlang_b,
    sweep_blocking,
    sweep_rows,
    wilson_interval,
)


def small_poisson(seed=7, **overrides):
    options = {"offered_load_erlangs": 8.0, "request_count": 200}
    options.update(overrides)
    return build_traffic_model("poisson", options, seed=seed)


def ring_simulator(model, strategy="first_fit", wavelength_count=4, seed=7):
    topology = build_topology("ring", 2, 2, wavelength_count=wavelength_count)
    allocator = build_online_allocator(strategy, None, seed=seed + ALLOCATOR_SEED_OFFSET)
    return DynamicTrafficSimulator(topology, model, allocator, topology_name="ring")


# ------------------------------------------------------------------ registries
class TestRegistries:
    def test_traffic_models_registered(self):
        assert {"poisson", "trace"} <= set(TRAFFIC_MODELS.names())

    def test_online_allocators_registered(self):
        assert {"first_fit", "least_used", "most_used", "random"} <= set(
            ONLINE_ALLOCATORS.names()
        )

    def test_unknown_names_rejected(self):
        with pytest.raises(ScenarioError):
            build_traffic_model("tsunami")
        with pytest.raises(ScenarioError):
            build_online_allocator("psychic")

    def test_bad_model_options_are_a_traffic_error(self):
        with pytest.raises(TrafficError):
            build_traffic_model("poisson", {"warp_factor": 9})

    def test_root_package_exports(self):
        for name in (
            "TrafficModel",
            "TRAFFIC_MODELS",
            "OnlineAllocator",
            "ONLINE_ALLOCATORS",
            "ConnectionRequest",
            "BlockingReport",
            "DynamicTrafficSimulator",
            "TrafficSettings",
            "TrafficError",
            "erlang_b",
            "sweep_blocking",
        ):
            assert hasattr(repro, name), name
            assert name in repro.__all__


# ---------------------------------------------------------------------- models
class TestTrafficModels:
    def test_poisson_stream_is_seed_deterministic(self):
        cores = list(range(16))
        first = small_poisson(seed=42).requests(cores)
        second = small_poisson(seed=42).requests(cores)
        assert first == second

    def test_different_seeds_differ(self):
        cores = list(range(16))
        assert small_poisson(seed=1).requests(cores) != small_poisson(seed=2).requests(cores)

    def test_poisson_stream_shape(self):
        stream = small_poisson().requests(list(range(4)))
        assert len(stream) == 200
        arrivals = [request.arrival for request in stream]
        assert arrivals == sorted(arrivals)
        assert all(request.source != request.destination for request in stream)
        assert all(request.holding > 0.0 for request in stream)
        assert [request.index for request in stream] == list(range(200))

    def test_explicit_seed_in_options_wins(self):
        cores = list(range(4))
        pinned = build_traffic_model(
            "poisson", {"request_count": 50, "seed": 5}, seed=99
        )
        reference = build_traffic_model("poisson", {"request_count": 50}, seed=5)
        assert pinned.requests(cores) == reference.requests(cores)

    def test_pairs_restrict_endpoints(self):
        stream = small_poisson(pairs=[[0, 1]]).requests(list(range(4)))
        assert {(request.source, request.destination) for request in stream} == {(0, 1)}

    def test_self_loop_pair_rejected(self):
        with pytest.raises(TrafficError):
            small_poisson(pairs=[[2, 2]])

    def test_connection_request_round_trip(self):
        stream = small_poisson().requests(list(range(4)))
        for request in stream[:10]:
            assert type(request).from_dict(request.to_dict()) == request

    def test_connection_request_validation(self):
        from repro.traffic import ConnectionRequest

        with pytest.raises(TrafficError):
            ConnectionRequest(index=0, source=1, destination=1, arrival=0.0, holding=1.0)
        with pytest.raises(TrafficError):
            ConnectionRequest(index=0, source=0, destination=1, arrival=-1.0, holding=1.0)
        with pytest.raises(TrafficError):
            ConnectionRequest(index=0, source=0, destination=1, arrival=0.0, holding=0.0)

    def test_trace_replays_sorted_events(self):
        events = [
            {"source": 2, "destination": 3, "arrival": 5.0, "holding": 1.0},
            {"source": 0, "destination": 1, "arrival": 1.0, "holding": 2.0},
        ]
        stream = build_traffic_model("trace", {"events": events}).requests(range(4))
        assert [(r.source, r.arrival) for r in stream] == [(0, 1.0), (2, 5.0)]
        assert [r.index for r in stream] == [0, 1]

    def test_trace_from_json_file(self, tmp_path):
        events = [{"source": 0, "destination": 1, "arrival": 0.5, "holding": 1.5}]
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(events))
        stream = build_traffic_model("trace", {"path": str(path)}).requests(range(2))
        assert len(stream) == 1
        assert stream[0].departure == 2.0

    def test_trace_needs_exactly_one_source(self):
        with pytest.raises(TrafficError):
            build_traffic_model("trace", {})
        with pytest.raises(TrafficError):
            build_traffic_model(
                "trace", {"events": [], "path": "x.json"}
            )

    def test_trace_rejects_foreign_cores(self):
        events = [{"source": 0, "destination": 99, "arrival": 0.0, "holding": 1.0}]
        model = build_traffic_model("trace", {"events": events})
        with pytest.raises(TrafficError):
            model.requests(range(4))


# ------------------------------------------------------------------ allocators
class TestOnlineAllocators:
    REQUEST = None  # allocators may ignore the request; pass None

    def test_first_fit_picks_lowest(self):
        allocator = build_online_allocator("first_fit")
        assert allocator.choose(self.REQUEST, (3, 1, 2), [0, 0, 0, 0]) == 1

    def test_least_used_prefers_cold_wavelengths(self):
        allocator = build_online_allocator("least_used")
        assert allocator.choose(self.REQUEST, (0, 1, 2), [5, 1, 3]) == 1

    def test_most_used_prefers_hot_wavelengths(self):
        allocator = build_online_allocator("most_used")
        assert allocator.choose(self.REQUEST, (0, 1, 2), [5, 1, 3]) == 0

    def test_ties_break_by_lowest_index(self):
        least = build_online_allocator("least_used")
        most = build_online_allocator("most_used")
        assert least.choose(self.REQUEST, (2, 1), [0, 4, 4]) == 1
        assert most.choose(self.REQUEST, (2, 1), [0, 4, 4]) == 1

    def test_one_class_serves_every_policy(self):
        for name in ONLINE_ALLOCATORS.names():
            allocator = build_online_allocator(name, None, seed=3)
            assert type(allocator) is OnlineAllocator and allocator.name == name
        with pytest.raises(TrafficError):
            OnlineAllocator("psychic")

    def test_random_is_seeded_and_in_range(self):
        first = build_online_allocator("random", None, seed=11)
        second = build_online_allocator("random", None, seed=11)
        free = (0, 2, 5)
        choices = [first.choose(self.REQUEST, free, [0] * 6) for _ in range(20)]
        assert choices == [second.choose(self.REQUEST, free, [0] * 6) for _ in range(20)]
        assert set(choices) <= set(free)


# ------------------------------------------------------------------- simulator
class TestDynamicTrafficSimulator:
    def test_identical_runs_are_bit_identical(self):
        first = ring_simulator(small_poisson()).run()
        second = ring_simulator(small_poisson()).run()
        assert first == second

    def test_report_round_trip_is_identity(self):
        report = ring_simulator(small_poisson()).run()
        assert BlockingReport.from_dict(report.to_dict()) == report
        assert (
            BlockingReport.from_dict(json.loads(json.dumps(report.to_dict()))) == report
        )

    def test_counts_are_consistent(self):
        report = ring_simulator(small_poisson()).run()
        assert report.total_requests == 200
        assert report.warmup_excluded == 20
        assert report.offered == 180
        assert 0 <= report.blocked <= report.offered
        assert report.carried == report.offered - report.blocked
        assert report.wilson_low <= report.blocking_probability <= report.wilson_high
        assert 0.0 <= report.mean_link_utilisation <= 1.0
        assert len(report.per_wavelength_carried) == 4

    def test_single_wavelength_forces_blocking(self):
        # Two simultaneous-lifetime connections over the same segment, NW=1:
        # the second arrival must block.
        events = [
            {"source": 0, "destination": 1, "arrival": 0.0, "holding": 10.0},
            {"source": 0, "destination": 1, "arrival": 1.0, "holding": 10.0},
        ]
        model = build_traffic_model("trace", {"events": events})
        report = ring_simulator(model, wavelength_count=1).run()
        assert report.blocked == 1
        assert report.blocking_probability == 0.5

    def test_departure_frees_capacity_at_equal_timestamp(self):
        # The second request arrives exactly when the first departs; the
        # release-before-acquire tie-break must admit it.
        events = [
            {"source": 0, "destination": 1, "arrival": 0.0, "holding": 2.0},
            {"source": 0, "destination": 1, "arrival": 2.0, "holding": 1.0},
        ]
        model = build_traffic_model("trace", {"events": events})
        report = ring_simulator(model, wavelength_count=1).run()
        assert report.blocked == 0

    def test_misbehaving_allocator_is_rejected(self):
        class RogueAllocator:
            name = "rogue"

            def choose(self, request, free, usage):
                return -1

            def describe(self):
                return "rogue"

        topology = build_topology("ring", 2, 2, wavelength_count=2)
        simulator = DynamicTrafficSimulator(
            topology, small_poisson(), RogueAllocator(), topology_name="ring"
        )
        with pytest.raises(TrafficError):
            simulator.run()

    def test_bad_warmup_fraction_rejected(self):
        topology = build_topology("ring", 2, 2, wavelength_count=2)
        allocator = build_online_allocator("first_fit")
        with pytest.raises(TrafficError):
            DynamicTrafficSimulator(
                topology, small_poisson(), allocator, warmup_fraction=1.0
            )

    def test_matches_erlang_b_on_a_single_pair(self):
        # One source-destination pair is an M/M/NW/NW loss system.
        offered, servers = 3.0, 4
        model = build_traffic_model(
            "poisson",
            {
                "offered_load_erlangs": offered,
                "request_count": 6000,
                "pairs": [[0, 1]],
            },
            seed=2017,
        )
        topology = build_topology("ring", 1, 2, wavelength_count=servers)
        allocator = build_online_allocator("first_fit", None, seed=2018)
        report = DynamicTrafficSimulator(
            topology, model, allocator, topology_name="ring"
        ).run()
        assert report.blocking_probability == pytest.approx(
            erlang_b(offered, servers), abs=0.03
        )

    def test_matches_erlang_b_within_two_points_on_a_long_run(self):
        # 40 000 requests shrink the binomial sampling noise to ~0.002, so the
        # 0.02 bound only trips on a genuinely wrong simulator.
        offered, servers = 3.0, 4
        model = build_traffic_model(
            "poisson",
            {
                "offered_load_erlangs": offered,
                "request_count": 40_000,
                "pairs": [[0, 1]],
            },
            seed=2017,
        )
        topology = build_topology("ring", 1, 2, wavelength_count=servers)
        allocator = build_online_allocator("first_fit", None, seed=2018)
        report = DynamicTrafficSimulator(
            topology, model, allocator, topology_name="ring"
        ).run()
        assert abs(report.blocking_probability - erlang_b(offered, servers)) <= 0.02


class TestAnalyticalHelpers:
    def test_erlang_b_known_values(self):
        assert erlang_b(5.0, 0) == 1.0
        assert erlang_b(0.0, 4) == 0.0
        assert erlang_b(5.0, 5) == pytest.approx(0.28487, abs=1e-5)

    def test_erlang_b_rejects_negative_inputs(self):
        with pytest.raises(TrafficError):
            erlang_b(-1.0, 4)
        with pytest.raises(TrafficError):
            erlang_b(1.0, -1)

    def test_wilson_interval_brackets_the_proportion(self):
        low, high = wilson_interval(30, 100)
        assert 0.0 <= low < 0.3 < high <= 1.0
        assert wilson_interval(0, 0) == (0.0, 0.0)

    def test_wilson_interval_stays_in_unit_range_at_extremes(self):
        assert wilson_interval(0, 50)[0] == 0.0
        assert wilson_interval(50, 50)[1] == 1.0


# ----------------------------------------------------------------------- sweep
class TestSweep:
    def test_sweep_shape_and_order(self):
        reports = sweep_blocking(
            rows=2,
            columns=2,
            wavelength_counts=(1, 2),
            strategies=("first_fit", "random"),
            loads=(4.0,),
            request_count=100,
        )
        assert len(reports) == 4
        assert [r.wavelength_count for r in reports] == [1, 1, 2, 2]
        assert [r.strategy for r in reports] == ["first_fit", "random"] * 2

    def test_sweep_rows_annotate_offered_load(self):
        reports = sweep_blocking(
            rows=2,
            columns=2,
            strategies=("first_fit",),
            loads=(4.0, 8.0),
            request_count=100,
        )
        rows = sweep_rows(
            reports, loads=(4.0, 8.0), wavelength_counts=(4,), strategies=("first_fit",)
        )
        assert [row["offered_load_erlangs"] for row in rows] == [4.0, 8.0]

    def test_empty_axes_rejected(self):
        with pytest.raises(TrafficError):
            sweep_blocking(strategies=())
        with pytest.raises(TrafficError):
            sweep_blocking(loads=())
        with pytest.raises(TrafficError):
            sweep_blocking(wavelength_counts=())

    def test_default_sweep_reproduces_the_documented_ordering(self):
        # The README/CLI reference sweep: on the default seed the classic
        # qualitative ordering holds at every default load point.  This pins
        # DEFAULT_SWEEP_SEED — a seed change must come with a new scan.
        loads = (8.0, 16.0, 24.0)
        strategies = ("first_fit", "least_used", "random")
        reports = sweep_blocking(
            strategies=strategies, loads=loads, seed=DEFAULT_SWEEP_SEED
        )
        for point in range(len(loads)):
            first_fit, least_used, random_ = reports[
                point * len(strategies) : (point + 1) * len(strategies)
            ]
            assert (
                least_used.blocking_probability
                <= first_fit.blocking_probability
                <= random_.blocking_probability
            ), (loads[point], [r.blocking_probability for r in reports])


# ------------------------------------------------------------------- scenarios
def dynamic_scenario(**traffic_overrides) -> Scenario:
    traffic = {
        "model": "poisson",
        "strategy": "least_used",
        "offered_load_erlangs": 8.0,
        "request_count": 300,
    }
    traffic.update(traffic_overrides)
    model_options = {
        key: traffic[key]
        for key in ("offered_load_erlangs", "request_count")
        if key in traffic
    }
    return (
        ScenarioBuilder()
        .named("dyn-test")
        .grid(2, 2)
        .topology("ring")
        .wavelengths(2)
        .traffic(model=traffic["model"], strategy=traffic["strategy"], **model_options)
        .seed(11)
        .build()
    )


class TestDynamicScenarios:
    def test_builder_sets_traffic_and_optimizer(self):
        scenario = dynamic_scenario()
        assert scenario.optimizer == "dynamic_rwa"
        assert scenario.traffic is not None
        assert scenario.traffic.strategy == "least_used"

    def test_scenario_round_trip_preserves_fingerprint(self):
        scenario = dynamic_scenario()
        clone = Scenario.from_dict(json.loads(scenario.to_json()))
        assert clone == scenario
        assert clone.fingerprint() == scenario.fingerprint()

    def test_static_scenarios_emit_no_traffic_key(self):
        # Pre-existing fingerprints must stay byte-identical.
        assert "traffic" not in Scenario(name="static").to_dict()

    def test_traffic_requires_dynamic_optimizer(self):
        with pytest.raises(ScenarioError):
            Scenario(
                name="bad",
                traffic=TrafficSettings(),
            )

    def test_dynamic_optimizer_requires_traffic(self):
        with pytest.raises(ScenarioError):
            Scenario(name="bad", optimizer="dynamic_rwa")

    def test_dynamic_backend_refuses_static_execution(self):
        from repro.scenarios import create_optimizer

        backend = create_optimizer("dynamic_rwa")
        with pytest.raises(ScenarioError):
            backend.run(None, None)

    def test_execute_scenario_is_deterministic(self):
        first = execute_scenario(dynamic_scenario())
        second = execute_scenario(dynamic_scenario())
        assert first.blocking == second.blocking
        assert first.blocking is not None
        summary = first.summary()
        assert summary.is_dynamic
        assert summary.blocking_report() == first.blocking
        assert summary.evaluations == first.blocking.total_requests

    def test_summary_round_trip_keeps_blocking(self):
        summary = execute_scenario(dynamic_scenario()).summary()
        clone = type(summary).from_dict(json.loads(json.dumps(summary.to_dict())))
        assert clone.blocking == summary.blocking
        assert clone.blocking_report() == summary.blocking_report()

    def test_summary_row_carries_blocking_columns(self):
        row = execute_scenario(dynamic_scenario()).summary().summary_row()
        assert "blocking_probability" in row
        assert row["traffic_strategy"] == "least_used"

    def test_warm_rerun_serves_identical_report_without_simulating(self, monkeypatch):
        store = MemoryStore()
        scenario = dynamic_scenario()
        cold, served_cold = fetch_or_execute(scenario, store=store)
        assert not served_cold
        monkeypatch.setattr(
            DynamicTrafficSimulator,
            "run",
            lambda self: pytest.fail("warm path must not simulate"),
        )
        warm, served_warm = fetch_or_execute(scenario, store=store)
        assert served_warm
        assert warm.blocking == cold.blocking
        assert warm.blocking_report() == cold.blocking_report()

    def test_study_serial_and_parallel_agree(self):
        scenarios = [
            dynamic_scenario(),
            dynamic_scenario(strategy="first_fit"),
        ]
        serial = Study(scenarios).run()
        parallel = Study(scenarios).run(parallel=2)
        assert [r.blocking for r in serial.results] == [
            r.blocking for r in parallel.results
        ]
        assert all(r.blocking is not None for r in serial.results)


# -------------------------------------------------------------------- devtools
def test_traffic_tree_is_lint_clean_without_markers():
    """R001/R004 (and every other rule) hold over the subsystem — with no
    allowlist markers doing the work."""
    from pathlib import Path

    from repro.devtools import ALL_RULES, LintEngine
    from repro.devtools.engine import MARKER_PATTERN

    root = Path(__file__).resolve().parent.parent
    traffic = root / "src" / "repro" / "traffic"
    violations, checked = LintEngine(ALL_RULES).lint_paths([traffic], root=root)
    assert checked >= 5
    assert violations == [], "\n".join(v.format() for v in violations)
    for path in traffic.rglob("*.py"):
        assert not MARKER_PATTERN.search(path.read_text()), path


# ------------------------------------------------------------------------- CLI
class TestTrafficCli:
    def run_cli(self, capsys, *argv):
        exit_code = main(list(argv))
        captured = capsys.readouterr()
        assert exit_code == 0, captured.err
        return captured.out

    def test_sweep_table_and_ordering_lines(self, capsys):
        output = self.run_cli(
            capsys,
            "traffic",
            "--rows",
            "2",
            "--columns",
            "2",
            "--loads",
            "4",
            "--requests",
            "150",
            "--strategies",
            "first_fit,random",
        )
        assert "blocking_probability" in output
        assert "ordering at 4 Erlangs" in output

    def test_csv_export(self, capsys, tmp_path):
        target = tmp_path / "blocking.csv"
        self.run_cli(
            capsys,
            "traffic",
            "--rows",
            "2",
            "--columns",
            "2",
            "--loads",
            "4",
            "--requests",
            "100",
            "--strategies",
            "first_fit",
            "--csv",
            str(target),
        )
        header = target.read_text().splitlines()[0]
        assert "blocking_probability" in header

    def test_bad_loads_value_is_a_clean_error(self, capsys):
        assert main(["traffic", "--loads", "fast"]) == 2
        assert "--loads" in capsys.readouterr().err

    def test_run_rejects_a_non_integer_seed_cleanly(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        scenario = dynamic_scenario(strategy="random")
        document = scenario.to_dict()
        document["traffic"]["strategy_options"] = {"seed": "abc"}
        path.write_text(json.dumps(document))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: invalid options for online allocator 'random': "
        ), captured.err
        assert "Traceback" not in captured.err

    def test_run_prints_blocking_summary(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        dynamic_scenario().save(path)
        output = self.run_cli(capsys, "run", str(path))
        assert "blocking probability" in output
        assert "dynamic traffic" in output


# ------------------------------------------------------- sweep as scenarios
def hand_wired_sweep(
    topology="ring",
    rows=4,
    columns=4,
    wavelength_counts=(4,),
    strategies=("first_fit", "least_used", "most_used", "random"),
    loads=(8.0, 16.0, 24.0),
    request_count=2000,
    mean_holding=1.0,
    warmup_fraction=0.1,
    seed=DEFAULT_SWEEP_SEED,
    model="poisson",
    model_options=None,
    topology_options=None,
):
    """The reference sweep: topology, model, allocator and simulator wired by hand."""
    reports = []
    for load in loads:
        for wavelength_count in wavelength_counts:
            built = build_topology(
                topology,
                rows,
                columns,
                wavelength_count=wavelength_count,
                options=dict(topology_options or {}),
            )
            for strategy in strategies:
                options = dict(model_options or {})
                if model == "poisson":
                    options.setdefault("offered_load_erlangs", float(load))
                    options.setdefault("mean_holding", float(mean_holding))
                    options.setdefault("request_count", int(request_count))
                traffic = build_traffic_model(model, options, seed=seed)
                allocator = build_online_allocator(
                    strategy, None, seed=seed + ALLOCATOR_SEED_OFFSET
                )
                simulator = DynamicTrafficSimulator(
                    built,
                    traffic,
                    allocator,
                    warmup_fraction=warmup_fraction,
                    topology_name=topology,
                )
                reports.append(simulator.run())
    return reports


def recorded_trace(count=40):
    """A trace-model event list recorded from a seeded Poisson stream."""
    stream = small_poisson(seed=11, request_count=count).requests(range(16))
    return [
        {key: value for key, value in request.to_dict().items() if key != "index"}
        for request in stream
    ]


SWEEP_CASES = {
    "ring": dict(wavelength_counts=(2, 4), loads=(8.0, 16.0), request_count=300),
    "multi_ring": dict(
        topology="multi_ring",
        topology_options={"layers": 2},
        wavelength_counts=(2, 4),
        loads=(4.0, 8.0),
        request_count=300,
    ),
    "crossbar": dict(topology="crossbar", wavelength_counts=(2, 4), loads=(8.0,), seed=7),
    "trace": dict(
        model="trace",
        model_options={"events": recorded_trace()},
        wavelength_counts=(2, 4),
        loads=(0.0,),
        warmup_fraction=0.0,
    ),
}


class TestSweepRunsScenarios:
    """Every sweep point is one dynamic scenario run through execute_scenario."""

    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_sweep_equals_the_hand_wired_loop(self, case):
        options = SWEEP_CASES[case]
        reports = sweep_blocking(**options)
        expected = hand_wired_sweep(**options)
        assert len(reports) == len(expected) == (
            len(options["loads"]) * len(options["wavelength_counts"]) * 4
        )
        assert [report.to_dict() for report in reports] == [
            report.to_dict() for report in expected
        ]

    def test_each_point_is_one_dynamic_execution(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            reports = sweep_blocking(
                rows=2, columns=2, wavelength_counts=(1, 2), loads=(4.0, 8.0), request_count=50
            )
        finally:
            set_registry(previous)
        assert len(reports) == 16
        assert registry.counter_value("repro_scenario_executions_total", kind="dynamic") == 16
        assert registry.counter_value("repro_scenario_executions_total", kind="static") == 0
