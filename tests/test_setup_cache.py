"""The per-process setup cache behind :func:`~repro.scenarios.study.execute_scenario`.

A static run takes its evaluator, a dynamic run its topology, from one
bounded cache keyed by what their builders read.  A cached setup must give
the results a freshly built one gives, whatever order the jobs come in, and
must come out of every run unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.allocation import AllocationEvaluator
from repro.config import GeneticParameters
from repro.errors import ConfigurationError
from repro.scenarios import Scenario, TrafficSettings, build_scenario_evaluator, execute_scenario
from repro.scenarios import study
from repro.telemetry import (
    MetricsRegistry,
    configure_tracing,
    get_registry,
    reset_tracing,
    set_registry,
)
from repro.telemetry.report import load_trace
from repro.topology.base import OnocTopology

STRATEGIES = ("first_fit", "least_used", "most_used", "random")


@pytest.fixture(autouse=True)
def cold_cache():
    """Each test starts with an empty setup cache and a fresh registry."""
    study._setups.clear()
    previous = set_registry(MetricsRegistry())
    yield
    set_registry(previous)
    study._setups.clear()


def static(wavelength_count=8, seed=1, simulate=False, **changes) -> Scenario:
    scenario = Scenario(
        name=f"static-{wavelength_count}-{seed}-{simulate}",
        wavelength_count=wavelength_count,
        genetic=GeneticParameters(population_size=16, generations=4, seed=seed),
        verification={"simulate": simulate},
    )
    return scenario.derive(**changes) if changes else scenario


def dynamic(strategy="first_fit", seed=1) -> Scenario:
    return Scenario(
        name=f"dynamic-{strategy}-{seed}",
        optimizer="dynamic_rwa",
        seed=seed,
        traffic=TrafficSettings(
            model="poisson",
            model_options={"offered_load_erlangs": 8.0, "request_count": 300},
            strategy=strategy,
        ),
    )


MIX = [
    static(wavelength_count, seed, simulate)
    for wavelength_count in (4, 8, 12)
    for simulate in (False, True)
    for seed in (11, 12)
] + [dynamic(strategy, 20 + index) for index, strategy in enumerate(STRATEGIES)]


def setups(kind: str, cached: bool) -> float:
    return get_registry().counter_value("repro_scenario_setups_total", kind=kind, cached=cached)


def test_a_mixed_batch_matches_a_cold_cache_in_any_order():
    cold = {}
    for scenario in MIX:
        study._setups.clear()
        cold[scenario.fingerprint()] = execute_scenario(scenario).summary().comparable_dict()
    for order in (MIX, MIX[::-1]):
        study._setups.clear()
        for scenario in order:
            warm = execute_scenario(scenario).summary().comparable_dict()
            assert warm == cold[scenario.fingerprint()], scenario.name
    # Cold: every job builds.  Each ordered pass: one evaluator per NW and
    # one topology for every dynamic job.
    assert setups("evaluator", cached=False) == 12 + 3 + 3
    assert setups("evaluator", cached=True) == 9 + 9
    assert setups("topology", cached=False) == 4 + 1 + 1
    assert setups("topology", cached=True) == 3 + 3

    assert len(study._setups) == 4
    for setup in study._setups.values():
        if isinstance(setup, AllocationEvaluator):
            topology = setup.architecture
            arrays = setup.precomputed
            for name in arrays.__dataclass_fields__:
                value = getattr(arrays, name)
                if isinstance(value, np.ndarray):
                    assert not value.flags.writeable, name
        else:
            topology = setup
        assert isinstance(topology, OnocTopology)
        assert all(oni.active_ring_count() == 0 for oni in topology.onis)


def test_build_scenario_evaluator_returns_a_fresh_evaluator():
    scenario = static()
    execute_scenario(scenario)
    first = build_scenario_evaluator(scenario)
    assert first is not build_scenario_evaluator(scenario)
    assert all(setup is not first for setup in study._setups.values())


def test_a_build_that_raises_is_not_cached(monkeypatch):
    calls = []
    original = study.build_scenario_evaluator

    def flaky(scenario):
        calls.append(scenario.name)
        if len(calls) == 1:
            raise RuntimeError("transient build failure")
        return original(scenario)

    monkeypatch.setattr(study, "build_scenario_evaluator", flaky)
    scenario = static()
    with pytest.raises(RuntimeError):
        execute_scenario(scenario)
    assert not study._setups
    first = execute_scenario(scenario).summary().comparable_dict()
    assert execute_scenario(scenario).summary().comparable_dict() == first
    assert len(calls) == 2

    broken = static(overrides={"photonic": {"quality_factor": -5}})
    for _ in range(2):
        with pytest.raises(ConfigurationError):
            execute_scenario(broken)
    assert len(study._setups) == 1


class TestSetupKey:
    def test_the_ga_block_and_an_unread_seed_share_a_setup(self):
        execute_scenario(static(seed=1))
        execute_scenario(static(seed=2, genetic=GeneticParameters(population_size=12, generations=2)))
        execute_scenario(static(seed=3).derive(seed=77))
        assert (setups("evaluator", cached=False), setups("evaluator", cached=True)) == (1, 2)

    def test_a_seed_folded_into_the_workload_or_mapping_splits_setups(self):
        random_workload = static(workload="random", workload_options={"task_count": 6}, mapping="default")
        execute_scenario(random_workload.derive(seed=1))
        execute_scenario(random_workload.derive(seed=2))
        random_mapping = static(
            workload="pipeline", workload_options={"stage_count": 5}, mapping="random"
        )
        execute_scenario(random_mapping.derive(seed=1))
        execute_scenario(random_mapping.derive(seed=2))
        assert setups("evaluator", cached=False) == 4
        # An explicit seed option wins over the scenario seed, so it is shared.
        pinned = random_workload.derive(workload_options={"task_count": 6, "seed": 5})
        execute_scenario(pinned.derive(seed=1))
        execute_scenario(pinned.derive(seed=2))
        assert (setups("evaluator", cached=False), setups("evaluator", cached=True)) == (5, 1)

    @pytest.mark.parametrize(
        "changes",
        [
            {"wavelength_count": 4},
            {"rows": 2, "columns": 8},
            {"topology": "crossbar"},
            {"topology_options": {"pillar": 1}, "topology": "multi_ring"},
            {"overrides": {"photonic": {"quality_factor": 9000.0}}},
            {"overrides": {"timing": {"data_rate_bits_per_cycle": 2.0}}},
            {"crosstalk_scope": "spatial"},
            {"mapping": "round_robin"},
        ],
    )
    def test_what_the_builders_read_splits_setups(self, changes):
        base = static()
        assert study._setup_key(base, "evaluator") != study._setup_key(
            base.derive(**changes), "evaluator"
        )

    def test_a_dynamic_run_keys_only_the_topology(self):
        assert study._setup_key(dynamic("random", seed=1), "topology") == study._setup_key(
            dynamic("first_fit", seed=2), "topology"
        )
        assert study._setup_key(dynamic(), "topology") != study._setup_key(
            dynamic().derive(wavelength_count=4), "topology"
        )


def test_the_cache_is_bounded_least_recently_used_first():
    def setup_of(scenario):
        return study._scenario_setup(scenario, "evaluator", lambda s: s.name, "fp")

    scenarios = [static(count) for count in range(1, study.SETUP_CACHE_SIZE + 2)]
    for scenario in scenarios[:-1]:
        setup_of(scenario)
    assert setup_of(scenarios[0]) == scenarios[0].name  # a hit: now the most recent
    setup_of(scenarios[-1])
    keys = [study._setup_key(scenario, "evaluator") for scenario in scenarios]
    assert len(study._setups) == study.SETUP_CACHE_SIZE
    assert keys[1] not in study._setups
    assert keys[0] in study._setups and keys[-1] in study._setups


def test_setups_are_traced_with_their_cache_outcome(tmp_path):
    path = tmp_path / "trace.jsonl"
    configure_tracing(str(path))
    try:
        scenario = dynamic()
        execute_scenario(scenario)
        execute_scenario(scenario.derive(name="again"))
    finally:
        reset_tracing()
    records = [record for record in load_trace(str(path)) if record["name"] == "scenario.setup"]
    assert [(record["attrs"]["kind"], record["attrs"]["cached"]) for record in records] == [
        ("topology", False),
        ("topology", True),
    ]
    names = {record["name"] for record in load_trace(str(path))}
    assert {"scenario.setup", "scenario.dynamic", "traffic.run"} <= names
