"""The pluggable topology subsystem: registry, implementations, invariants.

Covers four fronts:

* the :data:`~repro.topology.registry.TOPOLOGIES` registry and
  :func:`~repro.topology.registry.build_topology`;
* golden regression tests pinning registry-built ``ring`` scenarios to the
  byte-identical fingerprints and Pareto fronts the pre-refactor code
  produced;
* the structural invariants of the new ``multi_ring`` and ``crossbar``
  implementations (paths, crossings, sharing rules, loss terms, caches);
* simulation-in-the-loop replay of every registered optimizer backend's
  Pareto front on every registered topology.
"""

from __future__ import annotations

import pytest

from repro.config import GeneticParameters, OnocConfiguration
from repro.errors import ScenarioError, TopologyError
from repro.models import LinkBudget, PowerLossModel
from repro.scenarios import OPTIMIZERS, Scenario
from repro.scenarios.study import build_scenario_evaluator, execute_scenario
from repro.scenarios.scenario import VerificationSettings
from repro.topology import (
    TOPOLOGIES,
    CrossbarOnocArchitecture,
    MultiRingOnocArchitecture,
    OnocTopology,
    RingOnocArchitecture,
    build_topology,
    topology_description,
    worst_case_link_loss_db,
)

#: Fingerprints computed by the pre-topology-subsystem code (PR 3); the
#: topology fields must never change them for plain-ring scenarios, or every
#: cached study result and saved scenario document would silently invalidate.
GOLDEN_DEFAULT_FINGERPRINT = "7ace92f30bf15515"
GOLDEN_VARIANT_FINGERPRINT = "f0be52d20af58257"
GOLDEN_FRONT_FINGERPRINT = "331f7f85913ffcf3"


def _golden_front_scenario() -> Scenario:
    return Scenario(
        name="golden-front",
        genetic=GeneticParameters(population_size=24, generations=8, seed=7),
    )


class TestTopologyRegistry:
    def test_all_three_topologies_registered(self):
        assert {"ring", "multi_ring", "crossbar"} <= set(TOPOLOGIES.names())

    def test_build_topology_resolves_each_name(self):
        assert isinstance(build_topology("ring", 4, 4, 8), RingOnocArchitecture)
        assert isinstance(
            build_topology("multi_ring", 4, 4, 8), MultiRingOnocArchitecture
        )
        assert isinstance(build_topology("crossbar", 4, 4, 8), CrossbarOnocArchitecture)

    def test_every_registered_topology_satisfies_the_protocol(self):
        for name in TOPOLOGIES.names():
            topology = build_topology(name, 2, 2, wavelength_count=4)
            assert isinstance(topology, OnocTopology)
            assert topology.wavelength_count == 4
            assert topology.core_count >= 4
            assert topology_description(name)

    def test_unknown_topology_name_rejected(self):
        with pytest.raises(ScenarioError, match="unknown topology"):
            build_topology("torus", 4, 4, 8)

    def test_unknown_topology_option_rejected(self):
        with pytest.raises(TopologyError, match="invalid options for topology"):
            build_topology("multi_ring", 4, 4, 8, options={"floors": 3})

    def test_options_are_threaded_through(self):
        stack = build_topology(
            "multi_ring", 2, 2, 4, options={"layers": 3, "coupler_loss_db": -0.5}
        )
        assert stack.layer_count == 3
        assert stack.coupler_loss_db == -0.5
        crossbar = build_topology("crossbar", 2, 2, 4, options={"crossing_loss_db": -0.2})
        assert crossbar.crossing_loss_db == -0.2

    def test_configuration_reaches_the_topology(self):
        configuration = OnocConfiguration()
        for name in TOPOLOGIES.names():
            topology = build_topology(name, 2, 2, 4, configuration=configuration)
            assert topology.configuration is configuration


class TestRingGoldenBehaviour:
    """Registry-built ``ring`` scenarios are byte-identical to pre-refactor ones."""

    def test_default_scenario_fingerprint_unchanged(self):
        assert Scenario().fingerprint() == GOLDEN_DEFAULT_FINGERPRINT

    def test_variant_scenario_fingerprint_unchanged(self):
        scenario = Scenario(
            name="golden",
            rows=4,
            columns=4,
            wavelength_count=8,
            workload="paper",
            mapping="paper",
            optimizer="first_fit",
            seed=11,
        )
        assert scenario.fingerprint() == GOLDEN_VARIANT_FINGERPRINT

    def test_ring_document_carries_no_topology_block(self):
        document = Scenario().to_dict()
        assert "topology" not in document
        assert "topology" not in Scenario(topology="ring").to_dict()

    def test_non_ring_document_carries_topology_block(self):
        document = Scenario(topology="multi_ring", topology_options={"layers": 3}).to_dict()
        assert document["topology"] == {"name": "multi_ring", "options": {"layers": 3}}
        assert Scenario.from_dict(document).topology_options == {"layers": 3}

    def test_golden_pareto_front_bit_identical(self):
        """The exact front the pre-refactor code produced for this scenario."""
        scenario = _golden_front_scenario()
        assert scenario.fingerprint() == GOLDEN_FRONT_FINGERPRINT
        rows = execute_scenario(scenario).result.summary_rows()
        assert len(rows) == 40
        first, last = rows[0], rows[-1]
        assert first["allocation"] == "[3, 3, 3, 4, 4, 3]"
        assert first["execution_time_kcycles"] == 25.499999999999996
        assert first["bit_energy_fj"] == 7.002249218808253
        assert first["mean_ber"] == 0.0006972050659196233
        assert last["allocation"] == "[1, 1, 1, 1, 2, 1]"
        assert last["execution_time_kcycles"] == 38.0
        assert last["bit_energy_fj"] == 4.655308122538928
        assert last["mean_ber"] == 0.0002630043042733975

    def test_registry_ring_matches_direct_construction(self):
        """`build_topology("ring", ...)` and `RingOnocArchitecture.grid` agree."""
        registry_built = build_topology("ring", 4, 4, wavelength_count=8)
        direct = RingOnocArchitecture.grid(4, 4, wavelength_count=8)
        assert isinstance(registry_built, RingOnocArchitecture)
        for source in direct.core_ids():
            for destination in direct.core_ids():
                if source == destination:
                    continue
                assert registry_built.path(source, destination).segment_keys() == (
                    direct.path(source, destination).segment_keys()
                )
                assert registry_built.crossed_off_ring_count(
                    source, destination
                ) == direct.crossed_off_ring_count(source, destination)


class TestPathCacheIsolation:
    """Rebuilds must never leak cached ``WaveguidePath`` objects across instances."""

    @pytest.mark.parametrize("name", ["ring", "multi_ring", "crossbar"])
    def test_with_wavelength_count_starts_with_a_fresh_cache(self, name):
        topology = build_topology(name, 2, 2, wavelength_count=4)
        original_path = topology.path(0, 1)
        assert topology._path_cache  # populated by the lookup above
        rebuilt = topology.with_wavelength_count(6)
        assert rebuilt._path_cache == {}
        assert rebuilt._path_cache is not topology._path_cache
        # The original cache is untouched and still serves the same object.
        assert topology.path(0, 1) is original_path
        # A lookup on the rebuilt topology must not alias the stale entry: the
        # crossing-count arithmetic is shared, but the object is fresh.
        assert rebuilt.path(0, 1) is not original_path

    @pytest.mark.parametrize("name", ["ring", "multi_ring", "crossbar"])
    def test_registry_builds_do_not_share_caches(self, name):
        first = build_topology(name, 2, 2, wavelength_count=4)
        second = build_topology(name, 2, 2, wavelength_count=4)
        first.path(0, 1)
        assert second._path_cache == {}
        assert first._path_cache is not second._path_cache


class TestMultiRingTopology:
    @pytest.fixture
    def stack(self) -> MultiRingOnocArchitecture:
        return MultiRingOnocArchitecture.grid(2, 2, wavelength_count=4, layers=3)

    def test_core_count_stacks_layers(self, stack):
        assert stack.core_count == 12
        assert list(stack.core_ids()) == list(range(12))
        assert stack.layer_of(0) == 0
        assert stack.layer_of(11) == 2
        assert stack.position_of(9) == 1

    def test_intra_layer_path_follows_that_layers_ring(self, stack):
        path = stack.path(4, 6)  # layer 1, positions 0 -> 2
        assert path.onis == [4, 5, 6]
        assert all(4 <= oni < 8 for oni in path.onis)

    def test_inter_layer_path_rides_the_pillar(self, stack):
        path = stack.path(1, 10)  # layer 0 pos 1 -> layer 2 pos 2
        # Ring to the pillar (wrapping through positions 2 and 3), two vertical
        # hops, then ring from the pillar of layer 2.
        assert path.onis == [1, 2, 3, 0, 4, 8, 9, 10]
        assert stack.hop_count(1, 10) == 7

    def test_downward_paths_exist(self, stack):
        path = stack.path(9, 2)  # layer 2 -> layer 0
        assert path.onis[0] == 9 and path.onis[-1] == 2
        assert 8 in path.onis and 4 in path.onis and 0 in path.onis

    def test_extra_loss_counts_layer_hops(self, stack):
        assert stack.extra_path_loss_db(0, 1) == 0.0
        assert stack.extra_path_loss_db(1, 5) == stack.coupler_loss_db
        assert stack.extra_path_loss_db(1, 9) == 2 * stack.coupler_loss_db

    def test_crossed_ring_count_uses_real_onis_only(self, stack):
        path = stack.path(1, 10)
        expected = len(path.intermediate_onis) * 4 + 3
        assert stack.crossed_off_ring_count(1, 10) == expected
        assert stack.crossed_oni_ids(1, 10) == path.intermediate_onis

    def test_inter_layer_paths_share_the_vertical_segment(self, stack):
        first = stack.path(1, 5)
        second = stack.path(2, 6)
        assert first.shares_segment_with(second)  # both climb pillar 0 -> 4

    def test_pillar_position_is_configurable(self):
        stack = MultiRingOnocArchitecture.grid(2, 2, wavelength_count=4, layers=2, pillar=2)
        assert stack.pillar_node(0) == 2
        assert stack.pillar_node(1) == 6
        assert 2 in stack.path(0, 5).onis

    def test_single_layer_stack_degenerates_to_a_ring(self):
        stack = MultiRingOnocArchitecture.grid(2, 2, wavelength_count=4, layers=1)
        ring = RingOnocArchitecture.grid(2, 2, wavelength_count=4)
        for source in range(4):
            for destination in range(4):
                if source == destination:
                    continue
                assert stack.path(source, destination).segment_keys() == (
                    ring.path(source, destination).segment_keys()
                )

    def test_validation_errors(self):
        with pytest.raises(TopologyError):
            MultiRingOnocArchitecture.grid(2, 2, wavelength_count=4, layers=0)
        with pytest.raises(TopologyError):
            MultiRingOnocArchitecture.grid(2, 2, wavelength_count=4, pillar=9)
        with pytest.raises(TopologyError):
            MultiRingOnocArchitecture.grid(
                2, 2, wavelength_count=4, coupler_loss_db=0.3
            )
        with pytest.raises(TopologyError):
            build_topology("multi_ring", 2, 2, 4).path(0, 0)

    def test_describe_mentions_the_stack(self, stack):
        assert "3 layers" in stack.describe()


class TestCrossbarTopology:
    @pytest.fixture
    def crossbar(self) -> CrossbarOnocArchitecture:
        return CrossbarOnocArchitecture.grid(2, 2, wavelength_count=4)

    def test_path_endpoints_and_interior_pseudo_nodes(self, crossbar):
        path = crossbar.path(1, 3)
        assert path.onis[0] == 1 and path.onis[-1] == 3
        assert all(node >= crossbar.core_count for node in path.onis[1:-1])

    def test_crossing_counts_follow_li_formula(self, crossbar):
        count = crossbar.core_count
        for source in range(count):
            for destination in range(count):
                if source == destination:
                    continue
                assert crossbar.crossing_count(source, destination) == (
                    destination + count - 1 - source
                )
        assert crossbar.worst_case_crossing_count() == 2 * (count - 1)
        assert crossbar.crossing_count(0, count - 1) == crossbar.worst_case_crossing_count()

    def test_no_foreign_oni_is_ever_crossed(self, crossbar):
        assert crossbar.crossed_oni_ids(0, 3) == []
        assert crossbar.crossed_off_ring_count(0, 3) == crossbar.wavelength_count - 1

    def test_extra_loss_scales_with_crossings(self, crossbar):
        assert crossbar.extra_path_loss_db(0, 3) == (
            crossbar.crossing_count(0, 3) * crossbar.crossing_loss_db
        )

    def test_sharing_rules(self, crossbar):
        # Same source: shared row waveguide.
        assert crossbar.path(1, 0).shares_segment_with(crossbar.path(1, 3))
        # Same destination: shared column waveguide.
        assert crossbar.path(0, 3).shares_segment_with(crossbar.path(2, 3))
        # Distinct source and destination: fully disjoint waveguides.
        assert not crossbar.path(0, 3).shares_segment_with(crossbar.path(1, 2))

    def test_segment_usage_matches_sharing_rules(self, crossbar):
        usage = crossbar.segment_usage([(0, 3), (2, 3), (1, 2)])
        shared = [indices for indices in usage.values() if len(indices) > 1]
        assert shared and all(sorted(indices) == [0, 1] for indices in shared)

    def test_crosstalk_reaches_only_shared_destinations(self, crossbar):
        parameters = crossbar.configuration.photonic
        assert crossbar.crosstalk_path_loss_db(0, 3, 3, parameters) is not None
        assert crossbar.crosstalk_path_loss_db(0, 3, 2, parameters) is None
        # A transmitter never leaks into its own core's receive waveguide.
        assert crossbar.crosstalk_path_loss_db(0, 3, 0, parameters) is None

    def test_worst_case_link_loss_orders_the_topologies(self):
        """On equal grids the crossbar loses more than the ring (crossings),
        and the multi-ring stack more still (couplers plus longer rings)."""
        ring = build_topology("ring", 4, 4, 8)
        stack = build_topology("multi_ring", 4, 4, 8)
        crossbar = build_topology("crossbar", 4, 4, 8)
        ring_loss = worst_case_link_loss_db(ring)
        assert worst_case_link_loss_db(crossbar) < ring_loss
        assert worst_case_link_loss_db(stack) < ring_loss

    def test_validation_errors(self, crossbar):
        with pytest.raises(TopologyError):
            CrossbarOnocArchitecture.grid(2, 2, wavelength_count=4, crossing_loss_db=0.1)
        with pytest.raises(TopologyError):
            crossbar.path(1, 1)
        with pytest.raises(TopologyError):
            crossbar.oni(99)


class TestModelsOnNewTopologies:
    """The readable reference models work off-ring through the protocol."""

    @pytest.mark.parametrize("name", ["multi_ring", "crossbar"])
    def test_power_loss_breakdown_includes_topology_terms(self, name):
        topology = build_topology(name, 2, 2, wavelength_count=4)
        model = PowerLossModel(topology)
        breakdown = model.path_loss_breakdown(0, 3, channel=1)
        assert breakdown.topology_db == topology.extra_path_loss_db(0, 3)
        assert breakdown.topology_db <= 0.0
        assert breakdown.total_db < 0.0

    def test_ring_breakdown_topology_term_is_exactly_zero(self):
        topology = build_topology("ring", 2, 2, wavelength_count=4)
        breakdown = PowerLossModel(topology).path_loss_breakdown(0, 3, channel=1)
        assert breakdown.topology_db == 0.0

    @pytest.mark.parametrize("name", ["ring", "multi_ring", "crossbar"])
    def test_link_budget_closes_on_short_links(self, name):
        topology = build_topology(name, 2, 2, wavelength_count=4)
        report = LinkBudget(topology).evaluate_link(0, 1, channel=0)
        assert report.closes
        assert 0.0 < report.bit_error_rate < 1.0


def _tiny_scenario(topology: str, optimizer: str) -> Scenario:
    """A deliberately tiny instance every backend (exhaustive included) handles."""
    options = {"layers": 2} if topology == "multi_ring" else {}
    optimizer_options = {"sweep": [1, 2]} if optimizer in {
        "first_fit",
        "most_used",
        "least_used",
        "random",
    } else {}
    return Scenario(
        name=f"replay-{topology}-{optimizer}",
        rows=2,
        columns=2,
        wavelength_count=3,
        topology=topology,
        topology_options=options,
        workload="pipeline",
        workload_options={"stage_count": 3},
        mapping="round_robin",
        mapping_options={"stride": 3},
        optimizer=optimizer,
        optimizer_options=optimizer_options,
        genetic=GeneticParameters(population_size=12, generations=4, seed=5),
        verification=VerificationSettings(simulate=True),
    )


class TestSimulationReplayAcrossTopologies:
    """Every static backend's front replays conflict-free on every topology.

    ``dynamic_rwa`` is excluded: it is the marker of traffic-driven scenarios
    and produces a blocking report, not a replayable allocation front
    (covered in ``test_traffic.py``).
    """

    @pytest.mark.parametrize("topology", ["ring", "multi_ring", "crossbar"])
    @pytest.mark.parametrize(
        "optimizer", sorted(set(OPTIMIZERS.names()) - {"dynamic_rwa"})
    )
    def test_front_replays_exactly(self, topology, optimizer):
        outcome = execute_scenario(_tiny_scenario(topology, optimizer))
        summary = outcome.summary()
        assert summary.pareto_size >= 1
        assert summary.verified
        assert summary.verification_passed, outcome.verification.rows()
        assert summary.sim_conflicts == 0

    @pytest.mark.parametrize("topology", ["multi_ring", "crossbar"])
    def test_paper_workload_front_replays_on_new_topologies(self, topology):
        scenario = Scenario(
            name=f"replay-paper-{topology}",
            topology=topology,
            mapping="default",
            mapping_options={"stride": 5},
            genetic=GeneticParameters(population_size=16, generations=5, seed=3),
            verification=VerificationSettings(simulate=True),
        )
        summary = execute_scenario(scenario).summary()
        assert summary.verification_passed
        assert summary.valid_solution_count > 0

    @pytest.mark.parametrize("topology", TOPOLOGIES.names())
    def test_paper_workload_front_replays_at_comparison_scale(self, topology):
        """Every registered topology at 4x4 and NW 8, the paper workload
        spread with stride 5, NSGA-II at 64x16 on (time, energy): the front
        is non-empty and replays with no conflict and no divergence."""
        scenario = Scenario(
            name=f"compare-{topology}",
            topology=topology,
            topology_options={"layers": 2} if topology == "multi_ring" else {},
            mapping="round_robin",
            mapping_options={"stride": 5},
            objectives=("time", "energy"),
            genetic=GeneticParameters(population_size=64, generations=16, seed=2017),
            verification=VerificationSettings(simulate=True),
        )
        summary = execute_scenario(scenario).summary()
        assert summary.pareto_size >= 1
        assert summary.verified and summary.verification_passed
        assert (summary.sim_conflicts, summary.sim_divergences) == (0, 0)


class TestScenarioEvaluatorIntegration:
    def test_build_scenario_evaluator_uses_the_registry(self):
        evaluator = build_scenario_evaluator(
            Scenario(topology="multi_ring", topology_options={"layers": 3}, mapping="default")
        )
        assert isinstance(evaluator.architecture, MultiRingOnocArchitecture)
        assert evaluator.architecture.core_count == 48

    def test_unknown_scenario_topology_fails_cleanly(self):
        with pytest.raises(ScenarioError, match="unknown topology"):
            build_scenario_evaluator(Scenario(topology="torus"))

    def test_distinct_topologies_fingerprint_differently(self):
        base = Scenario()
        assert base.fingerprint() != base.derive(topology="crossbar").fingerprint()
        assert (
            base.derive(topology="multi_ring", topology_options={"layers": 2}).fingerprint()
            != base.derive(topology="multi_ring", topology_options={"layers": 4}).fingerprint()
        )
