"""The presorted traffic replay against the discrete-event heap replay.

:class:`~repro.traffic.simulator.DynamicTrafficSimulator` sorts every
arrival and departure once and applies them in one pass;
:func:`oracles.heap_traffic_replay` drives the same stream through the
discrete-event engine's heap.  Their :class:`~repro.traffic.simulator.
BlockingReport` documents must be equal on every topology, wavelength count
and strategy, and on the trace streams whose ties decide the event order.
"""

from __future__ import annotations

import pytest
from oracles import heap_traffic_replay

from repro.errors import TrafficError
from repro.topology import build_topology
from repro.traffic import (
    ALLOCATOR_SEED_OFFSET,
    ConnectionRequest,
    DynamicTrafficSimulator,
    build_online_allocator,
    build_traffic_model,
)

STRATEGIES = ("first_fit", "least_used", "most_used", "random")

TOPOLOGIES = {
    "ring": {},
    "multi_ring": {"layers": 2},
    "crossbar": {},
}


def both_reports(topology, model, strategy, seed=0, warmup_fraction=0.1, name="ring"):
    """The presorted and the heap report of one run, each with a fresh allocator."""
    reports = []
    for replay in (
        lambda allocator: DynamicTrafficSimulator(
            topology, model, allocator, warmup_fraction=warmup_fraction, topology_name=name
        ).run(),
        lambda allocator: heap_traffic_replay(
            topology, model, allocator, warmup_fraction=warmup_fraction, topology_name=name
        ),
    ):
        allocator = build_online_allocator(strategy, None, seed=seed + ALLOCATOR_SEED_OFFSET)
        reports.append(replay(allocator).to_dict())
    return reports


@pytest.mark.parametrize("wavelength_count", [4, 8, 16])
@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
def test_reports_match_the_heap_replay(topology_name, wavelength_count):
    topology = build_topology(
        topology_name, 2, 3, wavelength_count, options=TOPOLOGIES[topology_name]
    )
    for load in (3.0, 20.0):
        model = build_traffic_model(
            "poisson", {"offered_load_erlangs": load, "request_count": 300}, seed=41
        )
        for strategy in STRATEGIES:
            presorted, heap = both_reports(topology, model, strategy, seed=41, name=topology_name)
            assert presorted == heap, (topology_name, wavelength_count, load, strategy)


def trace_reports(events, wavelength_count=1, strategy="first_fit"):
    topology = build_topology("ring", 2, 2, wavelength_count)
    model = build_traffic_model("trace", {"events": events})
    presorted, heap = both_reports(topology, model, strategy, warmup_fraction=0.0)
    assert presorted == heap
    return presorted


def event(arrival, holding, source=0, destination=1):
    return {"source": source, "destination": destination, "arrival": arrival, "holding": holding}


class TestTraceOrdering:
    def test_departure_equal_to_its_own_arrival(self):
        # 1.0 + 1e-300 == 1.0: the first connection departs at its own arrival
        # time.  Sorting that departure among the releases at 1.0 would put it
        # before its arrival (blocked 1, 2 events, duration 1.0); the heap
        # fires it right after the arrival, which frees the only wavelength.
        report = trace_reports([event(1.0, 1e-300), event(1.0, 1.0)])
        assert report["blocked"] == 0
        assert report["events_processed"] == 4
        assert report["duration"] == 2.0

    def test_departure_and_arrival_at_one_timestamp(self):
        # The release at 2.0 comes before the acquire at 2.0.
        report = trace_reports([event(0.0, 2.0), event(2.0, 1.0)])
        assert report["blocked"] == 0
        assert report["events_processed"] == 4
        assert report["duration"] == 3.0

    def test_two_arrivals_at_one_timestamp(self):
        # Stream order decides: the first takes the wavelength until 2.0, the
        # second (which would hold it until 6.0) blocks.
        report = trace_reports([event(1.0, 1.0), event(1.0, 5.0)])
        assert report["blocked"] == 1
        assert report["per_wavelength_carried"] == [1]
        assert report["events_processed"] == 3
        assert report["duration"] == 2.0

    def test_blocked_request_departure_is_skipped(self):
        # The blocked request would depart at 11.0; the run ends at 5.0.
        report = trace_reports([event(0.0, 5.0), event(1.0, 10.0)])
        assert report["blocked"] == 1
        assert report["events_processed"] == 3
        assert report["duration"] == 5.0

    def test_mixed_ties_across_pairs_and_wavelengths(self):
        events = [
            event(2.0, 1e-300, 0, 2),
            event(1.0, 1.0, 1, 3),
            event(2.0, 3.0, 0, 3),
            event(0.5, 1.5, 3, 0),
            event(2.0, 2.0, 2, 1),
        ]
        for wavelength_count in (1, 2):
            for strategy in STRATEGIES:
                trace_reports(events, wavelength_count, strategy)

    def test_streams_out_of_arrival_order(self):
        class Listed:
            """A model replaying its requests in the order given, unsorted."""

            name = "listed"

            def __init__(self, requests):
                self._requests = requests

            def requests(self, core_ids):
                return list(self._requests)

        # The request listed second arrives first and departs at 2.0, when
        # the first listed one arrives: the release still goes first.
        tie = Listed([ConnectionRequest(0, 0, 1, 2.0, 1.0), ConnectionRequest(1, 0, 1, 0.0, 2.0)])
        presorted, heap = both_reports(
            build_topology("ring", 2, 2, 1), tie, "first_fit", warmup_fraction=0.0
        )
        assert presorted == heap
        assert presorted["blocked"] == 0

        poisson = build_traffic_model(
            "poisson", {"offered_load_erlangs": 6.0, "request_count": 200}, seed=5
        ).requests(range(4))
        for strategy in STRATEGIES:
            presorted, heap = both_reports(
                build_topology("ring", 2, 2, 2), Listed(poisson[::-1]), strategy, seed=5
            )
            assert presorted == heap


def test_an_allocator_that_picks_a_busy_wavelength_is_rejected():
    class Stubborn:
        """Always answers wavelength 0, busy or not."""

        name = "stubborn"

        def choose(self, request, free, usage):
            return 0

    # Both connections share segment 0 -> 1; the second finds only
    # wavelength 1 free and is handed 0, which the first still holds.
    model = build_traffic_model("trace", {"events": [event(0.0, 5.0), event(1.0, 5.0)]})
    topology = build_topology("ring", 2, 2, 2)
    simulator = DynamicTrafficSimulator(topology, model, Stubborn(), topology_name="ring")
    with pytest.raises(TrafficError, match="chose wavelength 0, which is not free"):
        simulator.run()
