"""Literal goldens of whole :class:`~repro.simulation.SimulationReport`s.

Each replay's report is dumped canonically — makespan, the task completion
dict in its order, every transfer and conflict record, and every statistics
field with both utilisation dicts in their order — and the dump's SHA-256 is
pinned, so any change to the event order, the float arithmetic or the
bookkeeping of :class:`~repro.simulation.OnocSimulator` shows up here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import astuple, fields

import pytest

from repro.scenarios import Scenario
from repro.scenarios.study import build_scenario_evaluator
from repro.simulation import OnocSimulator, SimulationReport

ONE_CHANNEL = [(0,), (1,), (2,), (3,), (4,), (5,)]

#: case -> (scenario fields, allocation, SHA-256 of the canonical report dump)
REPLAYS = {
    "paper_one_channel": (
        {},
        ONE_CHANNEL,
        "f1e0a24bfda3e46a46cee30f2f7d2225f89c09022f6ccf514217d758f1f0f639",
    ),
    "paper_multi_channel": (
        {},
        [(0, 1), (2, 3, 4), (5, 6), (0, 7), (2, 3), (5, 6)],
        "fefdae34e7e4b587efb03bc653a53d5d233fe8fb69d1ab0d4c0df83f0e25dc75",
    ),
    "paper_conflicting": (
        {},
        [(0,), (0,), (2,), (3,), (4,), (5,)],
        "ab5bbb45f4fb5f39ee16a325afafcde9dfa67854dff3859e9e855250003be2a0",
    ),
    "fork_join_one_wavelength": (
        {"workload": "fork_join", "workload_options": {"branch_count": 6}, "mapping": "default"},
        [(0,)] * 12,
        "22408526d3b17de996810ca2acf07d8f581923d07c3c33b121835654971ccb1b",
    ),
    "pipeline": (
        {
            "workload": "pipeline",
            "workload_options": {"stage_count": 4},
            "mapping": "round_robin",
            "mapping_options": {"stride": 3},
        },
        [(0, 1), (2,), (3, 4)],
        "a67f5368bd1048820bb67f4f79dc5ee22ab781dd71a29adfcfd250bfe4640189",
    ),
    # Round-robin stride 4 puts half the fork-join on the second layer, so
    # the conflicts name the pillar's vertical segments.
    "multi_ring_two_layers": (
        {
            "topology": "multi_ring",
            "topology_options": {"layers": 2},
            "workload": "fork_join",
            "workload_options": {"branch_count": 6},
            "mapping": "round_robin",
            "mapping_options": {"stride": 4},
        },
        [(0,), (1,), (2,)] * 4,
        "8121e1dcd31cad0f836de77e28b467f3192cdb134ae6968670dd3f9a493059d6",
    ),
    "crossbar": (
        {"topology": "crossbar"},
        [(0,)] * 6,
        "e16a2e585c1d9fa3810015203f3c0eb18d46785461ccdb0f695c8900471c5c1a",
    ),
}


def replay(case: str) -> SimulationReport:
    """Run one case's allocation through the simulator of its scenario."""
    changes, allocation, _ = REPLAYS[case]
    evaluator = build_scenario_evaluator(Scenario(name=case, **changes))
    simulator = OnocSimulator(
        evaluator.architecture,
        evaluator.task_graph,
        evaluator.mapping,
        configuration=evaluator.configuration,
    )
    return simulator.run(allocation)


def canonical_dump(report: SimulationReport) -> str:
    """Every observable of a report as JSON; floats print as their exact repr."""
    statistics = report.statistics
    values = [
        (field.name, getattr(statistics, field.name)) for field in fields(statistics)
    ]
    return json.dumps(
        {
            "makespan_cycles": report.makespan_cycles,
            "task_completion_cycles": list(report.task_completion_cycles.items()),
            "transfers": [astuple(record) for record in report.transfers],
            "conflicts": [astuple(record) for record in report.conflicts],
            "statistics": [
                [name, list(value.items()) if isinstance(value, dict) else value]
                for name, value in values
            ],
            "averages": [
                statistics.average_core_utilisation,
                statistics.average_wavelength_utilisation,
                statistics.effective_bandwidth_bits_per_cycle,
            ],
        }
    )


@pytest.mark.parametrize("case", sorted(REPLAYS))
def test_report_matches_its_golden(case):
    digest = hashlib.sha256(canonical_dump(replay(case)).encode("utf-8")).hexdigest()
    assert digest == REPLAYS[case][2]


def test_shared_wavelength_utilisation_is_not_clamped():
    # Twelve transfers on channel 0, six of them at once: the channel is busy
    # for more cycles than the run lasts, and the raw fraction says so.
    statistics = replay("fork_join_one_wavelength").statistics
    assert list(statistics.wavelength_utilisation) == [0]
    assert round(statistics.wavelength_utilisation[0], 2) == 2.67


def test_conflicting_replay_reports_its_conflicts():
    report = replay("paper_conflicting")
    assert report.conflicts
    assert report.statistics.conflicts_detected == len(report.conflicts)
