"""Literal goldens of the four classic wavelength-assignment policies.

First-Fit, Least-Used, Most-Used and Random (Zang et al.) run in two places:
as static baselines that assign channels to the task graph's communications
(the ``first_fit`` ... ``random`` optimizer backends), and as online
allocators that pick one wavelength per arriving connection in the
dynamic-traffic simulator.  The ranked policies order channels by
``(weight * usage, channel)`` with weight 0, +1 or -1, so a change to the
ranking or its lowest-index tie-break moves these integers.

* **Dynamic:** one 400-request Poisson stream at 16 Erlangs (seed 2017, the
  allocator stream at 2018) replayed under every policy on the 4x4 ring,
  multi-ring and crossbar at NW 4 and 8.  Each entry is
  ``(offered, blocked, per_wavelength_carried, events_processed)``.
* **Static:** every heuristic backend on the default scenario at NW 4, 8
  and 12, with no options, ``target_counts: 2`` and ``sweep: [1, 2, 3]``.
  Each entry is the result front, one allocation (a channel tuple per
  communication) per member.
"""

from __future__ import annotations

import pytest

from repro.errors import AllocationError, ScenarioError
from repro.scenarios import Scenario, create_optimizer, execute_scenario
from repro.traffic import build_online_allocator, sweep_blocking

POLICIES = ("first_fit", "least_used", "most_used", "random")

#: (topology, NW, policy) -> (offered, blocked, per-wavelength carried, events).
DYNAMIC = {
    ("crossbar", 4, "first_fit"): (360, 13, (167, 110, 69, 41), 787),
    ("crossbar", 4, "least_used"): (360, 19, (106, 98, 87, 90), 781),
    ("crossbar", 4, "most_used"): (360, 13, (129, 107, 106, 45), 787),
    ("crossbar", 4, "random"): (360, 16, (101, 92, 93, 98), 784),
    ("crossbar", 8, "first_fit"): (360, 0, (167, 110, 69, 41, 10, 3, 0, 0), 800),
    ("crossbar", 8, "least_used"): (360, 0, (60, 61, 45, 67, 46, 39, 45, 37), 800),
    ("crossbar", 8, "most_used"): (360, 0, (129, 107, 106, 32, 24, 2, 0, 0), 800),
    ("crossbar", 8, "random"): (360, 0, (52, 54, 49, 47, 46, 45, 49, 58), 800),
    ("multi_ring", 4, "first_fit"): (360, 186, (63, 60, 47, 31), 601),
    ("multi_ring", 4, "least_used"): (360, 193, (60, 46, 45, 43), 594),
    ("multi_ring", 4, "most_used"): (360, 185, (62, 49, 46, 45), 602),
    ("multi_ring", 4, "random"): (360, 200, (46, 41, 52, 46), 585),
    ("multi_ring", 8, "first_fit"): (360, 97, (63, 60, 47, 31, 27, 28, 25, 21), 702),
    ("multi_ring", 8, "least_used"): (360, 108, (51, 47, 34, 38, 38, 26, 31, 25), 690),
    ("multi_ring", 8, "most_used"): (360, 91, (60, 41, 41, 20, 45, 38, 38, 25), 708),
    ("multi_ring", 8, "random"): (360, 107, (32, 31, 42, 40, 35, 46, 30, 35), 691),
    ("ring", 4, "first_fit"): (360, 218, (60, 39, 44, 20), 563),
    ("ring", 4, "least_used"): (360, 208, (55, 48, 30, 40), 573),
    ("ring", 4, "most_used"): (360, 213, (55, 51, 42, 20), 568),
    ("ring", 4, "random"): (360, 212, (42, 45, 44, 39), 570),
    ("ring", 8, "first_fit"): (360, 127, (60, 39, 44, 20, 30, 31, 19, 28), 671),
    ("ring", 8, "least_used"): (360, 124, (45, 43, 33, 35, 32, 26, 28, 30), 672),
    ("ring", 8, "most_used"): (360, 123, (48, 28, 44, 24, 32, 33, 37, 30), 676),
    ("ring", 8, "random"): (360, 115, (37, 37, 38, 35, 27, 34, 38, 36), 682),
}

#: Optimizer options of each static case.
OPTIONS = {
    "none": {},
    "target2": {"target_counts": 2},
    "sweep": {"sweep": [1, 2, 3]},
}

_FF1 = ((0,), (1,), (0,), (1,), (0,), (1,))
_FF2 = ((0, 1), (2, 3), (0, 1), (2, 3), (0, 1), (2, 3))
_FF3 = ((0, 1, 2), (3, 4, 5), (0, 1, 2), (3, 4, 5), (0, 1, 2), (3, 4, 5))
_LU1 = ((0,), (1,), (2,), (3,), (4,), (5,))

#: (policy, NW, options label) -> the front's allocations, in front order.
STATIC = {
    ("first_fit", 4, "none"): (_FF1,),
    ("first_fit", 4, "target2"): (_FF2,),
    ("first_fit", 4, "sweep"): (_FF2, _FF1),
    ("first_fit", 8, "none"): (_FF1,),
    ("first_fit", 8, "target2"): (_FF2,),
    ("first_fit", 8, "sweep"): (_FF3, _FF2, _FF1),
    ("first_fit", 12, "none"): (_FF1,),
    ("first_fit", 12, "target2"): (_FF2,),
    ("first_fit", 12, "sweep"): (_FF3, _FF2, _FF1),
    ("least_used", 4, "none"): (((0,), (1,), (2,), (3,), (0,), (1,)),),
    ("least_used", 4, "target2"): (_FF2,),
    ("least_used", 4, "sweep"): (_FF2, ((0,), (1,), (2,), (3,), (0,), (1,))),
    ("least_used", 8, "none"): (_LU1,),
    ("least_used", 8, "target2"): (((0, 1), (2, 3), (4, 5), (6, 7), (0, 1), (2, 3)),),
    ("least_used", 8, "sweep"): (
        ((0, 1, 2), (3, 4, 5), (0, 6, 7), (1, 2, 3), (4, 5, 6), (0, 1, 7)),
        ((0, 1), (2, 3), (4, 5), (6, 7), (0, 1), (2, 3)),
        _LU1,
    ),
    ("least_used", 12, "none"): (_LU1,),
    ("least_used", 12, "target2"): (((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)),),
    ("least_used", 12, "sweep"): (
        ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11), (0, 1, 2), (3, 4, 5)),
        ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)),
        _LU1,
    ),
    ("most_used", 4, "none"): (_FF1,),
    ("most_used", 4, "target2"): (_FF2,),
    ("most_used", 4, "sweep"): (_FF2, _FF1),
    ("most_used", 8, "none"): (_FF1,),
    ("most_used", 8, "target2"): (_FF2,),
    ("most_used", 8, "sweep"): (_FF3, _FF2, _FF1),
    ("most_used", 12, "none"): (_FF1,),
    ("most_used", 12, "target2"): (_FF2,),
    ("most_used", 12, "sweep"): (_FF3, _FF2, _FF1),
    ("random", 4, "none"): (((1,), (3,), (0,), (2,), (1,), (3,)),),
    ("random", 4, "target2"): (((2, 3), (0, 1), (2, 3), (0, 1), (1, 2), (0, 3)),),
    ("random", 4, "sweep"): (
        ((2, 3), (0, 1), (2, 3), (0, 1), (1, 2), (0, 3)),
        ((1,), (3,), (0,), (2,), (1,), (3,)),
    ),
    ("random", 8, "none"): (((3,), (7,), (0,), (4,), (2,), (6,)),),
    ("random", 8, "target2"): (((1, 7), (2, 4), (0, 2), (4, 7), (4, 7), (0, 1)),),
    ("random", 8, "sweep"): (
        ((1, 7), (2, 4), (0, 2), (4, 7), (4, 7), (0, 1)),
        ((3,), (7,), (0,), (4,), (2,), (6,)),
    ),
    ("random", 12, "none"): (((5,), (11,), (1,), (6,), (4,), (9,)),),
    ("random", 12, "target2"): (((2, 11), (3, 7), (1, 3), (7, 11), (7, 11), (0, 2)),),
    ("random", 12, "sweep"): (
        ((2, 7, 11), (0, 3, 4), (4, 5, 7), (3, 6, 11), (2, 7, 10), (3, 6, 8)),
        ((2, 11), (3, 7), (1, 3), (7, 11), (7, 11), (0, 2)),
        ((5,), (11,), (1,), (6,), (4,), (9,)),
    ),
}


@pytest.mark.parametrize("policy", POLICIES)
def test_both_families_answer_to_the_policy_name(policy):
    assert create_optimizer(policy).name == policy
    assert build_online_allocator(policy).name == policy


@pytest.mark.parametrize("topology", ["ring", "multi_ring", "crossbar"])
def test_online_policies_match_goldens(topology):
    reports = sweep_blocking(
        topology=topology,
        wavelength_counts=(4, 8),
        strategies=POLICIES,
        loads=(16.0,),
        request_count=400,
        seed=2017,
    )
    observed = {
        (topology, report.wavelength_count, report.strategy): (
            report.offered,
            report.blocked,
            tuple(report.per_wavelength_carried),
            report.events_processed,
        )
        for report in reports
    }
    expected = {key: value for key, value in DYNAMIC.items() if key[0] == topology}
    assert observed == expected


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("wavelength_count", [4, 8, 12])
@pytest.mark.parametrize("label", sorted(OPTIONS))
def test_static_policies_match_goldens(policy, wavelength_count, label):
    scenario = Scenario(
        optimizer=policy,
        wavelength_count=wavelength_count,
        optimizer_options=OPTIONS[label],
    )
    result = execute_scenario(scenario).result
    front = tuple(
        tuple(solution.chromosome.allocation()) for solution in result.pareto_solutions
    )
    assert front == STATIC[(policy, wavelength_count, label)]


@pytest.mark.parametrize("policy", ["first_fit", "least_used", "most_used", "random"])
def test_infeasible_static_targets_keep_their_errors(policy):
    def run(options):
        execute_scenario(
            Scenario(optimizer=policy, wavelength_count=4, optimizer_options=options)
        )

    single = (
        r"^random allocation found no valid draw for target_counts 3$"
        if policy == "random"
        else r"^communication c1 cannot reserve 3 wavelengths: only 1 conflict-free "
        r"channels remain$"
    )
    with pytest.raises(AllocationError, match=single):
        run({"target_counts": 3})
    with pytest.raises(ScenarioError, match=rf"^optimizer '{policy}': no entry of "
                       r"sweep \[3, 4\] is feasible$"):
        run({"sweep": [3, 4]})
