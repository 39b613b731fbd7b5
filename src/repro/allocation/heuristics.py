"""Classical wavelength-assignment heuristics used as baselines.

The related-work section of the paper cites the standard heuristics of the
WDM-network literature (Zang et al.): Random, First-Fit, Most-Used and
Least-Used wavelength assignment.  They were designed to minimise blocking in
circuit-switched optical networks, not to trade execution time against energy
and BER, which is exactly why the paper proposes a multi-objective genetic
search instead.  The ablation benchmark compares the NSGA-II front against the
single points these heuristics produce.

Every heuristic takes the number of wavelengths each communication should
receive (``target_counts``) and decides *which* channels to reserve, honouring
the validity rules through the conflict pairs computed by the evaluator.

The ranked policies order channels by one rule, :func:`preference`, which the
online allocators of :mod:`repro.traffic.allocators` share; the optimizer
backends call :func:`policy_allocation` for any name in :data:`POLICIES`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..config import is_count
from ..errors import AllocationError
from .batch import BatchEvaluation
from .objectives import AllocationEvaluator, AllocationSolution

__all__ = [
    "POLICIES",
    "preference",
    "policy_allocation",
    "first_fit_allocation",
    "least_used_allocation",
    "most_used_allocation",
    "random_allocation",
    "uniform_allocation",
]

#: The classic wavelength-assignment policies, by their registry names.
POLICIES = ("first_fit", "least_used", "most_used", "random")

#: Usage weight of each ranked policy in :func:`preference`.
_USAGE_WEIGHTS = {"first_fit": 0, "least_used": 1, "most_used": -1}


def preference(policy: str, usage: Sequence[int]) -> Callable[[int], Tuple[int, int]]:
    """The sort key ranking channels for ``policy``, most preferred first.

    ``usage[c]`` counts the holders of channel ``c``; its key is
    ``(weight * usage[c], c)`` with weight 0 (First-Fit), +1 (Least-Used) or
    -1 (Most-Used), so ties go to the lowest index.  ``random`` ranks nothing.
    """
    if policy not in _USAGE_WEIGHTS:
        raise AllocationError(
            f"policy {policy!r} ranks no channels; ranked: {', '.join(_USAGE_WEIGHTS)}"
        )
    weight = _USAGE_WEIGHTS[policy]
    return lambda channel: (weight * usage[channel], channel)


def _normalise_counts(
    evaluator: AllocationEvaluator, target_counts: Sequence[int] | int
) -> List[int]:
    if is_count(target_counts):
        counts = [target_counts] * evaluator.communication_count
    elif isinstance(target_counts, (list, tuple)) and all(map(is_count, target_counts)):
        counts = list(target_counts)
    else:
        raise AllocationError(
            "target_counts must be an integer or a list of integers, "
            f"got {target_counts!r}"
        )
    if len(counts) != evaluator.communication_count:
        raise AllocationError(
            f"expected {evaluator.communication_count} wavelength counts, got {len(counts)}"
        )
    for count in counts:
        if not 1 <= count <= evaluator.wavelength_count:
            raise AllocationError(
                f"every communication must reserve between 1 and "
                f"{evaluator.wavelength_count} wavelengths (got {count})"
            )
    return counts


def _forbidden_channels(
    communication_index: int,
    assigned: Dict[int, Tuple[int, ...]],
    conflicts: Sequence[Tuple[int, int]],
) -> Set[int]:
    """Channels already taken by communications that conflict with this one."""
    forbidden: Set[int] = set()
    for first, second in conflicts:
        other = second if first == communication_index else first
        if communication_index in (first, second) and other in assigned:
            forbidden.update(assigned[other])
    return forbidden


def _greedy_assignment(
    evaluator: AllocationEvaluator,
    target_counts: Sequence[int] | int,
    policy: str,
) -> AllocationSolution:
    """Assign channels communication by communication in ``policy``'s order.

    Each communication takes the conflict-free channels :func:`preference`
    ranks first, given how many communications already reserved each channel.

    The assignment is evaluated through the evaluator's batch engine so that
    heuristic baselines carry exactly the same objective values as identical
    chromosomes discovered by the batch-powered searches.
    """
    counts = _normalise_counts(evaluator, target_counts)
    conflicts = evaluator.conflict_pairs(counts)
    usage = [0] * evaluator.wavelength_count
    key = preference(policy, usage)
    assigned: Dict[int, Tuple[int, ...]] = {}
    for index in range(evaluator.communication_count):
        forbidden = _forbidden_channels(index, assigned, conflicts)
        ranked = sorted(range(evaluator.wavelength_count), key=key)
        preferences = [channel for channel in ranked if channel not in forbidden]
        if len(preferences) < counts[index]:
            raise AllocationError(
                f"communication c{index} cannot reserve {counts[index]} wavelengths: only "
                f"{len(preferences)} conflict-free channels remain"
            )
        chosen = tuple(sorted(preferences[: counts[index]]))
        assigned[index] = chosen
        for channel in chosen:
            usage[channel] += 1
    allocation = [assigned[index] for index in range(evaluator.communication_count)]
    return evaluator.batch().evaluate_allocations([allocation]).solution(0)


def policy_allocation(
    evaluator: AllocationEvaluator,
    policy: str,
    target_counts: Sequence[int] | int = 1,
    seed: Optional[int] = None,
) -> AllocationSolution:
    """The allocation the policy named ``policy`` gives; only ``random`` reads ``seed``.

    Like the ranked policies, ``random`` raises :class:`AllocationError` when
    it finds no valid assignment.
    """
    if policy != "random":
        return _greedy_assignment(evaluator, target_counts, policy)
    solution = random_allocation(evaluator, target_counts, seed=seed)
    if not solution.is_valid:
        raise AllocationError(
            f"random allocation found no valid draw for target_counts {target_counts!r}"
        )
    return solution


def first_fit_allocation(
    evaluator: AllocationEvaluator, target_counts: Sequence[int] | int = 1
) -> AllocationSolution:
    """First-Fit: always reserve the lowest-indexed conflict-free channels."""
    return _greedy_assignment(evaluator, target_counts, "first_fit")


def most_used_allocation(
    evaluator: AllocationEvaluator, target_counts: Sequence[int] | int = 1
) -> AllocationSolution:
    """Most-Used: prefer channels already reserved by other communications.

    Packing traffic onto few wavelengths leaves whole channels free for future
    connections — the classical blocking-probability argument.
    """
    return _greedy_assignment(evaluator, target_counts, "most_used")


def least_used_allocation(
    evaluator: AllocationEvaluator, target_counts: Sequence[int] | int = 1
) -> AllocationSolution:
    """Least-Used: prefer the channels reserved by the fewest communications.

    Spreading traffic balances the load across the comb, which also spreads the
    crosstalk aggressors apart.
    """
    return _greedy_assignment(evaluator, target_counts, "least_used")


def random_allocation(
    evaluator: AllocationEvaluator,
    target_counts: Sequence[int] | int = 1,
    seed: Optional[int] = None,
    max_attempts: int = 200,
    batch_size: int = 32,
) -> AllocationSolution:
    """Random assignment: draw channel sets uniformly until a valid one appears.

    Candidates are screened in batches of ``batch_size`` through the
    evaluator's vectorized batch engine (whose validity verdicts are exact),
    and the returned solution is the first valid draw — identical to the one
    the historical attempt-by-attempt loop would have found.
    """
    counts = _normalise_counts(evaluator, target_counts)
    if batch_size < 1:
        raise AllocationError("the screening batch size must be at least 1")
    rng = np.random.default_rng(seed)
    batch_evaluator = evaluator.batch()

    def draw() -> List[Tuple[int, ...]]:
        return [
            tuple(
                sorted(
                    rng.choice(
                        evaluator.wavelength_count, size=counts[index], replace=False
                    ).tolist()
                )
            )
            for index in range(evaluator.communication_count)
        ]

    last_evaluation: Optional[BatchEvaluation] = None
    attempted = 0
    while attempted < max_attempts:
        pending = [draw() for _ in range(min(batch_size, max_attempts - attempted))]
        attempted += len(pending)
        evaluation = batch_evaluator.evaluate_allocations(pending)
        valid_rows = np.flatnonzero(evaluation.valid)
        if valid_rows.size:
            return evaluation.solution(int(valid_rows[0]))
        last_evaluation = evaluation
    if last_evaluation is None:
        raise AllocationError("random allocation produced no candidate")
    return last_evaluation.solution(len(last_evaluation) - 1)


def uniform_allocation(
    evaluator: AllocationEvaluator, wavelengths_per_communication: int = 1
) -> AllocationSolution:
    """Give every communication the same number of wavelengths, first-fit placed.

    ``uniform_allocation(evaluator, 1)`` is the paper's most energy-efficient
    reference point ``[1, 1, 1, 1, 1, 1]``.
    """
    return first_fit_allocation(evaluator, wavelengths_per_communication)
