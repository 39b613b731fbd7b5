"""Unit tests for the baseline wavelength-assignment heuristics."""

from __future__ import annotations

import pytest

from repro.allocation import (
    first_fit_allocation,
    least_used_allocation,
    most_used_allocation,
    random_allocation,
    uniform_allocation,
)
from repro.allocation.heuristics import POLICIES, policy_allocation, preference
from repro.errors import AllocationError


class TestFirstFit:
    def test_single_wavelength_assignment_is_valid(self, evaluator):
        solution = first_fit_allocation(evaluator, 1)
        assert solution.is_valid
        assert solution.wavelength_counts == (1,) * 6

    def test_prefers_low_indices(self, evaluator):
        solution = first_fit_allocation(evaluator, 1)
        used = {channel for channels in solution.chromosome.allocation() for channel in channels}
        assert min(used) == 0
        assert max(used) <= 3

    def test_multi_wavelength_assignment(self, evaluator):
        solution = first_fit_allocation(evaluator, 2)
        assert solution.is_valid
        assert solution.wavelength_counts == (2,) * 6

    def test_per_communication_counts(self, evaluator):
        solution = first_fit_allocation(evaluator, [1, 2, 1, 2, 1, 2])
        assert solution.is_valid
        assert solution.wavelength_counts == (1, 2, 1, 2, 1, 2)

    def test_impossible_request_raises(self, evaluator):
        # Conflicting fan-out communications cannot both take all 8 wavelengths.
        with pytest.raises(AllocationError):
            first_fit_allocation(evaluator, 8)

    def test_count_bounds_checked(self, evaluator):
        with pytest.raises(AllocationError):
            first_fit_allocation(evaluator, 0)
        with pytest.raises(AllocationError):
            first_fit_allocation(evaluator, 9)
        with pytest.raises(AllocationError):
            first_fit_allocation(evaluator, [1, 1])


class TestUsageAwareHeuristics:
    def test_most_used_packs_wavelengths(self, evaluator):
        solution = most_used_allocation(evaluator, 1)
        assert solution.is_valid
        used = [channel for channels in solution.chromosome.allocation() for channel in channels]
        # Packing: fewer distinct wavelengths than communications.
        assert len(set(used)) < len(used)

    def test_least_used_spreads_wavelengths(self, evaluator):
        solution = least_used_allocation(evaluator, 1)
        assert solution.is_valid
        most = most_used_allocation(evaluator, 1)
        spread = len({c for cs in solution.chromosome.allocation() for c in cs})
        packed = len({c for cs in most.chromosome.allocation() for c in cs})
        assert spread >= packed

    def test_both_policies_produce_finite_objectives(self, evaluator):
        spread = least_used_allocation(evaluator, 1)
        packed = most_used_allocation(evaluator, 1)
        for solution in (spread, packed):
            assert solution.objectives.is_finite
            assert 0.0 < solution.objectives.mean_bit_error_rate < 0.5


class TestRandomAndUniform:
    def test_random_allocation_is_reproducible(self, evaluator):
        first = random_allocation(evaluator, 1, seed=3)
        second = random_allocation(evaluator, 1, seed=3)
        assert first.chromosome == second.chromosome

    def test_random_allocation_eventually_valid(self, evaluator):
        solution = random_allocation(evaluator, 1, seed=0, max_attempts=500)
        assert solution.is_valid

    def test_uniform_is_first_fit(self, evaluator):
        assert uniform_allocation(evaluator, 1).chromosome == first_fit_allocation(
            evaluator, 1
        ).chromosome

    def test_uniform_one_is_the_energy_reference(self, evaluator):
        single = uniform_allocation(evaluator, 1)
        double = uniform_allocation(evaluator, 2)
        assert single.objectives.bit_energy_fj < double.objectives.bit_energy_fj
        assert single.objectives.execution_time_kcycles > double.objectives.execution_time_kcycles


class TestPolicyRule:
    def test_preference_ranks_by_weighted_usage_then_index(self):
        usage = [2, 0, 2, 1]

        def order(policy):
            return sorted(range(len(usage)), key=preference(policy, usage))

        assert order("first_fit") == [0, 1, 2, 3]
        assert order("least_used") == [1, 3, 0, 2]
        assert order("most_used") == [0, 2, 3, 1]

    def test_random_ranks_nothing(self):
        with pytest.raises(AllocationError, match="ranks no channels"):
            preference("random", [0, 0])

    def test_policy_allocation_dispatches_every_policy(self, evaluator):
        named = {
            "first_fit": first_fit_allocation(evaluator, 2),
            "least_used": least_used_allocation(evaluator, 2),
            "most_used": most_used_allocation(evaluator, 2),
            "random": random_allocation(evaluator, 2, seed=5),
        }
        assert set(named) == set(POLICIES)
        for policy, expected in named.items():
            chosen = policy_allocation(evaluator, policy, 2, seed=5)
            assert chosen.chromosome == expected.chromosome
