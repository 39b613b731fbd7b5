"""Wavelength allocation: the paper's primary contribution.

* :mod:`~repro.allocation.chromosome`  — the binary chromosome of Fig. 4 and its
  encoding/decoding helpers.
* :mod:`~repro.allocation.objectives`  — validity rules and the three objective
  functions (global execution time, average BER, bit energy); the *scalar
  reference* implementation.
* :mod:`~repro.allocation.batch`       — the vectorized population-level
  evaluation engine every optimizer backend runs on.
* :mod:`~repro.allocation.pareto`      — non-dominated sorting, crowding
  distance and Pareto-front containers as vectorized NumPy kernels (their
  pure-Python oracles live in the test-suite).
* :mod:`~repro.allocation.nsga2`       — the NSGA-II engine (Section III-D).
* :mod:`~repro.allocation.heuristics`  — classical baselines (random, first-fit,
  most-used, least-used, uniform).
* :mod:`~repro.allocation.exhaustive`  — brute-force enumeration for tiny
  instances, used to validate the GA.
* :mod:`~repro.allocation.allocator`   —
  :class:`~repro.allocation.allocator.ExplorationResult`, the one result type
  every optimizer backend returns.

Runs are described as a :class:`~repro.scenarios.scenario.Scenario` and
executed by :func:`~repro.scenarios.study.execute_scenario`; an evaluator for
ad-hoc use comes from :func:`~repro.scenarios.study.build_scenario_evaluator`.
"""

from .chromosome import Chromosome
from .objectives import (
    AllocationEvaluator,
    AllocationSolution,
    CrosstalkScope,
    EvaluatorArrays,
    ObjectiveVector,
    ValidityReport,
)
from .batch import BatchEvaluation, BatchEvaluator
from .pareto import (
    ParetoFront,
    crowding_distance,
    dominance_matrix,
    dominates,
    non_dominated_sort,
)
from .nsga2 import Nsga2Optimizer, Nsga2Result
from .heuristics import (
    first_fit_allocation,
    least_used_allocation,
    most_used_allocation,
    random_allocation,
    uniform_allocation,
)
from .exhaustive import exhaustive_pareto_front
from .allocator import ExplorationResult

__all__ = [
    "Chromosome",
    "AllocationEvaluator",
    "AllocationSolution",
    "BatchEvaluation",
    "BatchEvaluator",
    "CrosstalkScope",
    "EvaluatorArrays",
    "ObjectiveVector",
    "ValidityReport",
    "ParetoFront",
    "crowding_distance",
    "dominance_matrix",
    "dominates",
    "non_dominated_sort",
    "Nsga2Optimizer",
    "Nsga2Result",
    "first_fit_allocation",
    "least_used_allocation",
    "most_used_allocation",
    "random_allocation",
    "uniform_allocation",
    "exhaustive_pareto_front",
    "ExplorationResult",
]
