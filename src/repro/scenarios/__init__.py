"""Declarative scenario / study API.

This subpackage is the public face of the design-space-exploration machinery:

* :mod:`~repro.scenarios.scenario` — :class:`Scenario`, a serialisable value
  object describing one complete run, plus the fluent :class:`ScenarioBuilder`.
* :mod:`~repro.scenarios.backends` — the :class:`OptimizerBackend` protocol and
  the ``nsga2`` / ``exhaustive`` / heuristic backends, together with the
  workload and mapping-strategy registries.
* :mod:`~repro.scenarios.study` — :func:`execute_scenario` and the
  :class:`Study` runner with process-pool parallelism, fingerprint caching and
  CSV/report export.

Quickstart::

    from repro.scenarios import ScenarioBuilder, Study

    scenarios = [
        ScenarioBuilder().named(f"nw{nw}").wavelengths(nw)
        .genetic(population_size=64, generations=40).build()
        for nw in (4, 8, 12)
    ]
    result = Study(scenarios).run(parallel=3)
    print(result.report())
"""

from ..registry import Registry
from .scenario import (
    SCENARIO_SCHEMA,
    Scenario,
    ScenarioBuilder,
    TrafficSettings,
    VerificationSettings,
)
from .backends import (
    MAPPING_STRATEGIES,
    OPTIMIZERS,
    WORKLOADS,
    OptimizerBackend,
    OptimizerParameters,
    build_mapping,
    build_workload,
    create_optimizer,
)
from .study import (
    STUDY_SCHEMA,
    ScenarioOutcome,
    ScenarioResult,
    Study,
    StudyResult,
    build_scenario_evaluator,
    execute_scenario,
    fetch_or_execute,
)

__all__ = [
    "Registry",
    "SCENARIO_SCHEMA",
    "STUDY_SCHEMA",
    "Scenario",
    "ScenarioBuilder",
    "TrafficSettings",
    "VerificationSettings",
    "OptimizerBackend",
    "OptimizerParameters",
    "OPTIMIZERS",
    "WORKLOADS",
    "MAPPING_STRATEGIES",
    "create_optimizer",
    "build_workload",
    "build_mapping",
    "build_scenario_evaluator",
    "execute_scenario",
    "fetch_or_execute",
    "ScenarioOutcome",
    "ScenarioResult",
    "Study",
    "StudyResult",
]
