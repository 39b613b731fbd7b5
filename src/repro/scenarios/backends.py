"""Optimizer backends and the workload / mapping-strategy registries.

Every search algorithm of the library is wrapped behind one uniform
:class:`OptimizerBackend` interface — ``run(evaluator, parameters)`` returning
an :class:`~repro.allocation.allocator.ExplorationResult` — and registered
under a stable name in :data:`OPTIMIZERS`:

``nsga2``
    The paper's NSGA-II genetic exploration (Section III-D).
``exhaustive``
    Exact enumeration of the chromosome space (tiny instances only).
``first_fit`` / ``least_used`` / ``most_used`` / ``random``
    The classical WDM heuristics, one :class:`HeuristicBackend` per policy
    name, optionally swept over several wavelengths-per-communication
    settings so they produce a small front instead of a single point.

The companion registries :data:`WORKLOADS` and :data:`MAPPING_STRATEGIES`
resolve the workload and mapping names a :class:`~repro.scenarios.scenario.Scenario`
carries.  All three accept third-party additions through their ``register``
decorator.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

from ..allocation import heuristics
from ..allocation.allocator import ExplorationResult
from ..allocation.exhaustive import exhaustive_pareto_front
from ..allocation.nsga2 import Nsga2Optimizer
from ..allocation.objectives import (
    AllocationEvaluator,
    AllocationSolution,
    ObjectiveVector,
)
from ..application.kernels import fft_task_graph, gaussian_elimination_task_graph
from ..application.mapping import Mapping
from ..application.task_graph import TaskGraph
from ..application.workloads import (
    default_mapping,
    fork_join_task_graph,
    paper_mapping,
    paper_task_graph,
    pipeline_task_graph,
    random_task_graph,
)
from ..config import GeneticParameters, is_count
from ..errors import AllocationError, ScenarioError
from ..topology.base import OnocTopology
from ..registry import Registry

__all__ = [
    "OptimizerParameters",
    "OptimizerBackend",
    "OPTIMIZERS",
    "WORKLOADS",
    "MAPPING_STRATEGIES",
    "create_optimizer",
    "build_workload",
    "build_mapping",
]


@dataclass(frozen=True)
class OptimizerParameters:
    """Everything a backend may need for one run.

    ``genetic`` carries the GA sizing *and* the run seed (which the non-genetic
    backends reuse for their own randomness); ``options`` holds backend-specific
    knobs taken verbatim from ``Scenario.optimizer_options``.
    """

    genetic: GeneticParameters = field(default_factory=GeneticParameters)
    objective_keys: Tuple[str, ...] = ObjectiveVector.KEYS
    options: Dict[str, Any] = field(default_factory=dict)

    @property
    def seed(self) -> int:
        """The run seed (shared with the GA parameters)."""
        return self.genetic.seed


class OptimizerBackend(Protocol):
    """The single interface every search algorithm is wrapped behind."""

    name: str

    def run(
        self, evaluator: AllocationEvaluator, parameters: OptimizerParameters
    ) -> ExplorationResult:
        """Execute the search and return its exploration result."""
        ...


#: Optimizer backends by name (``nsga2``, ``exhaustive``, the heuristics ...).
OPTIMIZERS: Registry[Callable[[], OptimizerBackend]] = Registry("optimizer backend")

#: Workload generators by name (``paper``, ``pipeline``, ``fft`` ...).
WORKLOADS: Registry[Callable[..., TaskGraph]] = Registry("workload")

#: Mapping strategies by name (``paper``, ``round_robin``, ``random`` ...).
MAPPING_STRATEGIES: Registry[Callable[..., Mapping]] = Registry("mapping strategy")


def create_optimizer(name: str) -> OptimizerBackend:
    """Instantiate the optimizer backend registered under ``name``."""
    return OPTIMIZERS.get(name)()


def _fold_seed(
    factory: Callable[..., Any], options: Dict[str, Any], seed: Optional[int]
) -> Dict[str, Any]:
    """Inject ``seed`` into ``options`` when the factory is seedable but unseeded.

    Randomised factories (``random_task_graph``, the ``random`` mapping ...)
    fall back to their own defaults when no ``seed`` option is given — for the
    workload that default is ``None``, i.e. a *different* graph on every call,
    which would break the "same fingerprint ⇒ same run" promise of
    :meth:`Scenario.fingerprint` and poison the study cache.  Folding the
    scenario-level seed in keeps every materialisation deterministic; an
    explicit ``seed`` option always wins.
    """
    if seed is None or "seed" in options:
        return options
    try:
        parameters = inspect.signature(factory).parameters
    except (TypeError, ValueError):  # builtins / C callables: nothing to inspect
        return options
    if "seed" not in parameters:
        return options
    return {**options, "seed": seed}


def build_workload(
    name: str, options: Dict[str, Any], seed: Optional[int] = None
) -> TaskGraph:
    """Build the task graph of the workload registered under ``name``.

    ``seed`` (typically :attr:`Scenario.effective_seed`) is folded into the
    options of seedable workloads that carry no explicit ``seed`` option, so
    randomised workloads stay deterministic per scenario.
    """
    factory = WORKLOADS.get(name)
    try:
        return factory(**_fold_seed(factory, options, seed))
    except TypeError as error:
        raise ScenarioError(f"invalid options for workload {name!r}: {error}") from None


def build_mapping(
    name: str,
    task_graph: TaskGraph,
    architecture: OnocTopology,
    options: Dict[str, Any],
    seed: Optional[int] = None,
) -> Mapping:
    """Apply the mapping strategy registered under ``name``.

    ``seed`` plays the same role as in :func:`build_workload`: it seeds
    randomised strategies whose options carry no explicit ``seed``.
    """
    strategy = MAPPING_STRATEGIES.get(name)
    try:
        return strategy(task_graph, architecture, **_fold_seed(strategy, options, seed))
    except TypeError as error:
        raise ScenarioError(f"invalid options for mapping {name!r}: {error}") from None


# ------------------------------------------------------------------ optimizers
@OPTIMIZERS.register("nsga2")
class Nsga2Backend:
    """The paper's NSGA-II exploration behind the uniform backend interface.

    It takes no options: the GA sizing and seed come from ``genetic``.
    """

    name = "nsga2"

    def run(
        self, evaluator: AllocationEvaluator, parameters: OptimizerParameters
    ) -> ExplorationResult:
        if parameters.options:
            raise ScenarioError(
                f"unknown options for optimizer {self.name!r}: {sorted(parameters.options)}"
            )
        run = Nsga2Optimizer(
            evaluator=evaluator,
            parameters=parameters.genetic,
            objective_keys=parameters.objective_keys,
        ).run()
        return ExplorationResult(
            wavelength_count=evaluator.wavelength_count,
            objective_keys=tuple(parameters.objective_keys),
            front=run.pareto_front,
            solutions=run.unique_valid_solutions,
            valid_count=run.valid_solution_count,
            backend=self.name,
            evaluations=run.evaluations,
            memo_hits=run.memo_hits,
            nsga2=run,
        )


@OPTIMIZERS.register("exhaustive")
class ExhaustiveBackend:
    """Exact enumeration of the chromosome space (the *true* Pareto front).

    Only tractable for tiny instances; the result's ``valid_solutions`` holds
    the front members only (keeping every enumerated solution would defeat the
    point of summarising an exponential space), while ``valid_solution_count``
    reports the true number of valid chromosomes encountered.  It takes no
    options: the space is enumerated in batches of
    :data:`~repro.allocation.exhaustive.DEFAULT_BATCH_SIZE`, which bounds the
    enumeration's peak memory.
    """

    name = "exhaustive"

    def run(
        self, evaluator: AllocationEvaluator, parameters: OptimizerParameters
    ) -> ExplorationResult:
        if parameters.options:
            raise ScenarioError(
                f"unknown options for optimizer {self.name!r}: {sorted(parameters.options)}"
            )
        front, valid_count = exhaustive_pareto_front(evaluator, parameters.objective_keys)
        space = (2 ** evaluator.wavelength_count - 1) ** evaluator.communication_count
        result = ExplorationResult.from_solutions(
            wavelength_count=evaluator.wavelength_count,
            objective_keys=parameters.objective_keys,
            solutions=[item for item, _ in front],
            valid_count=valid_count,
            backend=self.name,
            evaluations=space,
        )
        return result


class HeuristicBackend:
    """One classical single-shot WDM policy, named by its registry key.

    The backend is registered once per name in
    :data:`~repro.allocation.heuristics.POLICIES` and hands the assignment to
    :func:`~repro.allocation.heuristics.policy_allocation`; ``random`` draws
    from the run seed.

    Options (all optional):

    ``target_counts``
        Wavelengths per communication — an integer applied uniformly or an
        explicit per-communication list.  Default 1.
    ``sweep``
        A list of uniform counts to evaluate instead of a single target; the
        feasible ones are pooled into one result so the heuristic produces a
        small front.  Infeasible entries are skipped (reserving many
        wavelengths per communication quickly becomes impossible).
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def run(
        self, evaluator: AllocationEvaluator, parameters: OptimizerParameters
    ) -> ExplorationResult:
        options = dict(parameters.options)
        sweep = options.pop("sweep", None)
        target_counts = options.pop("target_counts", 1)
        if options:
            raise ScenarioError(
                f"unknown options for optimizer {self.name!r}: {sorted(options)}"
            )
        if sweep is not None and not (
            isinstance(sweep, (list, tuple))
            and all(map(is_count, sweep))
        ):
            raise ScenarioError(
                f"optimizer {self.name!r}: 'sweep' must be a list of integers, got {sweep!r}"
            )
        targets = [target_counts] if sweep is None else list(sweep)
        solutions: List[AllocationSolution] = []
        for target in targets:
            try:
                solutions.append(
                    heuristics.policy_allocation(evaluator, self.name, target, parameters.seed)
                )
            except AllocationError:
                if sweep is None:
                    raise
        if not solutions:
            raise ScenarioError(
                f"optimizer {self.name!r}: no entry of sweep {list(sweep)!r} is feasible"
            )
        # No evaluation count is reported: the heuristics do not track how many
        # candidates they screened (e.g. `random` may batch-evaluate hundreds),
        # and a misleading number would corrupt throughput comparisons.
        return ExplorationResult.from_solutions(
            wavelength_count=evaluator.wavelength_count,
            objective_keys=parameters.objective_keys,
            solutions=solutions,
            backend=self.name,
        )


for _policy in heuristics.POLICIES:
    OPTIMIZERS.register(_policy)(functools.partial(HeuristicBackend, _policy))


@OPTIMIZERS.register("dynamic_rwa")
class DynamicRwaBackend:
    """Marker backend of the dynamic-traffic workload family.

    A scenario carrying a ``traffic`` block never reaches
    :meth:`OptimizerBackend.run`:
    :func:`~repro.scenarios.study.execute_scenario` routes it through
    :class:`~repro.traffic.simulator.DynamicTrafficSimulator` instead, because
    the dynamic family has no population to search — its output is a
    :class:`~repro.traffic.simulator.BlockingReport`, not an exploration
    result.  Registering the name keeps scenario documents validating against
    one optimizer registry and the CLI listing complete.
    """

    name = "dynamic_rwa"

    def run(
        self, evaluator: AllocationEvaluator, parameters: OptimizerParameters
    ) -> ExplorationResult:
        raise ScenarioError(
            "the 'dynamic_rwa' backend runs through the dynamic-traffic "
            "simulator; give the scenario a traffic block "
            "(ScenarioBuilder.traffic(...)) and execute it via "
            "execute_scenario/Study"
        )


# ------------------------------------------------------------------- workloads
WORKLOADS.register("paper")(paper_task_graph)
WORKLOADS.register("pipeline")(pipeline_task_graph)
WORKLOADS.register("fork_join")(fork_join_task_graph)
WORKLOADS.register("random")(random_task_graph)
WORKLOADS.register("fft")(fft_task_graph)
WORKLOADS.register("gaussian_elimination")(gaussian_elimination_task_graph)


# ---------------------------------------------------------- mapping strategies
@MAPPING_STRATEGIES.register("paper")
def _paper_mapping_strategy(
    task_graph: TaskGraph, architecture: OnocTopology
) -> Mapping:
    """The paper's fixed placement of the Fig. 5 application (Fig. 5b)."""
    return paper_mapping(architecture)


@MAPPING_STRATEGIES.register("round_robin")
def _round_robin_strategy(
    task_graph: TaskGraph,
    architecture: OnocTopology,
    stride: int = 1,
    start: int = 0,
) -> Mapping:
    """Constant-stride spread of the tasks along the ring."""
    return Mapping.round_robin(task_graph, architecture, stride=stride, start=start)


@MAPPING_STRATEGIES.register("random")
def _random_mapping_strategy(
    task_graph: TaskGraph,
    architecture: OnocTopology,
    seed: int = 2017,
) -> Mapping:
    """A uniformly random one-to-one placement."""
    return Mapping.random(task_graph, architecture, seed=seed)


@MAPPING_STRATEGIES.register("default")
def _default_mapping_strategy(
    task_graph: TaskGraph,
    architecture: OnocTopology,
    stride: int = 2,
) -> Mapping:
    """The library's deterministic stride-2 spread (works for any workload)."""
    return default_mapping(task_graph, architecture, stride=stride)
