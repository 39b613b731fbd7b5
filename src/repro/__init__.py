"""repro — Performance and energy aware wavelength allocation on ring-based WDM 3D optical NoC.

This package is an open-source reproduction of Luo et al., DATE 2017.  It
provides:

* device-level photonic models (micro-ring resonators, VCSELs, waveguides),
* a pluggable topology subsystem (:data:`TOPOLOGIES`) with the paper's
  serpentine ring, a multi-ring 3D stack and a Li-style optical crossbar,
* the power-loss / crosstalk / SNR / BER models of Eqs. (1)-(9),
* the task-graph execution-time model of Eqs. (10)-(12),
* the NSGA-II wavelength-allocation exploration of Section III-D,
* classical heuristic baselines, an exhaustive reference search, a
  discrete-event simulator, and the experiment drivers that regenerate the
  paper's Table II and Figures 6a/6b/7,
* a persistent, content-addressed result store (:mod:`repro.store`) that
  makes studies resumable and serves cached Pareto fronts over HTTP
  (``repro serve``).

Quickstart
----------
Every run is a declarative :class:`Scenario` — by default the paper's Fig. 5
application and mapping on the 4x4 ring — executed by
:func:`execute_scenario`:

>>> from repro import GeneticParameters, Scenario, execute_scenario
>>> scenario = Scenario(
...     wavelength_count=8,
...     genetic=GeneticParameters(population_size=16, generations=6))
>>> outcome = execute_scenario(scenario)
>>> best_energy = outcome.result.best_by("energy")
>>> rows = outcome.pareto_rows()
"""

from .config import (
    EnergyParameters,
    GeneticParameters,
    OnocConfiguration,
    PhotonicParameters,
    TimingParameters,
)
from .errors import (
    AllocationError,
    ConfigurationError,
    ExperimentError,
    InvalidChromosomeError,
    JobError,
    MappingError,
    ReproError,
    ScenarioError,
    SchedulingError,
    SimulationError,
    StoreError,
    TaskGraphError,
    TopologyError,
    TrafficError,
)
from .topology import (
    TOPOLOGIES,
    CrossbarOnocArchitecture,
    MultiRingOnocArchitecture,
    OnocTopology,
    RingOnocArchitecture,
    TileLayout,
    build_topology,
    worst_case_link_loss_db,
)
from .application import (
    ListScheduler,
    Mapping,
    TaskGraph,
    build_communications,
    default_mapping,
    fork_join_task_graph,
    paper_mapping,
    paper_task_graph,
    pipeline_task_graph,
    random_task_graph,
)
from .allocation import (
    AllocationEvaluator,
    AllocationSolution,
    Chromosome,
    CrosstalkScope,
    ExplorationResult,
    Nsga2Optimizer,
    ObjectiveVector,
    ParetoFront,
)
from .models import BerModel, BitEnergyModel, LinkBudget, PowerLossModel, SnrModel
from .simulation import (
    ConflictRecord,
    OnocSimulator,
    SimulationReport,
    SimulationVerifier,
    SolutionVerification,
    VerificationReport,
)
from .scenarios import (
    Scenario,
    ScenarioBuilder,
    ScenarioResult,
    Study,
    StudyResult,
    TrafficSettings,
    VerificationSettings,
    execute_scenario,
    fetch_or_execute,
)
from .traffic import (
    ONLINE_ALLOCATORS,
    TRAFFIC_MODELS,
    BlockingReport,
    ConnectionRequest,
    DynamicTrafficSimulator,
    OnlineAllocator,
    TrafficModel,
    erlang_b,
    sweep_blocking,
)
from .store import (
    Job,
    MemoryStore,
    ResultStore,
    Worker,
    WorkerPool,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "OnocConfiguration",
    "PhotonicParameters",
    "TimingParameters",
    "EnergyParameters",
    "GeneticParameters",
    # errors
    "ReproError",
    "ConfigurationError",
    "TopologyError",
    "TaskGraphError",
    "MappingError",
    "AllocationError",
    "InvalidChromosomeError",
    "SchedulingError",
    "SimulationError",
    "ExperimentError",
    "ScenarioError",
    "StoreError",
    "JobError",
    "TrafficError",
    # architecture / topologies
    "RingOnocArchitecture",
    "MultiRingOnocArchitecture",
    "CrossbarOnocArchitecture",
    "OnocTopology",
    "TOPOLOGIES",
    "build_topology",
    "worst_case_link_loss_db",
    "TileLayout",
    # application
    "TaskGraph",
    "Mapping",
    "ListScheduler",
    "build_communications",
    "paper_task_graph",
    "paper_mapping",
    "pipeline_task_graph",
    "fork_join_task_graph",
    "random_task_graph",
    "default_mapping",
    # allocation
    "Chromosome",
    "AllocationEvaluator",
    "AllocationSolution",
    "ObjectiveVector",
    "CrosstalkScope",
    "Nsga2Optimizer",
    "ExplorationResult",
    "ParetoFront",
    # models
    "PowerLossModel",
    "SnrModel",
    "BerModel",
    "BitEnergyModel",
    "LinkBudget",
    # simulation
    "OnocSimulator",
    "SimulationReport",
    "ConflictRecord",
    "SimulationVerifier",
    "SolutionVerification",
    "VerificationReport",
    # scenarios
    "Scenario",
    "ScenarioBuilder",
    "ScenarioResult",
    "Study",
    "StudyResult",
    "TrafficSettings",
    "VerificationSettings",
    "execute_scenario",
    "fetch_or_execute",
    # dynamic traffic
    "TrafficModel",
    "TRAFFIC_MODELS",
    "OnlineAllocator",
    "ONLINE_ALLOCATORS",
    "ConnectionRequest",
    "BlockingReport",
    "DynamicTrafficSimulator",
    "erlang_b",
    "sweep_blocking",
    # result store + job queue
    "MemoryStore",
    "ResultStore",
    "Job",
    "Worker",
    "WorkerPool",
]
