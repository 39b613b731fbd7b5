"""Scenario execution and batched, parallel studies.

:func:`execute_scenario` turns one declarative
:class:`~repro.scenarios.scenario.Scenario` into a live run: it resolves the
workload, mapping and optimizer names through the registries, builds the
architecture and evaluator, executes the backend and wraps the outcome.
The evaluator of a static run and the topology of a dynamic one come from a
small per-process cache, keyed by exactly what their builders read, so a
study or a queue round that repeats one setup builds it once.

:class:`Study` batches many scenarios: it deduplicates identical scenarios by
fingerprint, caches their results in a result store (an in-process
:class:`~repro.store.sqlite.MemoryStore` by default; pass a
:class:`~repro.store.sqlite.ResultStore` file to make studies durable and
warm-startable across processes), executes the remainder serially or through
a :class:`~concurrent.futures.ProcessPoolExecutor`, and reports progress
through a callback.  Because every scenario carries its own seed, serial and
parallel execution produce identical :class:`ScenarioResult` summaries — the
test-suite asserts this.

    study = Study([scenario_a, scenario_b, scenario_c], store=ResultStore("s.sqlite"))
    result = study.run(parallel=4, progress=lambda done, total, r: print(done, total))
    result.to_csv("study.csv")
    print(result.report())
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (repro.store imports this module)
    from ..store.sqlite import ResultStore
    from ..traffic.simulator import BlockingReport

import json

from ..allocation.allocator import ExplorationResult
from ..allocation.objectives import AllocationEvaluator
from ..analysis.csvout import write_csv
from ..analysis.plotting import format_table
from ..config import OnocConfiguration
from ..errors import ScenarioError
from ..simulation.verify import SimulationVerifier, VerificationReport
from ..telemetry import (
    MetricsRegistry,
    Stopwatch,
    get_registry,
    set_registry,
    span,
)
from ..topology.base import OnocTopology
from ..topology.registry import build_topology
from .backends import (
    MAPPING_STRATEGIES,
    WORKLOADS,
    OptimizerParameters,
    _fold_seed,
    build_mapping,
    build_workload,
    create_optimizer,
)
from .scenario import Scenario

__all__ = [
    "STUDY_SCHEMA",
    "ScenarioOutcome",
    "ScenarioResult",
    "Study",
    "StudyResult",
    "build_scenario_evaluator",
    "execute_scenario",
    "fetch_or_execute",
]

#: Identifier embedded in every serialised study document.
STUDY_SCHEMA = "repro.study/1"

#: Progress callback signature: ``(completed_count, total_count, latest_result)``.
ProgressCallback = Callable[[int, int, "ScenarioResult"], None]

#: Scenario setups one process keeps, least recently used out first.  A queue
#: round of the benchmark mix needs four: three evaluators and one topology.
SETUP_CACHE_SIZE = 8

SetupT = TypeVar("SetupT")

_setups: "OrderedDict[str, Any]" = OrderedDict()
_setups_lock = threading.Lock()


def _scenario_topology(
    scenario: Scenario, configuration: Optional[OnocConfiguration] = None
) -> OnocTopology:
    return build_topology(
        scenario.topology,
        scenario.rows,
        scenario.columns,
        wavelength_count=scenario.wavelength_count,
        configuration=configuration or scenario.onoc_configuration(),
        options=scenario.topology_options,
    )


def build_scenario_evaluator(scenario: Scenario) -> AllocationEvaluator:
    """Resolve a scenario into a ready-to-search allocation evaluator.

    The architecture comes from the :data:`~repro.topology.registry.TOPOLOGIES`
    registry, so the same scenario document explores the ring, the 3D
    multi-ring stack or the crossbar purely through its ``topology`` field.
    Every call builds a fresh evaluator; :func:`execute_scenario` reuses one
    per setup through the process's setup cache.
    """
    configuration = scenario.onoc_configuration()
    architecture = _scenario_topology(scenario, configuration)
    task_graph = build_workload(
        scenario.workload, scenario.workload_options, seed=scenario.effective_seed
    )
    mapping = build_mapping(
        scenario.mapping,
        task_graph,
        architecture,
        scenario.mapping_options,
        seed=scenario.effective_seed,
    )
    return AllocationEvaluator(
        architecture=architecture,
        task_graph=task_graph,
        mapping=mapping,
        configuration=configuration,
        crosstalk_scope=scenario.scope(),
    )


def _setup_key(scenario: Scenario, kind: str) -> Optional[str]:
    """Canonical JSON of what the ``kind`` setup's builder reads from ``scenario``.

    Both kinds read the topology, the grid and the photonic/timing/energy
    ``overrides``; an evaluator also reads the workload, the mapping and the
    crosstalk scope.  The GA block never enters, although
    :meth:`Scenario.onoc_configuration` carries one: no builder reads it.  The
    effective seed enters only inside the workload or mapping options that
    ``_fold_seed`` hands it to.  ``None`` (no caching) when a workload or
    mapping name does not resolve, so the builder raises its own error.
    """
    document: Dict[str, Any] = {
        "kind": kind,
        "topology": [scenario.topology, scenario.topology_options],
        "grid": [scenario.rows, scenario.columns, scenario.wavelength_count],
        "overrides": scenario.overrides,
    }
    if kind == "evaluator":
        if scenario.workload not in WORKLOADS or scenario.mapping not in MAPPING_STRATEGIES:
            return None
        seed = scenario.effective_seed
        document["workload"] = [
            scenario.workload,
            _fold_seed(WORKLOADS.get(scenario.workload), scenario.workload_options, seed),
        ]
        document["mapping"] = [
            scenario.mapping,
            _fold_seed(
                MAPPING_STRATEGIES.get(scenario.mapping), scenario.mapping_options, seed
            ),
        ]
        document["crosstalk_scope"] = scenario.crosstalk_scope
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _scenario_setup(
    scenario: Scenario,
    kind: str,
    build: Callable[[Scenario], SetupT],
    fingerprint: str,
) -> SetupT:
    """The ``kind`` setup of ``scenario`` from the process's cache, built on a miss.

    A build that raises leaves nothing behind.  Cached setups are shared by
    every later run with the same key, so nothing that runs on them may
    change their state (the evaluator's arrays are read-only; nothing in
    the library switches a cached topology's receivers on).
    """
    key = _setup_key(scenario, kind)
    setup: Optional[SetupT] = None
    if key is not None:
        with _setups_lock:
            setup = _setups.get(key)
            if setup is not None:
                _setups.move_to_end(key)
    cached = setup is not None
    with span("scenario.setup", fingerprint=fingerprint, kind=kind, cached=cached):
        if setup is None:
            setup = build(scenario)
            if key is not None:
                with _setups_lock:
                    _setups[key] = setup
                    while len(_setups) > SETUP_CACHE_SIZE:
                        _setups.popitem(last=False)
    get_registry().counter("repro_scenario_setups_total", kind=kind, cached=cached).inc()
    return setup


def execute_scenario(
    scenario: Scenario, store: Optional["ResultStore"] = None
) -> "ScenarioOutcome":
    """Run one scenario end to end and return the full outcome.

    When the scenario's ``verification`` block enables simulation, every
    Pareto solution the backend reports is replayed through the
    discrete-event :class:`~repro.simulation.verify.SimulationVerifier`
    afterwards; the replay outcome travels with the result (and the replay
    time counts into ``runtime_seconds`` — it is part of the run).

    ``execute_scenario`` always executes — it is the execution primitive.
    When ``store`` is given the resulting summary is written through to it,
    so later :func:`fetch_or_execute` / :class:`Study` calls can serve the
    run from the store instead of repeating it.

    A scenario carrying a ``traffic`` block belongs to the dynamic workload
    family: instead of searching a population it replays the traffic model's
    request stream through the
    :class:`~repro.traffic.simulator.DynamicTrafficSimulator` and reports a
    blocking probability — same outcome type, same store semantics.
    """
    fingerprint = scenario.fingerprint()
    if scenario.traffic is not None:
        outcome = _execute_dynamic_scenario(scenario, fingerprint)
        if store is not None:
            store.put(outcome.summary())
        return outcome
    evaluator = _scenario_setup(scenario, "evaluator", build_scenario_evaluator, fingerprint)
    backend = create_optimizer(scenario.optimizer)
    parameters = OptimizerParameters(
        genetic=scenario.genetic_parameters(),
        objective_keys=scenario.objectives,
        options=dict(scenario.optimizer_options),
    )
    with span(
        "scenario.execute",
        fingerprint=fingerprint,
        optimizer=scenario.optimizer,
        workload=scenario.workload,
        topology=scenario.topology,
    ), Stopwatch() as watch:
        result = backend.run(evaluator, parameters)
        verification: Optional[VerificationReport] = None
        settings = scenario.verification
        if settings.simulate:
            verification = SimulationVerifier.from_evaluator(
                evaluator, tolerance=settings.tolerance
            ).verify_solutions(result.pareto_solutions)
    get_registry().counter("repro_scenario_executions_total", kind="static").inc()
    outcome = ScenarioOutcome(
        scenario=scenario,
        result=result,
        runtime_seconds=watch.elapsed,
        verification=verification,
    )
    if store is not None:
        store.put(outcome.summary())
    return outcome


def _execute_dynamic_scenario(scenario: Scenario, fingerprint: str) -> "ScenarioOutcome":
    """Run the dynamic-traffic path of :func:`execute_scenario`.

    The traffic model's RNG derives from :attr:`Scenario.effective_seed` and
    the allocator's from the adjacent stream (``seed + 1``), so one scenario
    seed pins both the request sequence and any randomised strategy — the
    fingerprint promise holds for dynamic runs exactly as for static ones.
    """
    from ..traffic.allocators import ALLOCATOR_SEED_OFFSET, build_online_allocator
    from ..traffic.models import build_traffic_model
    from ..traffic.simulator import DynamicTrafficSimulator

    settings = scenario.traffic
    if settings is None:  # pragma: no cover - guarded by the caller
        raise ScenarioError("dynamic execution needs a scenario with a traffic block")
    topology = _scenario_setup(scenario, "topology", _scenario_topology, fingerprint)
    model = build_traffic_model(
        settings.model, settings.model_options, seed=scenario.effective_seed
    )
    allocator = build_online_allocator(
        settings.strategy,
        settings.strategy_options,
        seed=scenario.effective_seed + ALLOCATOR_SEED_OFFSET,
    )
    simulator = DynamicTrafficSimulator(
        topology,
        model,
        allocator,
        warmup_fraction=settings.warmup_fraction,
        topology_name=scenario.topology,
    )
    with span(
        "scenario.dynamic",
        fingerprint=fingerprint,
        strategy=settings.strategy,
        topology=scenario.topology,
    ), Stopwatch() as watch:
        report = simulator.run()
    get_registry().counter("repro_scenario_executions_total", kind="dynamic").inc()
    return ScenarioOutcome(
        scenario=scenario,
        result=None,
        runtime_seconds=watch.elapsed,
        blocking=report,
    )


def fetch_or_execute(
    scenario: Scenario, store: Optional["ResultStore"] = None
) -> Tuple["ScenarioResult", bool]:
    """Serve a scenario's summary from the store, executing only on a miss.

    Returns ``(result, hit)``: ``hit`` is True when the result came out of
    the store without running any optimizer backend.  With ``store=None``
    this degenerates to a plain execution.
    """
    if store is not None:
        cached = store.get(scenario.fingerprint())
        if cached is not None:
            return cached, True
    return execute_scenario(scenario, store=store).summary(), False


@dataclass
class ScenarioOutcome:
    """The full, in-memory outcome of one scenario run.

    Static runs carry an :class:`ExplorationResult`; dynamic-traffic runs
    carry a :class:`~repro.traffic.simulator.BlockingReport` in ``blocking``
    instead (and ``result`` is ``None``).
    """

    scenario: Scenario
    result: Optional[ExplorationResult]
    runtime_seconds: float
    verification: Optional[VerificationReport] = None
    blocking: Optional["BlockingReport"] = None
    _summary: Optional["ScenarioResult"] = field(
        default=None, repr=False, compare=False
    )

    def pareto_rows(self) -> List[Dict[str, float]]:
        """Pareto front as flat dictionaries (CSV-ready).

        When the run was verified, each row additionally carries the simulated
        makespan, its divergence from the analytical value and the conflict
        count of that solution's replay (the verifier walks the front in the
        same order as the summary rows).  Dynamic-traffic runs have no front:
        the list is empty.
        """
        if self.result is None:
            return []
        rows = self.result.summary_rows()
        if self.verification is not None:
            for row, verification in zip(rows, self.verification):
                row["simulated_kcycles"] = verification.simulated_kcycles
                row["makespan_divergence_kcycles"] = verification.divergence_kcycles
                row["sim_conflicts"] = verification.conflict_count
        return rows

    def summary(self) -> "ScenarioResult":
        """The picklable summary a :class:`Study` aggregates (computed once)."""
        if self._summary is None:
            self._summary = self._build_summary()
        return self._summary

    def _build_summary(self) -> "ScenarioResult":
        if self.blocking is not None:
            report = self.blocking
            return ScenarioResult(
                name=self.scenario.name,
                fingerprint=self.scenario.fingerprint(),
                optimizer=self.scenario.optimizer,
                workload=self.scenario.workload,
                mapping=self.scenario.mapping,
                topology=self.scenario.topology,
                wavelength_count=self.scenario.wavelength_count,
                objective_keys=self.scenario.objectives,
                valid_solution_count=0,
                pareto_size=0,
                best_time_kcycles=0.0,
                best_energy_fj=0.0,
                best_log10_ber=0.0,
                runtime_seconds=self.runtime_seconds,
                pareto_rows=(),
                scenario=self.scenario.to_dict(),
                evaluations=report.total_requests,
                blocking=report.to_dict(),
            )
        if self.result is None:
            raise ScenarioError(
                "a scenario outcome needs an exploration result or a blocking report"
            )
        best_time, best_energy, best_ber = self.result.best_objective_values()
        verification = self.verification
        return ScenarioResult(
            name=self.scenario.name,
            fingerprint=self.scenario.fingerprint(),
            optimizer=self.scenario.optimizer,
            workload=self.scenario.workload,
            mapping=self.scenario.mapping,
            topology=self.scenario.topology,
            wavelength_count=self.scenario.wavelength_count,
            objective_keys=self.scenario.objectives,
            valid_solution_count=self.result.valid_solution_count,
            pareto_size=self.result.pareto_size,
            best_time_kcycles=best_time,
            best_energy_fj=best_energy,
            best_log10_ber=best_ber,
            runtime_seconds=self.runtime_seconds,
            pareto_rows=tuple(self.pareto_rows()),
            scenario=self.scenario.to_dict(),
            evaluations=self.result.evaluation_count,
            memo_hits=self.result.memo_hit_count,
            evaluation_seconds=self.result.evaluation_seconds,
            selection_seconds=self.result.selection_seconds,
            operator_seconds=self.result.operator_seconds,
            verified=verification is not None,
            sim_conflicts=0 if verification is None else verification.conflict_count,
            sim_divergences=0 if verification is None else verification.divergence_count,
            sim_max_divergence_kcycles=(
                0.0 if verification is None else verification.max_divergence_kcycles
            ),
            verification_rows=(
                () if verification is None else tuple(verification.rows())
            ),
        )


@dataclass(frozen=True)
class ScenarioResult:
    """Serialisable summary of one scenario run.

    This is what crosses the process boundary in parallel studies, so it holds
    only plain values.  ``runtime_seconds`` is the one field that legitimately
    differs between two runs of the same scenario; :meth:`comparable_dict`
    excludes it for determinism checks.
    """

    name: str
    fingerprint: str
    optimizer: str
    workload: str
    mapping: str
    wavelength_count: int
    objective_keys: Tuple[str, ...]
    valid_solution_count: int
    pareto_size: int
    best_time_kcycles: float
    best_energy_fj: float
    best_log10_ber: float
    runtime_seconds: float
    pareto_rows: Tuple[Dict[str, float], ...]
    scenario: Dict[str, Any]
    #: Registry name of the topology the scenario ran on.
    topology: str = "ring"
    #: Distinct chromosomes the backend evaluated (0 when it kept no count).
    evaluations: int = 0
    #: Evaluations skipped by the GA's duplicate-aware memo.
    memo_hits: int = 0
    #: GA time spent evaluating objectives (0.0 for non-GA backends).
    evaluation_seconds: float = 0.0
    #: GA time spent in selection (sort, crowding, Pareto-front maintenance).
    selection_seconds: float = 0.0
    #: GA time spent in the genetic operators (tournament, crossover, mutation).
    operator_seconds: float = 0.0
    #: True when the Pareto front was replayed through the simulator.
    verified: bool = False
    #: Total wavelength conflicts observed across every replay.
    sim_conflicts: int = 0
    #: Solutions whose replay failed (conflict or makespan disagreement).
    sim_divergences: int = 0
    #: Largest simulated-vs-analytical makespan difference (kcc).
    sim_max_divergence_kcycles: float = 0.0
    #: Per-solution replay rows (allocation, both makespans, utilisations ...).
    verification_rows: Tuple[Dict[str, float], ...] = ()
    #: Serialised :class:`~repro.traffic.simulator.BlockingReport` of a
    #: dynamic-traffic run (None for static scenarios).
    blocking: Optional[Dict[str, Any]] = None

    @property
    def is_dynamic(self) -> bool:
        """True when this summarises a dynamic-traffic (blocking) run."""
        return self.blocking is not None

    def blocking_report(self) -> Optional["BlockingReport"]:
        """The dynamic run's :class:`BlockingReport`, or None for static runs."""
        if self.blocking is None:
            return None
        from ..traffic.simulator import BlockingReport as _BlockingReport

        return _BlockingReport.from_dict(self.blocking)

    @property
    def verification_passed(self) -> bool:
        """True when the run was verified and every replay passed."""
        return self.verified and self.sim_divergences == 0

    @property
    def evaluations_per_second(self) -> float:
        """Evaluation throughput of the run (the scaling metric studies track)."""
        if self.runtime_seconds <= 0.0:
            return 0.0
        return self.evaluations / self.runtime_seconds

    def summary_row(self) -> Dict[str, object]:
        """One flat row for tables and CSV export.

        Dynamic-traffic runs extend the row with their blocking columns;
        CSV export unions columns across rows, so mixed studies stay valid.
        """
        row: Dict[str, object] = {
            "name": self.name,
            "topology": self.topology,
            "optimizer": self.optimizer,
            "workload": self.workload,
            "mapping": self.mapping,
            "wavelength_count": self.wavelength_count,
            "valid_solution_count": self.valid_solution_count,
            "pareto_size": self.pareto_size,
            "best_time_kcycles": self.best_time_kcycles,
            "best_energy_fj": self.best_energy_fj,
            "best_log10_ber": self.best_log10_ber,
            "evaluations": self.evaluations,
            "memo_hits": self.memo_hits,
            "runtime_seconds": self.runtime_seconds,
            "evaluation_seconds": self.evaluation_seconds,
            "selection_seconds": self.selection_seconds,
            "operator_seconds": self.operator_seconds,
            "verified": self.verified,
            "sim_conflicts": self.sim_conflicts,
            "sim_divergences": self.sim_divergences,
        }
        if self.blocking is not None:
            row["blocking_probability"] = self.blocking["blocking_probability"]
            row["blocked"] = self.blocking["blocked"]
            row["offered"] = self.blocking["offered"]
            row["traffic_strategy"] = self.blocking["strategy"]
        return row

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible dictionary; inverse of :meth:`from_dict`."""
        payload = {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "optimizer": self.optimizer,
            "workload": self.workload,
            "mapping": self.mapping,
            "topology": self.topology,
            "wavelength_count": self.wavelength_count,
            "objective_keys": list(self.objective_keys),
            "valid_solution_count": self.valid_solution_count,
            "pareto_size": self.pareto_size,
            "best_time_kcycles": self.best_time_kcycles,
            "best_energy_fj": self.best_energy_fj,
            "best_log10_ber": self.best_log10_ber,
            "evaluations": self.evaluations,
            "memo_hits": self.memo_hits,
            "runtime_seconds": self.runtime_seconds,
            "evaluation_seconds": self.evaluation_seconds,
            "selection_seconds": self.selection_seconds,
            "operator_seconds": self.operator_seconds,
            "pareto_rows": [dict(row) for row in self.pareto_rows],
            "scenario": dict(self.scenario),
            "verified": self.verified,
            "sim_conflicts": self.sim_conflicts,
            "sim_divergences": self.sim_divergences,
            "sim_max_divergence_kcycles": self.sim_max_divergence_kcycles,
            "verification_rows": [dict(row) for row in self.verification_rows],
        }
        if self.blocking is not None:
            payload["blocking"] = dict(self.blocking)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScenarioResult":
        """Rebuild a summary from :meth:`to_dict` output."""
        return cls(
            name=payload["name"],
            fingerprint=payload["fingerprint"],
            optimizer=payload["optimizer"],
            workload=payload["workload"],
            mapping=payload["mapping"],
            topology=str(payload.get("topology", "ring")),
            wavelength_count=int(payload["wavelength_count"]),
            objective_keys=tuple(payload["objective_keys"]),
            valid_solution_count=int(payload["valid_solution_count"]),
            pareto_size=int(payload["pareto_size"]),
            best_time_kcycles=float(payload["best_time_kcycles"]),
            best_energy_fj=float(payload["best_energy_fj"]),
            best_log10_ber=float(payload["best_log10_ber"]),
            runtime_seconds=float(payload["runtime_seconds"]),
            pareto_rows=tuple(dict(row) for row in payload["pareto_rows"]),
            scenario=dict(payload["scenario"]),
            evaluations=int(payload.get("evaluations", 0)),
            memo_hits=int(payload.get("memo_hits", 0)),
            evaluation_seconds=float(payload.get("evaluation_seconds", 0.0)),
            selection_seconds=float(payload.get("selection_seconds", 0.0)),
            operator_seconds=float(payload.get("operator_seconds", 0.0)),
            verified=bool(payload.get("verified", False)),
            sim_conflicts=int(payload.get("sim_conflicts", 0)),
            sim_divergences=int(payload.get("sim_divergences", 0)),
            sim_max_divergence_kcycles=float(
                payload.get("sim_max_divergence_kcycles", 0.0)
            ),
            verification_rows=tuple(
                dict(row) for row in payload.get("verification_rows", [])
            ),
            blocking=(
                None
                if payload.get("blocking") is None
                else dict(payload["blocking"])
            ),
        )

    def comparable_dict(self) -> Dict[str, Any]:
        """The result minus its wall-clock timings (for determinism checks)."""
        payload = self.to_dict()
        payload.pop("runtime_seconds")
        payload.pop("evaluation_seconds")
        payload.pop("selection_seconds")
        payload.pop("operator_seconds")
        return payload


def _execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Process-pool worker: scenario dict in, result + registry snapshot out.

    The child ships its process-wide registry snapshot with the result so
    the parent study can aggregate telemetry across the pool; the snapshot
    rides outside the result document and never touches its schema.
    """
    scenario = Scenario.from_dict(payload)
    # Pool children are reused across payloads, so book each execution into
    # a fresh registry: the shipped snapshot is this payload's delta only.
    local = MetricsRegistry()
    previous = set_registry(local)
    try:
        result = execute_scenario(scenario).summary().to_dict()
    finally:
        set_registry(previous)
        previous.merge(local.snapshot())
    return {"result": result, "telemetry": local.snapshot()}


class Study:
    """A batch of scenarios executed together, serially or in parallel.

    Parameters
    ----------
    scenarios:
        The scenarios to run.  Duplicates (same fingerprint) are executed once
        and their result is shared.
    name:
        Label used in reports and serialised documents.
    store:
        Result store consulted before any scenario executes and written
        through after each execution.  Defaults to a fresh in-process
        :class:`~repro.store.sqlite.MemoryStore`; pass a
        :class:`~repro.store.sqlite.ResultStore` file to make the study
        resumable and warm-startable across processes.
    """

    def __init__(
        self,
        scenarios: Sequence[Scenario],
        name: str = "study",
        store: Optional["ResultStore"] = None,
    ) -> None:
        scenarios = list(scenarios)
        if not scenarios:
            raise ScenarioError("a study needs at least one scenario")
        for scenario in scenarios:
            if not isinstance(scenario, Scenario):
                raise ScenarioError(
                    f"studies are built from Scenario objects, got {type(scenario).__name__}"
                )
        self._scenarios = scenarios
        self._name = name
        if store is None:
            from ..store.sqlite import MemoryStore

            store = MemoryStore()
        self._store = store

    # ----------------------------------------------------------------- access
    @property
    def name(self) -> str:
        """The study label."""
        return self._name

    @property
    def scenarios(self) -> List[Scenario]:
        """The scenarios in execution order."""
        return list(self._scenarios)

    @property
    def store(self) -> "ResultStore":
        """The result store this study reads and writes."""
        return self._store

    def __len__(self) -> int:
        return len(self._scenarios)

    # ------------------------------------------------------------ serialisation
    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible dictionary; inverse of :meth:`from_dict`."""
        return {
            "schema": STUDY_SCHEMA,
            "name": self._name,
            "scenarios": [scenario.to_dict() for scenario in self._scenarios],
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "Study":
        """Build a study from a document (or a plain list of scenario dicts)."""
        if isinstance(payload, list):
            return cls([Scenario.from_dict(entry) for entry in payload])
        if not isinstance(payload, dict):
            raise ScenarioError("a study document must be a JSON object or array")
        schema = payload.get("schema", STUDY_SCHEMA)
        if schema != STUDY_SCHEMA:
            raise ScenarioError(
                f"unsupported study schema {schema!r} (expected {STUDY_SCHEMA!r})"
            )
        entries = payload.get("scenarios")
        if not isinstance(entries, list):
            raise ScenarioError("a study document needs a 'scenarios' array")
        return cls(
            [Scenario.from_dict(entry) for entry in entries],
            name=str(payload.get("name", "study")),
        )

    def save(self, path: str | Path) -> Path:
        """Write the study description to a JSON file and return its path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Study":
        """Read a study (or bare scenario list) from a JSON file."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise ScenarioError(f"cannot read study file {path}: {error}") from None
        return cls.from_dict(payload)

    # -------------------------------------------------------------- execution
    def run(
        self,
        parallel: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> "StudyResult":
        """Execute every scenario and return the aggregated results.

        Parameters
        ----------
        parallel:
            Number of worker processes.  ``None``, 0 or 1 run serially in this
            process; larger values use a :class:`ProcessPoolExecutor`.  Results
            are identical either way because each scenario is seeded by its own
            description, not by execution order.
        progress:
            Optional callback invoked live, as each scenario finishes, with
            ``(completed_count, total_count, result)``.  Scenarios served from
            the store (duplicates, earlier runs, warm starts) are reported as
            finished too, so the count always reaches the total.
        """
        fingerprints = [scenario.fingerprint() for scenario in self._scenarios]
        occurrences = Counter(fingerprints)
        total = len(fingerprints)
        completed = 0
        session: Dict[str, ScenarioResult] = {}

        def notify(fingerprint: str) -> None:
            nonlocal completed
            result = session[fingerprint]
            for _ in range(occurrences[fingerprint]):
                completed += 1
                if progress is not None:
                    progress(completed, total, result)

        pending: Dict[str, Scenario] = {}
        hits: List[str] = []
        with span("study.run", study=self._name, scenarios=total):
            for scenario, fingerprint in zip(self._scenarios, fingerprints):
                if fingerprint in session or fingerprint in pending:
                    continue
                cached = self._store.get(fingerprint)
                if cached is None:
                    pending[fingerprint] = scenario
                else:
                    session[fingerprint] = cached
                    hits.append(fingerprint)
            for fingerprint in dict.fromkeys(fingerprints):
                if fingerprint in session:
                    notify(fingerprint)

            workers = 0 if parallel is None else int(parallel)
            if workers > 1 and pending:
                self._run_parallel(
                    pending, min(workers, len(pending)), session, notify
                )
            else:
                for fingerprint, scenario in pending.items():
                    session[fingerprint] = execute_scenario(
                        scenario, store=self._store
                    ).summary()
                    notify(fingerprint)

            self._store.record_study(self._name, list(dict.fromkeys(fingerprints)))
        results = tuple(session[fingerprint] for fingerprint in fingerprints)
        return StudyResult(
            name=self._name,
            results=results,
            store_backend=self._store.backend_name,
            store_path=self._store.location,
            store_hits=len(hits),
            store_misses=len(pending),
            served_from_store=tuple(hits),
        )

    def _run_parallel(
        self,
        pending: Dict[str, Scenario],
        workers: int,
        session: Dict[str, "ScenarioResult"],
        notify: Callable[[str], None],
    ) -> None:
        payloads = {
            fingerprint: scenario.to_dict() for fingerprint, scenario in pending.items()
        }
        registry = get_registry()
        with ProcessPoolExecutor(max_workers=workers) as executor:
            futures = {
                executor.submit(_execute_payload, payload): fingerprint
                for fingerprint, payload in payloads.items()
            }
            outstanding = set(futures)
            while outstanding:
                done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                for future in done:
                    fingerprint = futures[future]
                    payload = future.result()
                    result = ScenarioResult.from_dict(payload["result"])
                    registry.merge(payload.get("telemetry") or {})
                    self._store.put(result)
                    session[fingerprint] = result
                    notify(fingerprint)


@dataclass(frozen=True)
class StudyResult:
    """Aggregated results of one study run, in scenario order."""

    name: str
    results: Tuple[ScenarioResult, ...]
    #: Registry-style name of the store backend the run used ("memory", "sqlite").
    store_backend: str = "memory"
    #: Filesystem location of the store, or ``None`` for in-process backends.
    store_path: Optional[str] = None
    #: Unique scenarios served straight from the store (no backend executed).
    store_hits: int = 0
    #: Unique scenarios that had to execute (and were written to the store).
    store_misses: int = 0
    #: Fingerprints of the scenarios served from the store.
    served_from_store: Tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator["ScenarioResult"]:
        return iter(self.results)

    @property
    def total_runtime_seconds(self) -> float:
        """Sum of the per-scenario runtimes (cached scenarios count once as run)."""
        return sum(result.runtime_seconds for result in self.results)

    def result_for(self, name: str) -> ScenarioResult:
        """The first result whose scenario carries ``name``."""
        for result in self.results:
            if result.name == name:
                return result
        raise ScenarioError(f"no scenario named {name!r} in study {self.name!r}")

    def rows(self) -> List[Dict[str, object]]:
        """One summary row per scenario (CSV/report-ready).

        ``store_hit`` flags scenarios whose result was served from the result
        store instead of executing an optimizer backend.
        """
        served = set(self.served_from_store)
        rows = []
        for result in self.results:
            row = result.summary_row()
            row["store_hit"] = result.fingerprint in served
            rows.append(row)
        return rows

    def pareto_rows(self) -> List[Dict[str, object]]:
        """Every Pareto solution of every scenario, tagged with its scenario name."""
        rows: List[Dict[str, object]] = []
        for result in self.results:
            for row in result.pareto_rows:
                tagged: Dict[str, object] = {"scenario": result.name}
                tagged.update(row)
                rows.append(tagged)
        return rows

    def verification_rows(self) -> List[Dict[str, object]]:
        """Every per-solution replay row, tagged with its scenario name."""
        rows: List[Dict[str, object]] = []
        for result in self.results:
            for row in result.verification_rows:
                tagged: Dict[str, object] = {"scenario": result.name}
                tagged.update(row)
                rows.append(tagged)
        return rows

    @property
    def verification_passed(self) -> bool:
        """True when every verified scenario replayed without divergence."""
        return all(
            result.verification_passed for result in self.results if result.verified
        )

    def to_csv(self, path: str | Path) -> Path:
        """Write the summary rows to a CSV file and return its path."""
        return write_csv(path, self.rows())

    def pareto_to_csv(self, path: str | Path) -> Path:
        """Write every Pareto solution to a CSV file and return its path."""
        return write_csv(path, self.pareto_rows())

    def verification_to_csv(self, path: str | Path) -> Path:
        """Write every per-solution replay row to a CSV file and return its path."""
        return write_csv(path, self.verification_rows())

    def report(self) -> str:
        """A human-readable summary table of the whole study."""
        header = (
            f"Study {self.name!r}: {len(self.results)} scenarios, "
            f"{self.total_runtime_seconds:.2f}s total runtime"
        )
        lines = [header, format_table(self.rows())]
        location = "" if self.store_path is None else f" at {self.store_path}"
        lines.append(
            f"Result store: {self.store_backend}{location} — "
            f"{self.store_hits} hit(s), {self.store_misses} miss(es)."
        )
        verified = [result for result in self.results if result.verified]
        if verified:
            checked = sum(len(result.verification_rows) for result in verified)
            failures = sum(result.sim_divergences for result in verified)
            verdict = (
                "all replays conflict-free and in agreement with the analytical schedule"
                if failures == 0
                else f"{failures} solution(s) DIVERGED from the analytical schedule"
            )
            lines.append(
                f"Simulation verification: {checked} solution(s) replayed across "
                f"{len(verified)} scenario(s); {verdict}."
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible dictionary of the full result set."""
        return {
            "name": self.name,
            "results": [result.to_dict() for result in self.results],
            "store": {
                "backend": self.store_backend,
                "path": self.store_path,
                "hits": self.store_hits,
                "misses": self.store_misses,
                "served_from_store": list(self.served_from_store),
            },
        }
