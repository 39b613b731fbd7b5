"""Declarative description of one exploration run.

A :class:`Scenario` captures *everything* needed to reproduce a single
design-space-exploration point — topology, architecture shape, wavelength
count, workload, mapping strategy, objectives, crosstalk scope, GA sizing and
the optimizer backend — as one serialisable value object.  Topologies,
workloads, mappings and optimizers are referenced by registry name (see
:mod:`repro.topology.registry` and :mod:`repro.scenarios.backends`), which
keeps the object a pure description:
``Scenario.from_dict(scenario.to_dict())`` round-trips exactly, and the JSON
form is what ``python -m repro run`` consumes.

:class:`ScenarioBuilder` offers a fluent way to assemble scenarios::

    scenario = (
        ScenarioBuilder()
        .named("pipeline-12wl")
        .grid(4, 4)
        .wavelengths(12)
        .topology("multi_ring", layers=2)
        .workload("pipeline", stage_count=6)
        .mapping("round_robin", stride=2)
        .objectives("time", "energy")
        .optimizer("nsga2")
        .genetic(population_size=64, generations=40)
        .seed(7)
        .build()
    )
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

from ..allocation.objectives import CrosstalkScope, ObjectiveVector
from ..config import (
    EnergyParameters,
    GeneticParameters,
    OnocConfiguration,
    PhotonicParameters,
    TimingParameters,
    is_count,
    is_real,
)
from ..errors import ConfigurationError, ScenarioError

__all__ = [
    "SCENARIO_SCHEMA",
    "Scenario",
    "ScenarioBuilder",
    "TrafficSettings",
    "VerificationSettings",
]

#: Identifier embedded in every serialised scenario document.
SCENARIO_SCHEMA = "repro.scenario/1"

_CROSSTALK_SCOPES = tuple(scope.value for scope in CrosstalkScope)

_TOP_LEVEL_KEYS = {
    "schema",
    "name",
    "rows",
    "columns",
    "wavelength_count",
    "topology",
    "workload",
    "mapping",
    "objectives",
    "crosstalk_scope",
    "genetic",
    "optimizer",
    "overrides",
    "seed",
    "verification",
    "traffic",
}

#: Parameter groups that :attr:`Scenario.overrides` may tune.
_OVERRIDE_GROUPS = {
    "photonic": PhotonicParameters,
    "timing": TimingParameters,
    "energy": EnergyParameters,
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


@dataclass(frozen=True)
class VerificationSettings:
    """Simulation-in-the-loop verification knobs of one scenario.

    When ``simulate`` is on, every solution the optimizer reports is replayed
    through the discrete-event
    :class:`~repro.simulation.verify.SimulationVerifier` after the search:
    the replay must be conflict-free and its makespan must agree with the
    analytical execution time within ``tolerance`` (relative).  ``parallel``
    worker processes fan out the replays of large fronts (0 = serial).
    """

    simulate: bool = False
    tolerance: float = 1.0e-9
    parallel: int = 0

    def __post_init__(self) -> None:
        _require(
            isinstance(self.simulate, bool),
            "verification 'simulate' must be a boolean",
        )
        # A boolean or an infinite tolerance would let a diverging replay pass.
        _require(
            is_real(self.tolerance) and 0.0 <= self.tolerance < math.inf,
            f"verification 'tolerance' must be a finite non-negative number, "
            f"got {self.tolerance!r}",
        )
        _require(
            is_count(self.parallel) and self.parallel >= 0,
            f"verification 'parallel' must be a non-negative integer, got {self.parallel!r}",
        )
        object.__setattr__(self, "tolerance", float(self.tolerance))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible dictionary; inverse of :meth:`from_dict`."""
        return {
            "simulate": self.simulate,
            "tolerance": self.tolerance,
            "parallel": self.parallel,
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "VerificationSettings":
        """Rebuild settings from :meth:`to_dict` output (or hand-written JSON)."""
        if not isinstance(payload, dict):
            raise ScenarioError("scenario 'verification' must be an object")
        defaults = cls()
        unknown = set(payload) - {"simulate", "tolerance", "parallel"}
        _require(not unknown, f"unknown verification keys: {sorted(unknown)}")
        # Every value goes through unconverted: bool("false") is True and
        # int(2.5) is 2, so coercion would silently run a typo —
        # __post_init__'s type checks refuse it instead.
        return cls(
            simulate=payload.get("simulate", defaults.simulate),
            tolerance=payload.get("tolerance", defaults.tolerance),
            parallel=payload.get("parallel", defaults.parallel),
        )


@dataclass(frozen=True)
class TrafficSettings:
    """Dynamic-traffic block of one scenario.

    Its presence switches a scenario from static task-graph allocation to the
    dynamic RWA workload family: ``model`` names a generator in
    :data:`~repro.traffic.models.TRAFFIC_MODELS` (its RNG derives from
    :attr:`Scenario.effective_seed` unless ``model_options`` pin a seed),
    ``strategy`` names an online allocator in
    :data:`~repro.traffic.allocators.ONLINE_ALLOCATORS`, and
    ``warmup_fraction`` excludes the leading fraction of requests from the
    blocking statistics.  The block is part of the fingerprint, so two
    dynamic scenarios cache-collide only when every traffic knob matches.
    """

    model: str = "poisson"
    model_options: Dict[str, Any] = field(default_factory=dict)
    strategy: str = "first_fit"
    strategy_options: Dict[str, Any] = field(default_factory=dict)
    warmup_fraction: float = 0.1

    def __post_init__(self) -> None:
        _require(
            isinstance(self.model, str) and bool(self.model),
            "traffic 'model' must be a non-empty registry name",
        )
        _require(
            isinstance(self.strategy, str) and bool(self.strategy),
            "traffic 'strategy' must be a non-empty registry name",
        )
        for attribute in ("model_options", "strategy_options"):
            value = getattr(self, attribute)
            _require(isinstance(value, dict), f"traffic {attribute!r} must be an object")
            object.__setattr__(self, attribute, dict(value))
        _require(
            is_real(self.warmup_fraction) and 0.0 <= self.warmup_fraction < 1.0,
            f"traffic 'warmup_fraction' must be a number in [0, 1), "
            f"got {self.warmup_fraction!r}",
        )
        object.__setattr__(self, "warmup_fraction", float(self.warmup_fraction))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible dictionary; inverse of :meth:`from_dict`."""
        return {
            "model": self.model,
            "model_options": dict(self.model_options),
            "strategy": self.strategy,
            "strategy_options": dict(self.strategy_options),
            "warmup_fraction": self.warmup_fraction,
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "TrafficSettings":
        """Rebuild settings from :meth:`to_dict` output (or hand-written JSON)."""
        if not isinstance(payload, dict):
            raise ScenarioError("scenario 'traffic' must be an object")
        defaults = cls()
        unknown = set(payload) - {
            "model",
            "model_options",
            "strategy",
            "strategy_options",
            "warmup_fraction",
        }
        _require(not unknown, f"unknown traffic keys: {sorted(unknown)}")
        return cls(
            model=payload.get("model", defaults.model),
            model_options=payload.get("model_options", {}),
            strategy=payload.get("strategy", defaults.strategy),
            strategy_options=payload.get("strategy_options", {}),
            warmup_fraction=payload.get("warmup_fraction", defaults.warmup_fraction),
        )


#: Optimizer name marking a scenario as a dynamic-traffic run.
DYNAMIC_RWA_OPTIMIZER = "dynamic_rwa"


@dataclass(frozen=True)
class Scenario:
    """One complete, reproducible exploration run, described declaratively."""

    name: str = "scenario"
    rows: int = 4
    columns: int = 4
    wavelength_count: int = 8
    topology: str = "ring"
    topology_options: Dict[str, Any] = field(default_factory=dict)
    workload: str = "paper"
    workload_options: Dict[str, Any] = field(default_factory=dict)
    mapping: str = "paper"
    mapping_options: Dict[str, Any] = field(default_factory=dict)
    objectives: Tuple[str, ...] = ObjectiveVector.KEYS
    crosstalk_scope: str = CrosstalkScope.TEMPORAL.value
    genetic: GeneticParameters = field(default_factory=GeneticParameters)
    optimizer: str = "nsga2"
    optimizer_options: Dict[str, Any] = field(default_factory=dict)
    overrides: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    seed: Optional[int] = None
    verification: VerificationSettings = field(default_factory=VerificationSettings)
    traffic: Optional[TrafficSettings] = None

    def __post_init__(self) -> None:
        if isinstance(self.verification, dict):
            object.__setattr__(
                self, "verification", VerificationSettings.from_dict(self.verification)
            )
        _require(
            isinstance(self.verification, VerificationSettings),
            "scenario verification must be a VerificationSettings object",
        )
        if isinstance(self.traffic, dict):
            object.__setattr__(self, "traffic", TrafficSettings.from_dict(self.traffic))
        _require(
            self.traffic is None or isinstance(self.traffic, TrafficSettings),
            "scenario traffic must be a TrafficSettings object (or absent)",
        )
        # A traffic block and the dynamic_rwa optimizer imply each other: the
        # optimizer name is what reports/CSVs group by, the block is what the
        # dynamic path executes, and allowing one without the other would let
        # two scenarios with different behaviour share a fingerprint axis.
        if self.traffic is not None:
            _require(
                self.optimizer == DYNAMIC_RWA_OPTIMIZER,
                f"a scenario with a traffic block must use the "
                f"{DYNAMIC_RWA_OPTIMIZER!r} optimizer, not {self.optimizer!r}",
            )
        elif self.optimizer == DYNAMIC_RWA_OPTIMIZER:
            raise ScenarioError(
                f"the {DYNAMIC_RWA_OPTIMIZER!r} optimizer needs a 'traffic' block "
                "(ScenarioBuilder.traffic(...))"
            )
        for attribute in (
            "topology_options",
            "workload_options",
            "mapping_options",
            "optimizer_options",
        ):
            value = getattr(self, attribute)
            _require(
                isinstance(value, dict), f"scenario {attribute} must be an object"
            )
            object.__setattr__(self, attribute, dict(value))
        _require(
            isinstance(self.overrides, dict),
            "scenario overrides must be an object of parameter groups",
        )
        for group, values in self.overrides.items():
            _require(
                group in _OVERRIDE_GROUPS,
                f"unknown override group {group!r}; "
                f"choose from {sorted(_OVERRIDE_GROUPS)}",
            )
            _require(
                isinstance(values, dict),
                f"override group {group!r} must be an object of parameter values",
            )
        object.__setattr__(
            self,
            "overrides",
            {group: dict(values) for group, values in self.overrides.items()},
        )
        object.__setattr__(self, "objectives", tuple(self.objectives))
        _require(bool(self.name), "a scenario needs a non-empty name")
        for key in ("rows", "columns", "wavelength_count", "seed"):
            value = getattr(self, key)
            _require(
                is_count(value) or (key == "seed" and value is None),
                f"scenario {key!r} must be an integer, got {value!r}",
            )
        _require(self.rows >= 1 and self.columns >= 1, "the grid needs at least one core")
        _require(self.wavelength_count >= 1, "the waveguide needs at least one wavelength")
        for key in ("topology", "workload", "mapping", "optimizer"):
            _require(bool(getattr(self, key)), f"the scenario {key} name must be non-empty")
        _require(bool(self.objectives), "a scenario needs at least one objective")
        for objective in self.objectives:
            _require(
                objective in ObjectiveVector.KEYS,
                f"unknown objective {objective!r}; choose from {ObjectiveVector.KEYS}",
            )
        _require(
            self.crosstalk_scope in _CROSSTALK_SCOPES,
            f"unknown crosstalk scope {self.crosstalk_scope!r}; "
            f"choose from {_CROSSTALK_SCOPES}",
        )

    # ------------------------------------------------------------- derived views
    @property
    def effective_seed(self) -> int:
        """The seed actually used: the explicit one, else the GA seed."""
        return self.genetic.seed if self.seed is None else self.seed

    def genetic_parameters(self) -> GeneticParameters:
        """GA parameters with the scenario-level seed folded in."""
        return replace(self.genetic, seed=self.effective_seed)

    def scope(self) -> CrosstalkScope:
        """The crosstalk scope as its enum value."""
        return CrosstalkScope(self.crosstalk_scope)

    def onoc_configuration(self) -> OnocConfiguration:
        """The full configuration this scenario describes.

        Photonic, timing and energy parameters start from the library defaults
        (the paper's Table I values) and apply the scenario's ``overrides``;
        the GA group comes from :meth:`genetic_parameters`.
        """
        groups: Dict[str, Any] = {}
        for group, parameter_cls in _OVERRIDE_GROUPS.items():
            values = self.overrides.get(group, {})
            try:
                groups[group] = parameter_cls(**values)
            except TypeError as error:
                raise ScenarioError(
                    f"invalid {group!r} override: {error}"
                ) from None
        return OnocConfiguration(genetic=self.genetic_parameters(), **groups)

    def fingerprint(self) -> str:
        """Stable hex digest of the full scenario description.

        Two scenarios with the same fingerprint are guaranteed to describe the
        same run; :class:`~repro.scenarios.study.Study` uses it as its cache key
        and for deterministic per-scenario bookkeeping.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    # ------------------------------------------------------------ serialisation
    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible dictionary; inverse of :meth:`from_dict`.

        The ``verification`` and ``topology`` blocks are only emitted when
        they differ from the defaults, so documents written (and fingerprints
        computed) before those stages existed stay byte-identical.
        """
        payload = {
            "schema": SCENARIO_SCHEMA,
            "name": self.name,
            "rows": self.rows,
            "columns": self.columns,
            "wavelength_count": self.wavelength_count,
            "workload": {"name": self.workload, "options": dict(self.workload_options)},
            "mapping": {"name": self.mapping, "options": dict(self.mapping_options)},
            "objectives": list(self.objectives),
            "crosstalk_scope": self.crosstalk_scope,
            "genetic": self.genetic.to_dict(),
            "optimizer": {"name": self.optimizer, "options": dict(self.optimizer_options)},
            "overrides": {
                group: dict(values) for group, values in self.overrides.items()
            },
            "seed": self.seed,
        }
        if self.topology != "ring" or self.topology_options:
            payload["topology"] = {
                "name": self.topology,
                "options": dict(self.topology_options),
            }
        if self.verification != VerificationSettings():
            payload["verification"] = self.verification.to_dict()
        if self.traffic is not None:
            payload["traffic"] = self.traffic.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output (or hand-written JSON)."""
        if not isinstance(payload, dict):
            raise ScenarioError("a scenario document must be a JSON object")
        unknown = set(payload) - _TOP_LEVEL_KEYS
        _require(not unknown, f"unknown scenario keys: {sorted(unknown)}")
        schema = payload.get("schema", SCENARIO_SCHEMA)
        _require(
            schema == SCENARIO_SCHEMA,
            f"unsupported scenario schema {schema!r} (expected {SCENARIO_SCHEMA!r})",
        )
        topology, topology_options = cls._named_section(payload.get("topology", "ring"))
        workload, workload_options = cls._named_section(payload.get("workload", "paper"))
        mapping, mapping_options = cls._named_section(payload.get("mapping", "paper"))
        optimizer, optimizer_options = cls._named_section(payload.get("optimizer", "nsga2"))
        genetic_payload = payload.get("genetic", {})
        if not isinstance(genetic_payload, dict):
            raise ScenarioError("scenario 'genetic' must be an object of GA parameters")
        try:
            genetic = GeneticParameters(**genetic_payload)
        except (TypeError, ConfigurationError) as error:
            raise ScenarioError(f"invalid genetic parameters: {error}") from None
        objectives = payload.get("objectives", ObjectiveVector.KEYS)
        if isinstance(objectives, str) or not isinstance(objectives, (list, tuple)):
            raise ScenarioError("scenario 'objectives' must be an array of objective names")
        verification_payload = payload.get("verification")
        verification = (
            VerificationSettings()
            if verification_payload is None
            else VerificationSettings.from_dict(verification_payload)
        )
        traffic_payload = payload.get("traffic")
        traffic = (
            None if traffic_payload is None else TrafficSettings.from_dict(traffic_payload)
        )
        return cls(
            name=str(payload.get("name", "scenario")),
            rows=payload.get("rows", 4),
            columns=payload.get("columns", 4),
            wavelength_count=payload.get("wavelength_count", 8),
            topology=topology,
            topology_options=topology_options,
            workload=workload,
            workload_options=workload_options,
            mapping=mapping,
            mapping_options=mapping_options,
            objectives=tuple(objectives),
            crosstalk_scope=str(
                payload.get("crosstalk_scope", CrosstalkScope.TEMPORAL.value)
            ),
            genetic=genetic,
            optimizer=optimizer,
            optimizer_options=optimizer_options,
            overrides=payload.get("overrides", {}),
            seed=payload.get("seed"),
            verification=verification,
            traffic=traffic,
        )

    @staticmethod
    def _named_section(section: Any) -> Tuple[str, Dict[str, Any]]:
        """Parse a ``"name"`` or ``{"name": ..., "options": {...}}`` section."""
        if isinstance(section, str):
            return section, {}
        if isinstance(section, dict):
            unknown = set(section) - {"name", "options"}
            _require(not unknown, f"unknown section keys: {sorted(unknown)}")
            name = section.get("name")
            _require(isinstance(name, str) and bool(name), "section needs a 'name' string")
            options = section.get("options", {})
            _require(isinstance(options, dict), "section 'options' must be an object")
            return name, dict(options)
        raise ScenarioError(
            f"expected a name or a {{'name', 'options'}} object, got {type(section).__name__}"
        )

    def to_json(self, indent: int = 2) -> str:
        """The scenario as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse a scenario from JSON text."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ScenarioError(f"invalid scenario JSON: {error}") from None
        return cls.from_dict(payload)

    def save(self, path: str | Path) -> Path:
        """Write the scenario to a JSON file and return its path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Scenario":
        """Read a scenario from a JSON file."""
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as error:
            raise ScenarioError(f"cannot read scenario file {path}: {error}") from None
        return cls.from_json(text)

    # ------------------------------------------------------------------ builder
    @classmethod
    def builder(cls) -> "ScenarioBuilder":
        """A fresh fluent builder."""
        return ScenarioBuilder()

    def derive(self, **changes: Any) -> "Scenario":
        """A copy with some fields replaced (``dataclasses.replace`` wrapper)."""
        return replace(self, **changes)


class ScenarioBuilder:
    """Fluent, chainable construction of :class:`Scenario` objects."""

    def __init__(self) -> None:
        self._fields: Dict[str, Any] = {}
        self._genetic: Dict[str, Any] = {}

    def named(self, name: str) -> "ScenarioBuilder":
        """Set the scenario name."""
        self._fields["name"] = name
        return self

    def grid(self, rows: int, columns: int) -> "ScenarioBuilder":
        """Set the electrical-layer grid shape."""
        self._fields["rows"] = rows
        self._fields["columns"] = columns
        return self

    def wavelengths(self, count: int) -> "ScenarioBuilder":
        """Set the number of WDM wavelengths."""
        self._fields["wavelength_count"] = count
        return self

    def topology(self, name: str, **options: Any) -> "ScenarioBuilder":
        """Select the ONoC topology by registry name (``ring``, ``multi_ring`` ...)."""
        self._fields["topology"] = name
        self._fields["topology_options"] = options
        return self

    def workload(self, name: str, **options: Any) -> "ScenarioBuilder":
        """Select the workload generator by registry name."""
        self._fields["workload"] = name
        self._fields["workload_options"] = options
        return self

    def mapping(self, name: str, **options: Any) -> "ScenarioBuilder":
        """Select the mapping strategy by registry name."""
        self._fields["mapping"] = name
        self._fields["mapping_options"] = options
        return self

    def objectives(self, *keys: str) -> "ScenarioBuilder":
        """Select the objectives to minimise."""
        self._fields["objectives"] = tuple(keys)
        return self

    def crosstalk(self, scope: str | CrosstalkScope) -> "ScenarioBuilder":
        """Select the crosstalk aggressor scope."""
        value = scope.value if isinstance(scope, CrosstalkScope) else scope
        self._fields["crosstalk_scope"] = value
        return self

    def genetic(self, **parameters: Any) -> "ScenarioBuilder":
        """Override individual GA parameters (population_size, generations ...)."""
        self._genetic.update(parameters)
        return self

    def optimizer(self, name: str, **options: Any) -> "ScenarioBuilder":
        """Select the optimizer backend by registry name."""
        self._fields["optimizer"] = name
        self._fields["optimizer_options"] = options
        return self

    def tune(self, group: str, **values: Any) -> "ScenarioBuilder":
        """Override photonic/timing/energy parameters (e.g. ``tune("photonic", quality_factor=5000)``)."""
        overrides = self._fields.setdefault("overrides", {})
        overrides.setdefault(group, {}).update(values)
        return self

    def seed(self, value: int) -> "ScenarioBuilder":
        """Set the scenario-level seed (overrides the GA seed)."""
        self._fields["seed"] = value
        return self

    def verify(
        self,
        simulate: bool = True,
        tolerance: float = VerificationSettings.tolerance,
        parallel: int = VerificationSettings.parallel,
    ) -> "ScenarioBuilder":
        """Enable simulation-in-the-loop verification of the optimizer output."""
        self._fields["verification"] = VerificationSettings(
            simulate=simulate, tolerance=tolerance, parallel=parallel
        )
        return self

    def traffic(
        self,
        model: str = "poisson",
        strategy: str = "first_fit",
        warmup_fraction: float = TrafficSettings.warmup_fraction,
        strategy_options: Optional[Dict[str, Any]] = None,
        **model_options: Any,
    ) -> "ScenarioBuilder":
        """Make this a dynamic-traffic scenario (selects the ``dynamic_rwa`` optimizer).

        Keyword arguments beyond the named ones flow into the traffic model::

            ScenarioBuilder().traffic(
                model="poisson", strategy="least_used",
                offered_load_erlangs=16.0, request_count=2000,
            )
        """
        self._fields["traffic"] = TrafficSettings(
            model=model,
            model_options=dict(model_options),
            strategy=strategy,
            strategy_options=dict(strategy_options or {}),
            warmup_fraction=warmup_fraction,
        )
        self._fields["optimizer"] = DYNAMIC_RWA_OPTIMIZER
        self._fields.setdefault("optimizer_options", {})
        return self

    def build(self) -> Scenario:
        """Construct the (validated) scenario."""
        fields = dict(self._fields)
        if self._genetic:
            try:
                fields["genetic"] = replace(GeneticParameters(), **self._genetic)
            except TypeError as error:
                raise ScenarioError(f"invalid genetic parameters: {error}") from None
        return Scenario(**fields)
