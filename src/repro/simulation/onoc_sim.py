"""Event-driven simulator of a mapped application on the ring ONoC.

The simulator executes the task graph the way the paper's time model assumes it
executes (Section III-C):

* a task starts as soon as every one of its input transfers has completed,
* a transfer starts as soon as its producing task completes,
* a transfer using ``n`` wavelengths lasts ``V / (n * B)`` cycles,
* during a transfer, the reserved wavelengths are occupied on every waveguide
  segment of its path and the destination ONI keeps the corresponding receiver
  rings ON.

Because it tracks segment/wavelength occupancy explicitly, the simulator also
*detects* wavelength conflicts at runtime: if two simultaneously active
transfers reserve the same wavelength on a common directed segment, the run
records a conflict.  A valid allocation (per the evaluator's rules) must
complete with zero conflicts and a makespan identical to the analytical
schedule — both properties are asserted by the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..application.communication import MappedCommunication, build_communications
from ..application.mapping import Mapping
from ..application.task_graph import TaskGraph
from ..config import OnocConfiguration
from ..errors import SimulationError
from ..topology.base import OnocTopology
from .engine import PRIORITY_ACQUIRE, PRIORITY_RELEASE, DiscreteEventEngine

__all__ = [
    "TransferRecord",
    "ConflictRecord",
    "SimulationStatistics",
    "SimulationReport",
    "OnocSimulator",
]


@dataclass(frozen=True)
class TransferRecord:
    """Timing of one communication observed during simulation."""

    edge_index: int
    source_core: int
    destination_core: int
    channels: Tuple[int, ...]
    start_cycle: float
    end_cycle: float
    volume_bits: float

    @property
    def duration_cycles(self) -> float:
        """Observed transfer duration."""
        return self.end_cycle - self.start_cycle


@dataclass(frozen=True)
class ConflictRecord:
    """Two transfers caught using the same wavelength on the same segment."""

    first_edge: int
    second_edge: int
    segment: Tuple[int, int]
    channel: int
    time_cycle: float


@dataclass
class SimulationStatistics:
    """Aggregated counters produced by one simulation run.

    A utilisation is a resource's busy cycles over the makespan, reported
    raw: above 1.0 means overlapping busy intervals (one wavelength carrying
    several transfers on disjoint segments), which clamping would hide.
    """

    makespan_cycles: float = 0.0
    transfers_completed: int = 0
    tasks_completed: int = 0
    total_bits_transferred: float = 0.0
    wavelength_cycles_reserved: float = 0.0
    conflicts_detected: int = 0
    core_utilisation: Dict[int, float] = field(default_factory=dict)
    wavelength_utilisation: Dict[int, float] = field(default_factory=dict)

    @property
    def average_core_utilisation(self) -> float:
        """Mean utilisation over the cores that executed at least one task."""
        if not self.core_utilisation:
            return 0.0
        return sum(self.core_utilisation.values()) / len(self.core_utilisation)

    @property
    def average_wavelength_utilisation(self) -> float:
        """Mean utilisation over the wavelengths that carried at least one transfer."""
        if not self.wavelength_utilisation:
            return 0.0
        return sum(self.wavelength_utilisation.values()) / len(self.wavelength_utilisation)

    @property
    def effective_bandwidth_bits_per_cycle(self) -> float:
        """Bits delivered per clock cycle over the whole execution."""
        if self.makespan_cycles <= 0.0:
            return 0.0
        return self.total_bits_transferred / self.makespan_cycles


@dataclass
class SimulationReport:
    """Everything observed during one simulation run."""

    makespan_cycles: float
    task_completion_cycles: Dict[str, float]
    transfers: List[TransferRecord]
    conflicts: List[ConflictRecord]
    statistics: SimulationStatistics

    @property
    def makespan_kilocycles(self) -> float:
        """Makespan in the paper's kilo-clock-cycle unit."""
        return self.makespan_cycles / 1000.0

    @property
    def is_conflict_free(self) -> bool:
        """True when no wavelength conflict was observed."""
        return not self.conflicts


class OnocSimulator:
    """Discrete-event execution of a task graph on the ring ONoC.

    Parameters
    ----------
    architecture:
        The ring ONoC (provides paths and the wavelength grid).
    task_graph:
        The application.
    mapping:
        One-to-one task-to-core placement.
    configuration:
        Timing parameters; defaults to the architecture's configuration.
    """

    def __init__(
        self,
        architecture: OnocTopology,
        task_graph: TaskGraph,
        mapping: Mapping,
        configuration: Optional[OnocConfiguration] = None,
    ) -> None:
        self._architecture = architecture
        self._task_graph = task_graph
        self._mapping = mapping
        self._configuration = configuration or architecture.configuration
        self._communications = build_communications(task_graph, mapping, architecture)

    @property
    def communications(self) -> List[MappedCommunication]:
        """The mapped communications, in chromosome order."""
        return list(self._communications)

    # --------------------------------------------------------------------- run
    def run(self, allocation: Sequence[Sequence[int]]) -> SimulationReport:
        """Simulate the application with the given per-communication channel sets.

        ``allocation[k]`` lists the wavelength channels reserved for edge ``ck``.
        """
        graph = self._task_graph
        if len(allocation) != graph.communication_count:
            raise SimulationError(
                f"expected {graph.communication_count} channel sets, got {len(allocation)}"
            )
        channel_sets = [tuple(sorted(set(channels))) for channels in allocation]
        for index, channels in enumerate(channel_sets):
            if not channels:
                raise SimulationError(f"communication c{index} has no reserved wavelength")
            for channel in channels:
                if not 0 <= channel < self._architecture.wavelength_count:
                    raise SimulationError(
                        f"communication c{index} reserves channel {channel}, outside the "
                        f"{self._architecture.wavelength_count}-wavelength grid"
                    )

        engine = DiscreteEventEngine()
        data_rate = self._configuration.timing.data_rate_bits_per_cycle

        pending_inputs: Dict[str, int] = {
            name: len(graph.predecessors(name)) for name in graph.task_names()
        }
        task_completion: Dict[str, float] = {}
        transfers: List[TransferRecord] = []
        conflicts: List[ConflictRecord] = []
        # Occupancy of (segment, channel) -> set of active edge indices.
        occupancy: Dict[Tuple[Tuple[int, int], int], Set[int]] = {}
        # Busy cycles per core and per wavelength, in first-use order.
        core_busy: Dict[int, float] = {}
        wavelength_busy: Dict[int, float] = {}

        def start_task(name: str) -> None:
            task = graph.task(name)
            start = engine.now
            core = self._mapping.core_of(name)

            def finish_task() -> None:
                task_completion[name] = engine.now
                core_busy[core] = core_busy.get(core, 0.0) + (engine.now - start)
                for successor in graph.successors(name):
                    edge = graph.communication_between(name, successor)
                    start_transfer(edge.index, successor)

            # PRIORITY_ACQUIRE: at equal timestamps, transfer completions
            # (PRIORITY_RELEASE) must release their wavelengths before a
            # finishing task launches new transfers, otherwise back-to-back
            # reuse of a wavelength would be reported as a conflict.
            engine.schedule_after(task.execution_cycles, finish_task, PRIORITY_ACQUIRE)

        def start_transfer(edge_index: int, destination_task: str) -> None:
            communication = self._communications[edge_index]
            channels = channel_sets[edge_index]
            duration = communication.volume_bits / (len(channels) * data_rate)
            start = engine.now
            segments = communication.segment_keys()

            # Reserve the wavelengths and detect conflicts with active transfers.
            for segment in segments:
                for channel in channels:
                    key = (segment, channel)
                    holders = occupancy.setdefault(key, set())
                    for other in holders:
                        conflicts.append(
                            ConflictRecord(
                                first_edge=other,
                                second_edge=edge_index,
                                segment=segment,
                                channel=channel,
                                time_cycle=start,
                            )
                        )
                    holders.add(edge_index)

            def finish_transfer() -> None:
                for segment in segments:
                    for channel in channels:
                        occupancy[(segment, channel)].discard(edge_index)
                busy = engine.now - start
                for channel in channels:
                    wavelength_busy[channel] = wavelength_busy.get(channel, 0.0) + busy
                transfers.append(
                    TransferRecord(
                        edge_index=edge_index,
                        source_core=communication.source_core,
                        destination_core=communication.destination_core,
                        channels=channels,
                        start_cycle=start,
                        end_cycle=engine.now,
                        volume_bits=communication.volume_bits,
                    )
                )
                pending_inputs[destination_task] -= 1
                if pending_inputs[destination_task] == 0:
                    start_task(destination_task)

            engine.schedule_after(duration, finish_transfer, PRIORITY_RELEASE)

        for name in graph.entry_tasks():
            start_task(name)

        makespan = engine.run()

        unfinished = [name for name in graph.task_names() if name not in task_completion]
        if unfinished:
            raise SimulationError(
                f"simulation ended with unfinished tasks: {', '.join(unfinished)}"
            )

        def utilisation(busy: Dict[int, float]) -> Dict[int, float]:
            return {
                resource: 0.0 if makespan <= 0.0 else cycles / makespan
                for resource, cycles in busy.items()
            }

        statistics = SimulationStatistics(
            makespan_cycles=makespan,
            transfers_completed=len(transfers),
            tasks_completed=len(task_completion),
            total_bits_transferred=sum(record.volume_bits for record in transfers),
            wavelength_cycles_reserved=sum(
                record.duration_cycles * len(record.channels) for record in transfers
            ),
            conflicts_detected=len(conflicts),
            core_utilisation=utilisation(core_busy),
            wavelength_utilisation=utilisation(wavelength_busy),
        )
        transfers.sort(key=lambda record: record.edge_index)
        return SimulationReport(
            makespan_cycles=makespan,
            task_completion_cycles=task_completion,
            transfers=transfers,
            conflicts=conflicts,
            statistics=statistics,
        )
