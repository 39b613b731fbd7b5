"""Task graph model (Definition 1 of the paper).

A task graph ``TG = G(T, D)`` is a directed acyclic graph whose vertices are
computation tasks (annotated with an execution time in clock cycles) and whose
edges are communications (annotated with a volume in bits).  The class below
keeps tasks, successors and predecessors in insertion-ordered dicts, with
validation, convenient accessors and the edge ordering used by the chromosome
encoding (edges are numbered ``c0`` ... ``c{Nl-1}`` in insertion order, as in
Fig. 4/5 of the paper).  Every order it reports is deterministic: neighbour
lists follow edge insertion, and :meth:`TaskGraph.topological_order` is Kahn's
algorithm taken generation by generation (entry tasks in insertion order, then
children in edge-insertion order) — the list scheduler and the simulator
break their ties in these orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from ..errors import TaskGraphError

__all__ = ["Task", "CommunicationEdge", "TaskGraph"]


@dataclass(frozen=True)
class Task:
    """A computation task.

    Parameters
    ----------
    name:
        Unique task identifier (e.g. ``"T0"``).
    execution_cycles:
        Processing time of the task on any IP core, in clock cycles (the paper
        assumes homogeneous cores, Section III-C).
    """

    name: str
    execution_cycles: float

    def __post_init__(self) -> None:
        if not self.name:
            raise TaskGraphError("a task needs a non-empty name")
        if isinstance(self.execution_cycles, bool):
            raise TaskGraphError(
                f"task {self.name}: execution time must be a number, "
                f"got {self.execution_cycles!r}"
            )
        if not 0.0 <= self.execution_cycles < math.inf:
            raise TaskGraphError(
                f"task {self.name}: execution time must be finite and non-negative"
            )


@dataclass(frozen=True)
class CommunicationEdge:
    """A directed communication between two tasks.

    Parameters
    ----------
    index:
        Position of the edge in the chromosome (``c{index}`` in the paper).
    source, destination:
        Names of the producing and consuming tasks.
    volume_bits:
        Communication volume ``V(d_{i,j})`` in bits.
    """

    index: int
    source: str
    destination: str
    volume_bits: float

    def __post_init__(self) -> None:
        if self.index < 0:
            raise TaskGraphError("edge index must be non-negative")
        if self.source == self.destination:
            raise TaskGraphError(f"edge c{self.index}: a task cannot send data to itself")
        if isinstance(self.volume_bits, bool):
            raise TaskGraphError(
                f"edge c{self.index}: volume must be a number, got {self.volume_bits!r}"
            )
        if not 0.0 < self.volume_bits < math.inf:
            raise TaskGraphError(f"edge c{self.index}: volume must be finite and positive")

    @property
    def label(self) -> str:
        """The paper-style label of the edge (``c0``, ``c1``...)."""
        return f"c{self.index}"

    @property
    def endpoints(self) -> Tuple[str, str]:
        """The (source, destination) task names."""
        return (self.source, self.destination)


class TaskGraph:
    """A validated directed acyclic task graph."""

    def __init__(self, name: str = "application") -> None:
        self._name = name
        self._tasks: Dict[str, Task] = {}
        #: Task -> {successor: edge}, in edge-insertion order.
        self._successors: Dict[str, Dict[str, CommunicationEdge]] = {}
        #: Task -> predecessors, in edge-insertion order.
        self._predecessors: Dict[str, List[str]] = {}
        self._edges: List[CommunicationEdge] = []

    # ---------------------------------------------------------------- building
    @property
    def name(self) -> str:
        """Human-readable name of the application."""
        return self._name

    def add_task(self, name: str, execution_cycles: float) -> Task:
        """Add a task; raises if the name already exists."""
        if name in self._tasks:
            raise TaskGraphError(f"task {name} already exists")
        task = Task(name=name, execution_cycles=execution_cycles)
        self._tasks[name] = task
        self._successors[name] = {}
        self._predecessors[name] = []
        return task

    def add_tasks(self, tasks: Iterable[Tuple[str, float]]) -> List[Task]:
        """Add several ``(name, execution_cycles)`` tasks at once."""
        return [self.add_task(name, cycles) for name, cycles in tasks]

    def add_communication(
        self, source: str, destination: str, volume_bits: float
    ) -> CommunicationEdge:
        """Add a directed communication edge; raises on duplicates or cycles."""
        for endpoint in (source, destination):
            if endpoint not in self._tasks:
                raise TaskGraphError(f"unknown task {endpoint}")
        if destination in self._successors[source]:
            raise TaskGraphError(f"edge {source}->{destination} already exists")
        edge = CommunicationEdge(
            index=len(self._edges),
            source=source,
            destination=destination,
            volume_bits=volume_bits,
        )
        if self._reaches(destination, source):
            raise TaskGraphError(
                f"edge {source}->{destination} would create a cycle in the task graph"
            )
        self._successors[source][destination] = edge
        self._predecessors[destination].append(source)
        self._edges.append(edge)
        return edge

    def _reaches(self, start: str, target: str) -> bool:
        """True when a directed path leads from ``start`` to ``target``."""
        pending = [start]
        seen = {start}
        while pending:
            name = pending.pop()
            if name == target:
                return True
            for successor in self._successors[name]:
                if successor not in seen:
                    seen.add(successor)
                    pending.append(successor)
        return False

    # ----------------------------------------------------------------- access
    @property
    def task_count(self) -> int:
        """Number of tasks ``Nt``."""
        return len(self._tasks)

    @property
    def communication_count(self) -> int:
        """Number of communication edges ``Nl``."""
        return len(self._edges)

    def task(self, name: str) -> Task:
        """The task object of ``name``."""
        if name not in self._tasks:
            raise TaskGraphError(f"unknown task {name}")
        return self._tasks[name]

    def tasks(self) -> List[Task]:
        """Every task, in insertion order."""
        return list(self._tasks.values())

    def task_names(self) -> List[str]:
        """Every task name, in insertion order."""
        return list(self._tasks)

    def communications(self) -> List[CommunicationEdge]:
        """Every communication edge, in chromosome order (``c0``, ``c1``...)."""
        return list(self._edges)

    def communication(self, index: int) -> CommunicationEdge:
        """The communication edge ``c{index}``."""
        if not 0 <= index < len(self._edges):
            raise TaskGraphError(f"no communication edge with index {index}")
        return self._edges[index]

    def communication_between(self, source: str, destination: str) -> CommunicationEdge:
        """The edge from ``source`` to ``destination``."""
        edge = self._successors.get(source, {}).get(destination)
        if edge is None:
            raise TaskGraphError(f"no edge {source}->{destination}")
        return edge

    def predecessors(self, name: str) -> List[str]:
        """``pre(T)`` — names of the tasks feeding ``name``, in edge-insertion order."""
        self.task(name)
        return list(self._predecessors[name])

    def successors(self, name: str) -> List[str]:
        """Names of the tasks consuming the output of ``name``, in edge-insertion order."""
        self.task(name)
        return list(self._successors[name])

    def entry_tasks(self) -> List[str]:
        """Tasks without predecessors, in insertion order."""
        return [name for name, feeding in self._predecessors.items() if not feeding]

    def exit_tasks(self) -> List[str]:
        """Tasks without successors, in insertion order."""
        return [name for name, consuming in self._successors.items() if not consuming]

    def topological_order(self) -> List[str]:
        """The task names in Kahn's order, one generation after another.

        The entry tasks come first, in insertion order; a task follows as soon
        as its last predecessor has been emitted, and the children of each
        emitted task are released in edge-insertion order.
        """
        waiting = {name: len(feeding) for name, feeding in self._predecessors.items()}
        order = self.entry_tasks()
        for name in order:  # ``order`` grows while it is walked: a FIFO queue
            for successor in self._successors[name]:
                waiting[successor] -= 1
                if waiting[successor] == 0:
                    order.append(successor)
        return order

    def total_volume_bits(self) -> float:
        """Sum of the volumes of every communication edge."""
        return sum(edge.volume_bits for edge in self._edges)

    def total_execution_cycles(self) -> float:
        """Sum of the execution times of every task (serial lower bound)."""
        return sum(task.execution_cycles for task in self.tasks())

    def critical_path_cycles(self) -> float:
        """Length of the computation-only critical path (zero communication cost).

        This is the asymptotic lower bound the paper's Fig. 6 calls the minimal
        execution time (20 k-cycles for the virtual application).
        """
        completion: Dict[str, float] = {}
        for name in self.topological_order():
            task = self.task(name)
            earliest = max(
                (completion[p] for p in self.predecessors(name)), default=0.0
            )
            completion[name] = earliest + task.execution_cycles
        return max(completion.values(), default=0.0)

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def __iter__(self) -> Iterator[str]:
        return iter(self._tasks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TaskGraph(name={self._name!r}, tasks={self.task_count}, "
            f"communications={self.communication_count})"
        )
