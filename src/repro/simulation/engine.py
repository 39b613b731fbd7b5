"""Discrete-event engine: one heap of ``(time, priority, sequence, action)``.

Domain simulators (such as :class:`repro.simulation.onoc_sim.OnocSimulator`)
schedule plain zero-argument callables on it.  Events fire in time order; at
equal times the lower priority fires first, then the earlier insertion, so
every run is deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Tuple

from ..errors import SimulationError

__all__ = ["DiscreteEventEngine", "PRIORITY_RELEASE", "PRIORITY_ACQUIRE"]

# Shared tie-break convention for events that touch a contended resource:
# at equal timestamps, events that *release* capacity (transfer completions,
# connection departures) must fire before events that *acquire* it (task
# launches, connection arrivals), otherwise a request can be refused capacity
# that frees at the very same instant — and the refusal would depend on
# insertion order instead of being deterministic.
PRIORITY_RELEASE = 0
PRIORITY_ACQUIRE = 1


class DiscreteEventEngine:
    """Run scheduled callbacks in (time, priority, insertion) order.

    ``now`` is the simulation clock and ``processed_events`` the number of
    events run so far.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self.now = 0.0
        self.processed_events = 0

    def schedule_at(self, time: float, action: Callable[[], None], priority: int = 0) -> None:
        """Schedule an action at an absolute time (must not be in the past)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule an event at {time}, the clock is already at {self.now}"
            )
        heapq.heappush(self._heap, (time, priority, next(self._sequence), action))

    def schedule_after(
        self, delay: float, action: Callable[[], None], priority: int = 0
    ) -> None:
        """Schedule an action ``delay`` time units from now."""
        if delay < 0.0:
            raise SimulationError("delay must be non-negative")
        self.schedule_at(self.now + delay, action, priority)

    def run(self, max_events: int = 1_000_000) -> float:
        """Process events until the heap drains; returns the final clock.

        Reaching ``max_events`` events in one run is taken for a scheduling
        loop and raises :class:`~repro.errors.SimulationError`.
        """
        heap = self._heap
        executed = 0
        while heap:
            self.now, _, _, action = heapq.heappop(heap)
            action()
            self.processed_events += 1
            executed += 1
            if executed >= max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events; likely a scheduling loop"
                )
        return self.now
