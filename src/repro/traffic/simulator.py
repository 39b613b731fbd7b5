"""Event-driven dynamic-traffic simulation measured by blocking probability.

:class:`DynamicTrafficSimulator` replays a traffic model's connection stream
through the generic discrete-event engine of :mod:`repro.simulation`: each
request arrives, asks its online allocator for a wavelength that is free on
*every* directed segment of the topology's source→destination path (the
wavelength-continuity constraint), holds it for the request's holding time,
and departs.  A request whose free set is empty is **blocked** — the
fraction of blocked requests, with a Wilson score confidence interval and a
warm-up exclusion window, is the figure of merit of the whole subsystem.

Event ordering matters at equal timestamps: a departure that frees capacity
at time *t* must be processed before an arrival at the same *t*, or the
arrival would be blocked by a connection that is already gone.  The simulator
pins this with the shared :data:`~repro.simulation.events.PRIORITY_RELEASE` /
:data:`~repro.simulation.events.PRIORITY_ACQUIRE` convention.

Per-segment occupancy is tracked as wavelength bitmasks, so the free-set
computation for a path is a handful of integer ORs regardless of the
wavelength count — the events/s floor in ``tests/test_speed_gates.py``
holds it there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

from ..errors import TrafficError
from ..simulation.engine import DiscreteEventEngine
from ..simulation.events import PRIORITY_ACQUIRE, PRIORITY_RELEASE
from ..telemetry import get_registry, timed_span
from ..topology.base import OnocTopology
from .allocators import OnlineAllocator
from .models import ConnectionRequest, TrafficModel

__all__ = [
    "BlockingReport",
    "DynamicTrafficSimulator",
    "wilson_interval",
    "erlang_b",
]

#: 97.5th normal percentile — the z of a two-sided 95% interval.
_WILSON_Z = 1.959963984540054


def wilson_interval(successes: int, trials: int, z: float = _WILSON_Z) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because blocking probabilities
    live near 0, where the naive interval collapses or goes negative.
    Returns ``(0.0, 0.0)`` for zero trials.
    """
    if trials <= 0:
        return (0.0, 0.0)
    proportion = successes / trials
    z_squared = z * z
    denominator = 1.0 + z_squared / trials
    centre = (proportion + z_squared / (2.0 * trials)) / denominator
    half_width = (z / denominator) * math.sqrt(
        proportion * (1.0 - proportion) / trials + z_squared / (4.0 * trials * trials)
    )
    return (max(0.0, centre - half_width), min(1.0, centre + half_width))


def erlang_b(offered_load_erlangs: float, servers: int) -> float:
    """Erlang-B blocking probability of an M/M/c/c loss system.

    Computed with the standard numerically-stable recurrence
    ``B(A, k) = A·B(A, k-1) / (k + A·B(A, k-1))``.  A single-path traffic
    stream with ``NW`` wavelengths is exactly this system, which gives the
    simulator an analytical oracle.
    """
    if servers < 0:
        raise TrafficError("erlang_b needs a non-negative server count")
    if offered_load_erlangs < 0.0:
        raise TrafficError("erlang_b needs a non-negative offered load")
    blocking = 1.0
    for k in range(1, servers + 1):
        blocking = offered_load_erlangs * blocking / (k + offered_load_erlangs * blocking)
    return blocking


@dataclass(frozen=True)
class BlockingReport:
    """Outcome of one dynamic-traffic run.

    Blocking statistics (``offered``/``blocked``/probability/interval) count
    only the requests after the warm-up window, so the empty-network
    transient does not bias the estimate; utilisation and the per-wavelength
    carried counts cover the whole run.
    """

    model: str
    strategy: str
    topology: str
    wavelength_count: int
    total_requests: int
    warmup_excluded: int
    offered: int
    blocked: int
    blocking_probability: float
    wilson_low: float
    wilson_high: float
    mean_link_utilisation: float
    duration: float
    per_wavelength_carried: Tuple[int, ...]
    events_processed: int

    @property
    def carried(self) -> int:
        """Measured requests that were admitted."""
        return self.offered - self.blocked

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form, symmetric with :meth:`from_dict`."""
        return {
            "model": self.model,
            "strategy": self.strategy,
            "topology": self.topology,
            "wavelength_count": self.wavelength_count,
            "total_requests": self.total_requests,
            "warmup_excluded": self.warmup_excluded,
            "offered": self.offered,
            "blocked": self.blocked,
            "blocking_probability": self.blocking_probability,
            "wilson_low": self.wilson_low,
            "wilson_high": self.wilson_high,
            "mean_link_utilisation": self.mean_link_utilisation,
            "duration": self.duration,
            "per_wavelength_carried": list(self.per_wavelength_carried),
            "events_processed": self.events_processed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BlockingReport":
        """Rebuild a report from :meth:`to_dict` output (e.g. a store row)."""
        return cls(
            model=str(payload["model"]),
            strategy=str(payload["strategy"]),
            topology=str(payload["topology"]),
            wavelength_count=int(payload["wavelength_count"]),
            total_requests=int(payload["total_requests"]),
            warmup_excluded=int(payload["warmup_excluded"]),
            offered=int(payload["offered"]),
            blocked=int(payload["blocked"]),
            blocking_probability=float(payload["blocking_probability"]),
            wilson_low=float(payload["wilson_low"]),
            wilson_high=float(payload["wilson_high"]),
            mean_link_utilisation=float(payload["mean_link_utilisation"]),
            duration=float(payload["duration"]),
            per_wavelength_carried=tuple(
                int(count) for count in payload["per_wavelength_carried"]
            ),
            events_processed=int(payload["events_processed"]),
        )

    def summary_row(self) -> Dict[str, Any]:
        """Flat row for tables and CSV export."""
        return {
            "topology": self.topology,
            "wavelengths": self.wavelength_count,
            "strategy": self.strategy,
            "offered": self.offered,
            "blocked": self.blocked,
            "blocking_probability": round(self.blocking_probability, 6),
            "wilson_low": round(self.wilson_low, 6),
            "wilson_high": round(self.wilson_high, 6),
            "mean_link_utilisation": round(self.mean_link_utilisation, 6),
        }


class DynamicTrafficSimulator:
    """Replay a traffic model against a topology under an online allocator.

    ``allocator`` may be any object with a ``name`` and a ``choose`` method.
    """

    def __init__(
        self,
        topology: OnocTopology,
        model: TrafficModel,
        allocator: OnlineAllocator,
        warmup_fraction: float = 0.1,
        topology_name: str = "",
    ) -> None:
        if not 0.0 <= warmup_fraction < 1.0:
            raise TrafficError("warmup_fraction must be in [0, 1)")
        self._topology = topology
        self._model = model
        self._allocator = allocator
        self._warmup_fraction = float(warmup_fraction)
        self._topology_name = topology_name or type(topology).__name__
        self._path_segments: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}

    # ------------------------------------------------------------------ paths
    def _segments(self, source: int, destination: int) -> List[Tuple[int, int]]:
        key = (source, destination)
        cached = self._path_segments.get(key)
        if cached is None:
            cached = self._topology.path(source, destination).segment_keys()
            self._path_segments[key] = cached
        return cached

    def _network_segment_count(self) -> int:
        segments = set()
        for source in self._topology.core_ids():
            for destination in self._topology.core_ids():
                if source != destination:
                    segments.update(self._segments(source, destination))
        return len(segments)

    # -------------------------------------------------------------------- run
    def run(self) -> BlockingReport:
        """Simulate the full stream and return its :class:`BlockingReport`."""
        topology = self._topology
        requests = self._model.requests(list(topology.core_ids()))
        wavelength_count = topology.wavelength_count
        full_mask = (1 << wavelength_count) - 1
        warmup_count = int(len(requests) * self._warmup_fraction)

        engine = DiscreteEventEngine()
        busy_masks: Dict[Tuple[int, int], int] = {}
        usage = [0] * wavelength_count
        carried_per_wavelength = [0] * wavelength_count
        offered = 0
        blocked = 0
        busy_segment_time = 0.0

        def depart(segments: List[Tuple[int, int]], wavelength: int) -> None:
            clear = ~(1 << wavelength)
            for segment in segments:
                busy_masks[segment] &= clear
            usage[wavelength] -= 1

        def arrive(request: ConnectionRequest) -> None:
            nonlocal offered, blocked, busy_segment_time
            measured = request.index >= warmup_count
            if measured:
                offered += 1
            segments = self._segments(request.source, request.destination)
            combined = 0
            for segment in segments:
                combined |= busy_masks.get(segment, 0)
            free_mask = ~combined & full_mask
            if free_mask == 0:
                if measured:
                    blocked += 1
                return
            free = tuple(
                wavelength
                for wavelength in range(wavelength_count)
                if free_mask >> wavelength & 1
            )
            wavelength = self._allocator.choose(request, free, usage)
            if wavelength not in free:
                raise TrafficError(
                    f"allocator {getattr(self._allocator, 'name', '?')!r} chose "
                    f"wavelength {wavelength}, which is not free on the path of "
                    f"request {request.index}"
                )
            bit = 1 << wavelength
            for segment in segments:
                busy_masks[segment] = busy_masks.get(segment, 0) | bit
            usage[wavelength] += 1
            carried_per_wavelength[wavelength] += 1
            busy_segment_time += request.holding * len(segments)
            engine.schedule_at(
                request.departure,
                lambda: depart(segments, wavelength),
                priority=PRIORITY_RELEASE,
                label=f"depart {request.index}",
            )

        for request in requests:
            engine.schedule_at(
                request.arrival,
                lambda request=request: arrive(request),
                priority=PRIORITY_ACQUIRE,
                label=f"arrive {request.index}",
            )

        strategy_name = getattr(self._allocator, "name", type(self._allocator).__name__)
        with timed_span(
            "traffic.run",
            metric="repro_traffic_run_seconds",
            strategy=strategy_name,
            topology=self._topology_name,
        ):
            duration = engine.run(max_events=max(1_000_000, 4 * len(requests)))

        registry = get_registry()
        registry.counter("repro_traffic_requests_total").inc(len(requests))
        registry.counter("repro_traffic_offered_total").inc(offered)
        registry.counter("repro_traffic_blocked_total").inc(blocked)
        registry.counter("repro_traffic_events_total").inc(engine.processed_events)

        probability = blocked / offered if offered else 0.0
        low, high = wilson_interval(blocked, offered)
        segment_count = self._network_segment_count()
        capacity = segment_count * wavelength_count * duration
        utilisation = busy_segment_time / capacity if capacity > 0.0 else 0.0
        return BlockingReport(
            model=getattr(self._model, "name", type(self._model).__name__),
            strategy=getattr(self._allocator, "name", type(self._allocator).__name__),
            topology=self._topology_name,
            wavelength_count=wavelength_count,
            total_requests=len(requests),
            warmup_excluded=warmup_count,
            offered=offered,
            blocked=blocked,
            blocking_probability=probability,
            wilson_low=low,
            wilson_high=high,
            mean_link_utilisation=utilisation,
            duration=duration,
            per_wavelength_carried=tuple(carried_per_wavelength),
            events_processed=engine.processed_events,
        )
