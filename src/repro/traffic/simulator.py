"""Dynamic-traffic simulation measured by blocking probability.

:class:`DynamicTrafficSimulator` replays a traffic model's connection stream
against a topology: each request arrives, asks its online allocator for a
wavelength that is free on *every* directed segment of the topology's
source→destination path (the wavelength-continuity constraint), holds it for
the request's holding time, and departs.  A request whose free set is empty
is **blocked** — the fraction of blocked requests, with a Wilson score
confidence interval and a warm-up exclusion window, is the figure of merit of
the whole subsystem.

The order in which events happen does not depend on which wavelengths the
allocator picks, so the simulator sorts all of them once and applies them in
one pass instead of running a discrete-event queue.  The order is:

* by time;
* at equal times, departures before arrivals — a departure that frees
  capacity at time *t* must come before an arrival at the same *t*, the
  :data:`~repro.simulation.engine.PRIORITY_RELEASE` /
  :data:`~repro.simulation.engine.PRIORITY_ACQUIRE` convention of the
  discrete-event engine;
* then by stream position: arrivals at one time are admitted in stream
  order, and departures at one time commute, so their order among
  themselves changes nothing;
* a departure whose time equals its own arrival's (a holding time too small
  to move the float clock) comes right after that arrival, the one place it
  can be scheduled from.

A blocked request's departure is skipped, so it counts neither as an event
nor towards the run's duration.  Per-segment occupancy is tracked as
wavelength bitmasks over integer segment ids, so the free-set computation
for a path is a handful of integer ORs regardless of the wavelength count —
the events/s floor in ``tests/test_speed_gates.py`` holds it there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import TrafficError
from ..telemetry import get_registry, timed_span
from ..topology.base import OnocTopology
from .allocators import OnlineAllocator
from .models import TrafficModel

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

    # ------------------------------------------------------------------ paths
    def _network_routes(self) -> Tuple[int, Dict[Tuple[int, int], Tuple[int, ...]]]:
        """The network's segment count and every core pair's path as segment ids.

        Ids number the directed segments in first-use order over the core
        pairs; the count covers every segment some pair's path uses.
        """
        topology = self._topology
        ids: Dict[Tuple[int, int], int] = {}
        routes: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        cores = topology.core_ids()
        for source in cores:
            for destination in cores:
                if source != destination:
                    routes[(source, destination)] = tuple(
                        ids.setdefault(key, len(ids))
                        for key in topology.path(source, destination).segment_keys()
                    )
        return len(ids), routes

    # -------------------------------------------------------------------- run
    def run(self) -> BlockingReport:
        """Simulate the full stream and return its :class:`BlockingReport`."""
        strategy = getattr(self._allocator, "name", type(self._allocator).__name__)
        with timed_span(
            "traffic.run",
            metric="repro_traffic_run_seconds",
            strategy=strategy,
            topology=self._topology_name,
        ):
            return self._replay(strategy)

    def _replay(self, strategy: str) -> BlockingReport:
        topology = self._topology
        requests = self._model.requests(list(topology.core_ids()))
        count = len(requests)
        wavelength_count = topology.wavelength_count
        full_mask = (1 << wavelength_count) - 1
        warmup_count = int(count * self._warmup_fraction)
        segment_count, pair_routes = self._network_routes()

        # Sort all 2N candidate events once: the arrival of the request at
        # stream position p carries code 2p, its departure 2p + 1.  Releases
        # go before acquires, except a departure at its own arrival's time,
        # which sorts as an acquire right behind that arrival.
        arrivals = np.array([request.arrival for request in requests], dtype=float)
        departures = arrivals + np.array([request.holding for request in requests], dtype=float)
        positions = np.arange(count)
        times = np.concatenate((arrivals, departures))
        codes = np.concatenate((2 * positions, 2 * positions + 1))
        acquires = np.concatenate((np.ones(count, dtype=bool), departures == arrivals))
        order = np.lexsort((codes, acquires, times))
        try:
            routes = [
                pair_routes[(request.source, request.destination)] for request in requests
            ]
        except KeyError as missing:
            raise TrafficError(
                f"the {self._topology_name} topology has no path {missing.args[0]}"
            ) from None

        choose = self._allocator.choose
        busy = [0] * segment_count
        usage = [0] * wavelength_count
        carried_per_wavelength = [0] * wavelength_count
        held: List[Optional[int]] = [None] * count
        free_sets: Dict[int, Tuple[int, ...]] = {}
        offered = 0
        blocked = 0
        busy_segment_time = 0.0
        applied = 0
        last = -1
        for step, code in enumerate(codes[order].tolist()):
            position = code >> 1
            if code & 1:
                wavelength = held[position]
                if wavelength is None:
                    continue
                clear = ~(1 << wavelength)
                for segment in routes[position]:
                    busy[segment] &= clear
                usage[wavelength] -= 1
            else:
                request = requests[position]
                route = routes[position]
                measured = request.index >= warmup_count
                if measured:
                    offered += 1
                combined = 0
                for segment in route:
                    combined |= busy[segment]
                free_mask = ~combined & full_mask
                if free_mask:
                    free = free_sets.get(free_mask)
                    if free is None:
                        free = tuple(
                            wavelength
                            for wavelength in range(wavelength_count)
                            if free_mask >> wavelength & 1
                        )
                        free_sets[free_mask] = free
                    wavelength = choose(request, free, usage)
                    if wavelength not in free:
                        raise TrafficError(
                            f"allocator {getattr(self._allocator, 'name', '?')!r} chose "
                            f"wavelength {wavelength}, which is not free on the path of "
                            f"request {request.index}"
                        )
                    bit = 1 << wavelength
                    for segment in route:
                        busy[segment] |= bit
                    usage[wavelength] += 1
                    carried_per_wavelength[wavelength] += 1
                    busy_segment_time += request.holding * len(route)
                    held[position] = wavelength
                elif measured:
                    blocked += 1
            applied += 1
            last = step
        duration = float(times[order[last]]) if last >= 0 else 0.0

        registry = get_registry()
        registry.counter("repro_traffic_requests_total").inc(count)
        registry.counter("repro_traffic_offered_total").inc(offered)
        registry.counter("repro_traffic_blocked_total").inc(blocked)
        registry.counter("repro_traffic_events_total").inc(applied)

        probability = blocked / offered if offered else 0.0
        low, high = wilson_interval(blocked, offered)
        capacity = segment_count * wavelength_count * duration
        utilisation = busy_segment_time / capacity if capacity > 0.0 else 0.0
        return BlockingReport(
            model=getattr(self._model, "name", type(self._model).__name__),
            strategy=strategy,
            topology=self._topology_name,
            wavelength_count=wavelength_count,
            total_requests=count,
            warmup_excluded=warmup_count,
            offered=offered,
            blocked=blocked,
            blocking_probability=probability,
            wilson_low=low,
            wilson_high=high,
            mean_link_utilisation=utilisation,
            duration=duration,
            per_wavelength_carried=tuple(carried_per_wavelength),
            events_processed=applied,
        )
