"""Dynamic-traffic models: seeded generators of connection-request streams.

The static scenarios of the paper allocate wavelengths for a task graph known
up front; a traffic model instead emits a *stream* of transient connection
requests — each one arrives, holds its wavelength for a while, and departs —
which is the workload shape an online RWA policy is measured against.

Two models are registered in :data:`TRAFFIC_MODELS`:

``poisson``
    Memoryless arrivals with exponential holding times, parameterised by the
    offered load in Erlangs (``offered_load_erlangs = arrival_rate x
    mean_holding``).  All randomness flows from a single
    ``numpy.random.default_rng(seed)`` stream, so the same options always
    produce the bit-identical request list — which is what lets a dynamic
    scenario be fingerprinted and served warm from the result store.

``trace``
    Deterministic replay of a recorded event list, given inline
    (``events=[...]``) or as a JSON file (``path=...``).  Useful for golden
    regression streams and for replaying measured traffic.

Model classes are constructed through :func:`build_traffic_model` (never by
bare name outside this module — lint rule R004 enforces this), which folds the
scenario's effective seed into seedable models exactly like the optimizer
backends do.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from ..config import is_count
from ..errors import TrafficError
from ..registry import Registry

__all__ = [
    "ConnectionRequest",
    "TrafficModel",
    "TRAFFIC_MODELS",
    "PoissonTrafficModel",
    "TraceTrafficModel",
    "build_traffic_model",
    "DEFAULT_TRAFFIC_SEED",
]

#: Seed used when neither the model options nor a scenario supply one.
DEFAULT_TRAFFIC_SEED = 2017


@dataclass(frozen=True)
class ConnectionRequest:
    """One transient connection: arrive, hold a wavelength, depart.

    Attributes
    ----------
    index:
        Position in the stream (0-based); makes every request addressable in
        reports and traces.
    source / destination:
        Core identifiers; must be distinct and valid for the topology the
        stream is replayed on.
    arrival:
        Absolute simulation time of the request.
    holding:
        How long the connection occupies its wavelength once admitted.
    """

    index: int
    source: int
    destination: int
    arrival: float
    holding: float

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise TrafficError(
                f"request {self.index}: source and destination are both {self.source}"
            )
        if not 0.0 <= self.arrival < math.inf:
            raise TrafficError(
                f"request {self.index}: arrival time must be finite and non-negative"
            )
        if not 0.0 < self.holding < math.inf:
            raise TrafficError(
                f"request {self.index}: holding time must be finite and positive"
            )

    @property
    def departure(self) -> float:
        """Absolute time at which an admitted connection releases its wavelength."""
        return self.arrival + self.holding

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form, symmetric with :meth:`from_dict`."""
        return {
            "index": self.index,
            "source": self.source,
            "destination": self.destination,
            "arrival": self.arrival,
            "holding": self.holding,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ConnectionRequest":
        """Rebuild a request from :meth:`to_dict` output."""
        return cls(
            index=int(payload["index"]),
            source=int(payload["source"]),
            destination=int(payload["destination"]),
            arrival=float(payload["arrival"]),
            holding=float(payload["holding"]),
        )


@runtime_checkable
class TrafficModel(Protocol):
    """What the dynamic simulator needs from a traffic generator."""

    name: str

    def requests(self, core_ids: Sequence[int]) -> List[ConnectionRequest]:
        """The full request stream, sorted by (arrival, index), for ``core_ids``."""
        ...

    def describe(self) -> str:
        """One-line human-readable description."""
        ...


TRAFFIC_MODELS: Registry[Any] = Registry("traffic model")


def _validate_pairs(
    pairs: Optional[Sequence[Sequence[int]]],
) -> Optional[Tuple[Tuple[int, int], ...]]:
    if pairs is None:
        return None
    cleaned: List[Tuple[int, int]] = []
    for pair in pairs:
        if len(pair) != 2:
            raise TrafficError(f"traffic pairs must be [source, destination], got {pair!r}")
        source, destination = int(pair[0]), int(pair[1])
        if source == destination:
            raise TrafficError(f"traffic pair ({source}, {destination}) is a self-loop")
        cleaned.append((source, destination))
    if not cleaned:
        raise TrafficError("traffic pairs, when given, must be non-empty")
    return tuple(cleaned)


def _check_cores(requests: Sequence[ConnectionRequest], core_ids: Sequence[int]) -> None:
    valid = set(core_ids)
    for request in requests:
        if request.source not in valid or request.destination not in valid:
            raise TrafficError(
                f"request {request.index} connects {request.source}->"
                f"{request.destination}, outside the topology's cores"
            )


@TRAFFIC_MODELS.register("poisson")
class PoissonTrafficModel:
    """Poisson arrivals / exponential holding, offered load in Erlangs.

    ``offered_load_erlangs`` is the network-wide load ``A = arrival_rate x
    mean_holding``; the arrival rate is derived from it.  Source/destination
    pairs are drawn uniformly over distinct cores, or uniformly over ``pairs``
    when given (restricting to a single pair turns the network into the
    textbook M/M/NW/NW loss system, which is how the benchmark checks the
    simulator against the Erlang-B formula).
    """

    name = "poisson"

    def __init__(
        self,
        offered_load_erlangs: float = 16.0,
        mean_holding: float = 1.0,
        request_count: int = 2000,
        pairs: Optional[Sequence[Sequence[int]]] = None,
        seed: int = DEFAULT_TRAFFIC_SEED,
    ) -> None:
        if not 0.0 < offered_load_erlangs < math.inf:
            raise TrafficError("offered_load_erlangs must be finite and positive")
        if not 0.0 < mean_holding < math.inf:
            raise TrafficError("mean_holding must be finite and positive")
        if not is_count(request_count):
            raise TypeError(f"request_count must be an integer, got {request_count!r}")
        if request_count <= 0:
            raise TrafficError("request_count must be positive")
        self.offered_load_erlangs = float(offered_load_erlangs)
        self.mean_holding = float(mean_holding)
        self.request_count = request_count
        self.pairs = _validate_pairs(pairs)
        self.seed = int(seed)

    @property
    def arrival_rate(self) -> float:
        """Connection arrivals per unit time (lambda = A / mean holding)."""
        return self.offered_load_erlangs / self.mean_holding

    def requests(self, core_ids: Sequence[int]) -> List[ConnectionRequest]:
        cores = list(core_ids)
        if self.pairs is None and len(cores) < 2:
            raise TrafficError("poisson traffic needs at least two cores")
        rng = np.random.default_rng(self.seed)
        count = self.request_count
        arrivals = np.cumsum(rng.exponential(1.0 / self.arrival_rate, size=count))
        holdings = rng.exponential(self.mean_holding, size=count)
        # Exponential variates are strictly positive but guard the pathological
        # float underflow to keep ConnectionRequest validation unconditional.
        holdings = np.maximum(holdings, np.finfo(float).tiny)
        if self.pairs is not None:
            choice = rng.integers(0, len(self.pairs), size=count)
            endpoints = [self.pairs[i] for i in choice.tolist()]
        else:
            src_idx = rng.integers(0, len(cores), size=count)
            # Draw the destination over the remaining cores and shift past the
            # source so self-loops are impossible by construction.
            dst_idx = rng.integers(0, len(cores) - 1, size=count)
            dst_idx = np.where(dst_idx >= src_idx, dst_idx + 1, dst_idx)
            endpoints = [
                (cores[s], cores[d]) for s, d in zip(src_idx.tolist(), dst_idx.tolist())
            ]
        stream = [
            ConnectionRequest(index, source, destination, arrival, holding)
            for index, ((source, destination), arrival, holding) in enumerate(
                zip(endpoints, arrivals.tolist(), holdings.tolist())
            )
        ]
        _check_cores(stream, cores)
        return stream

    def describe(self) -> str:
        return (
            f"poisson traffic: {self.offered_load_erlangs:g} Erlangs, "
            f"mean holding {self.mean_holding:g}, {self.request_count} requests, "
            f"seed {self.seed}"
        )


@TRAFFIC_MODELS.register("trace")
class TraceTrafficModel:
    """Deterministic replay of a recorded connection-request list.

    Events come either inline (``events=[{"source": ..., "destination": ...,
    "arrival": ..., "holding": ...}, ...]``) or from a JSON file holding the
    same list (``path=...``).  The stream is re-sorted by (arrival, position)
    so a shuffled trace replays identically to a sorted one.
    """

    name = "trace"

    def __init__(
        self,
        events: Optional[Sequence[Mapping[str, Any]]] = None,
        path: Optional[str] = None,
    ) -> None:
        if (events is None) == (path is None):
            raise TrafficError("trace traffic needs exactly one of 'events' or 'path'")
        if path is not None:
            with open(path, "r", encoding="utf-8") as handle:
                events = json.load(handle)
        if not isinstance(events, Sequence) or isinstance(events, (str, bytes)):
            raise TrafficError("trace events must be a list of event objects")
        if not events:
            raise TrafficError("trace traffic needs at least one event")
        self.path = path
        try:
            ordered = sorted(
                enumerate(events),
                key=lambda item: (float(item[1]["arrival"]), item[0]),
            )
            self._requests = [
                ConnectionRequest(
                    index=position,
                    source=int(event["source"]),
                    destination=int(event["destination"]),
                    arrival=float(event["arrival"]),
                    holding=float(event["holding"]),
                )
                for position, (_, event) in enumerate(ordered)
            ]
        except KeyError as missing:
            raise ValueError(f"a trace event has no {missing} key") from None

    def requests(self, core_ids: Sequence[int]) -> List[ConnectionRequest]:
        _check_cores(self._requests, core_ids)
        return list(self._requests)

    def describe(self) -> str:
        origin = f"file {self.path}" if self.path else "inline events"
        return f"trace traffic: {len(self._requests)} recorded requests from {origin}"


def build_traffic_model(
    name: str,
    options: Optional[Mapping[str, Any]] = None,
    seed: Optional[int] = None,
) -> TrafficModel:
    """Instantiate a registered traffic model by name.

    ``seed`` (usually ``Scenario.effective_seed``) is folded into models that
    accept one unless the options already pin an explicit ``seed`` — the same
    convention :func:`repro.scenarios.backends.create_optimizer` uses, so a
    scenario's single seed governs every random stream it owns.
    """
    factory = TRAFFIC_MODELS.get(name)
    merged: Dict[str, Any] = dict(options or {})
    if seed is not None and "seed" not in merged and factory is not TraceTrafficModel:
        merged["seed"] = int(seed)
    try:
        model = factory(**merged)
    except (TypeError, ValueError, OSError) as exc:
        raise TrafficError(f"invalid options for traffic model {name!r}: {exc}") from None
    return model
