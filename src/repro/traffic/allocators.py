"""Online wavelength assignment for dynamic traffic.

An online allocator sees one connection request at a time, together with the
set of wavelengths that are free on *every* segment of the request's path
(the wavelength-continuity constraint) and the network-wide occupancy count
per wavelength.  It picks one wavelength; a request whose free set is empty is
blocked before the allocator is consulted.

One :class:`OnlineAllocator` class runs the four classic policies of
:data:`~repro.allocation.heuristics.POLICIES`, each registered by name in
:data:`ONLINE_ALLOCATORS`.  The ranked policies take the free wavelength that
:func:`~repro.allocation.heuristics.preference` ranks first, the rule the
static baselines assign channels by:

=============  ==============================================================
``first_fit``  Lowest-indexed free wavelength (packs the comb from the bottom).
``least_used`` Free wavelength with the fewest active connections network-wide
               (spreads load across the comb), ties to the lowest index.
``most_used``  Free wavelength with the most active connections network-wide
               (packs onto already-busy wavelengths), ties to the lowest index.
``random``     Uniform choice among the free set from a seeded RNG stream.
=============  ==============================================================

Allocators are constructed through :func:`build_online_allocator` — lint rule
R004 bans direct construction outside this module, and the builder folds
the scenario seed into the ``random`` policy exactly like the optimizer
backends.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, Mapping, Optional, Sequence

import numpy as np

from ..allocation.heuristics import POLICIES, preference
from ..errors import TrafficError
from ..registry import Registry
from .models import DEFAULT_TRAFFIC_SEED, ConnectionRequest

__all__ = [
    "ALLOCATOR_SEED_OFFSET",
    "OnlineAllocator",
    "ONLINE_ALLOCATORS",
    "build_online_allocator",
]

#: Offset separating the allocator's RNG stream from the traffic stream when
#: both derive from one scenario seed.
ALLOCATOR_SEED_OFFSET = 1


class OnlineAllocator:
    """One classic policy picking a wavelength for each request.

    ``seed`` seeds the ``random`` policy's stream (default
    :data:`~repro.traffic.models.DEFAULT_TRAFFIC_SEED`); the ranked policies
    are deterministic and take none.
    """

    def __init__(self, name: str, seed: Optional[int] = None) -> None:
        if name not in POLICIES:
            raise TrafficError(
                f"unknown wavelength policy {name!r}; policies: {', '.join(POLICIES)}"
            )
        if seed is not None and name != "random":
            raise TypeError(f"policy {name!r} takes no seed")
        self.name = name
        self._rng = (
            np.random.default_rng(int(DEFAULT_TRAFFIC_SEED if seed is None else seed))
            if name == "random"
            else None
        )

    def choose(
        self,
        request: ConnectionRequest,
        free: Sequence[int],
        usage: Sequence[int],
    ) -> int:
        """Return one wavelength index from ``free``.

        ``free`` is the sorted tuple of wavelengths idle on every segment of
        the request's path (never empty — blocking is decided by the
        simulator); ``usage[w]`` counts connections currently holding
        wavelength ``w`` anywhere in the network.
        """
        if self._rng is not None:
            return free[int(self._rng.integers(0, len(free)))]
        return min(free, key=preference(self.name, usage))


ONLINE_ALLOCATORS: Registry[Any] = Registry("online allocator")

for _policy in POLICIES:
    ONLINE_ALLOCATORS.register(_policy)(functools.partial(OnlineAllocator, _policy))


def build_online_allocator(
    name: str,
    options: Optional[Mapping[str, Any]] = None,
    seed: Optional[int] = None,
) -> OnlineAllocator:
    """Instantiate a registered allocator by name, folding in the seed.

    ``seed`` (derived from ``Scenario.effective_seed``) reaches the
    ``random`` policy unless the options already pin an explicit ``seed``;
    the ranked policies take no options.  Bad options, a seed that is not an
    integer among them, raise :class:`~repro.errors.TrafficError`.
    """
    factory = ONLINE_ALLOCATORS.get(name)
    merged: Dict[str, Any] = dict(options or {})
    if seed is not None and "seed" not in merged and factory is ONLINE_ALLOCATORS.get("random"):
        merged["seed"] = int(seed)
    try:
        allocator = factory(**merged)
    except (TypeError, ValueError) as exc:
        raise TrafficError(
            f"invalid options for online allocator {name!r}: {exc}"
        ) from None
    return allocator
