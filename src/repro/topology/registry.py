"""The string-keyed topology registry mirroring ``OPTIMIZERS``/``WORKLOADS``.

Scenarios (and the CLI) refer to topologies exclusively by their registered
name — ``"ring"``, ``"multi_ring"``, ``"crossbar"`` — which keeps scenario
documents serialisable and lets downstream projects plug their own
architectures in.  A topology is an
:class:`~repro.topology.base.OnocTopology` subclass, registered by name; the
first line of its docstring is its :func:`topology_description`::

    @TOPOLOGIES.register("my_bus")
    class MyBusArchitecture(OnocTopology):
        '''Linear optical bus (cores in id order).'''

        def _build_path(self, source_core, destination_core):
            ...

        def describe(self):
            ...

:func:`build_topology` resolves a name + options pair into a live topology
through the class's :meth:`~repro.topology.base.OnocTopology.grid`, which
takes the scenario's grid shape, wavelength count and configuration, plus any
topology-specific keyword options (``layers``, ``crossing_loss_db`` ...).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Type

from ..config import OnocConfiguration
from ..errors import TopologyError
from ..registry import Registry
from .base import OnocTopology

__all__ = ["TOPOLOGIES", "build_topology", "topology_description"]

#: Topology classes by name (``ring``, ``multi_ring``, ``crossbar`` ...).
TOPOLOGIES: Registry[Type[OnocTopology]] = Registry("topology")


def build_topology(
    name: str,
    rows: int,
    columns: int,
    wavelength_count: int,
    configuration: Optional[OnocConfiguration] = None,
    options: Optional[Dict[str, Any]] = None,
) -> OnocTopology:
    """Build the topology registered under ``name`` for one scenario shape.

    ``options`` holds the topology-specific keyword arguments taken verbatim
    from ``Scenario.topology_options`` (``layers``, ``pillar``,
    ``crossing_loss_db`` ...); unknown names and mistyped values both raise a
    clean :class:`~repro.errors.TopologyError` naming the offending topology.
    """
    topology_class = TOPOLOGIES.get(name)
    try:
        return topology_class.grid(
            rows,
            columns,
            wavelength_count=wavelength_count,
            configuration=configuration,
            **dict(options or {}),
        )
    except (TypeError, ValueError) as error:
        raise TopologyError(f"invalid options for topology {name!r}: {error}") from None


def topology_description(name: str) -> str:
    """The first docstring line of a registered topology class."""
    doc = (TOPOLOGIES.get(name).__doc__ or "").strip()
    return doc.splitlines()[0] if doc else ""
