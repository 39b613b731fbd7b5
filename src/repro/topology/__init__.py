"""Pluggable ONoC topology models.

The paper's architecture (Fig. 1a) stacks an electrical layer of ``n x n``
IP cores under an optical layer carrying a single serpentine ring waveguide.
Every core is attached to the optical layer through an Optical Network
Interface (ONI, Fig. 1b) that contains one laser per wavelength on the
transmit side and one micro-ring resonator per wavelength on the receive side.

Since the topology subsystem became pluggable, that ring is one of several
interchangeable subclasses of the :class:`~repro.topology.base.OnocTopology`
base class, addressed by name through :data:`~repro.topology.registry.TOPOLOGIES`:

* ``ring``       — the paper's single serpentine ring
  (:class:`~repro.topology.architecture.RingOnocArchitecture`);
* ``multi_ring`` — a 3D stack of rings joined by a vertical coupler pillar
  (:class:`~repro.topology.multi_ring.MultiRingOnocArchitecture`);
* ``crossbar``   — a Li-style optical crossbar with worst-case-loss analysis
  (:class:`~repro.topology.crossbar.CrossbarOnocArchitecture`).

Module map:

* :mod:`~repro.topology.layout`       — physical placement of the tiles and the
  serpentine visiting order of the ring.
* :mod:`~repro.topology.oni`          — the Optical Network Interface.
* :mod:`~repro.topology.ring`         — the unidirectional ring waveguide and
  source-to-destination path computation (one per layer on the 3D stack).
* :mod:`~repro.topology.base`         — the :class:`OnocTopology` base class:
  the ``grid`` build, the path cache and everything derived from a path
  (crossed ONIs and rings, ring-routed crosstalk reach, segment usage).
* :mod:`~repro.topology.architecture` — the aggregate
  :class:`~repro.topology.architecture.RingOnocArchitecture`, whose ring
  segments are the paper's Architecture Characterization Graph (ACG).
* :mod:`~repro.topology.multi_ring`   — the 3D multi-ring stack.
* :mod:`~repro.topology.crossbar`     — the optical crossbar.
* :mod:`~repro.topology.registry`     — the :data:`TOPOLOGIES` registry of
  topology classes, :func:`build_topology` and :func:`topology_description`.

A topology subclasses :class:`OnocTopology` with its routing
(``_build_path``) and ``describe``; the three above override only where they
differ from a ring-routed path (the stack's core count and coupler loss, the
crossbar's crossed ONIs, crossing loss and crosstalk reach).
"""

from .layout import TileLayout, TileCoordinate
from .oni import OpticalNetworkInterface
from .ring import RingWaveguide
from .architecture import RingOnocArchitecture
from .base import OnocTopology, worst_case_link_loss_db
from .multi_ring import MultiRingOnocArchitecture
from .crossbar import CrossbarOnocArchitecture
from .registry import TOPOLOGIES, build_topology, topology_description

__all__ = [
    "TileLayout",
    "TileCoordinate",
    "OpticalNetworkInterface",
    "RingWaveguide",
    "RingOnocArchitecture",
    "OnocTopology",
    "MultiRingOnocArchitecture",
    "CrossbarOnocArchitecture",
    "TOPOLOGIES",
    "build_topology",
    "topology_description",
    "worst_case_link_loss_db",
]
