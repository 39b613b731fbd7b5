"""The pluggable topology abstraction every ONoC implementation satisfies.

Historically the whole stack was written against the single serpentine
:class:`~repro.topology.architecture.RingOnocArchitecture`.  The
:class:`OnocTopology` protocol captures the exact surface those consumers
need — source-to-destination :class:`~repro.devices.waveguide.WaveguidePath`
objects, micro-ring crossing counts, topology-specific loss terms and
directed segment usage for conflict analysis — so that the power-loss models, the allocation evaluators, the discrete-event simulator and
the scenario layer all work unmodified on any registered topology
(:data:`~repro.topology.registry.TOPOLOGIES`).

Three notions recur across the protocol and deserve a precise definition:

``crossed_oni_ids(s, d)``
    The ONIs whose receiver micro-rings a signal from ``s`` passes *through*
    (non-resonantly) before its destination — the ``Lp0``/``Lp1`` sites of
    Eq. (6).  On the ring these are the path's intermediate ONIs; on a
    crossbar a signal crosses passive waveguide crossings but no foreign ONI.

``extra_path_loss_db(s, d, parameters)``
    Static topology-specific loss a signal accumulates on top of waveguide
    propagation/bending and micro-ring terms: waveguide-crossing loss on a
    crossbar, vertical coupler insertion loss between the layers of a 3D
    multi-ring.  Zero (exactly ``0.0``) on the plain ring, which keeps the
    ring's loss arithmetic bit-identical to the pre-topology-subsystem code.

``crosstalk_path_loss_db(s, d, victim_destination, parameters)``
    The loss an *aggressor* signal travelling ``s -> d`` has accumulated when
    it reaches the drop rings of ``victim_destination`` — or ``None`` when the
    aggressor's path never touches that ONI, in which case it contributes no
    first-order crosstalk term to Eq. (7).
"""

from __future__ import annotations

from typing import (
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from ..config import OnocConfiguration, PhotonicParameters
from ..devices.waveguide import WaveguidePath
from ..devices.wavelength_grid import WavelengthGrid
from ..topology.oni import OpticalNetworkInterface

__all__ = [
    "OnocTopology",
    "generic_segment_usage",
    "ring_style_crosstalk_path_loss_db",
    "worst_case_link_loss_db",
]


@runtime_checkable
class OnocTopology(Protocol):
    """Everything the models/allocation/simulation layers need from a topology.

    Implementations are value-like: two topologies built from the same factory
    arguments behave identically, and :meth:`with_wavelength_count` returns a
    *fresh* instance (sharing no mutable state such as path caches) carrying a
    different WDM comb.
    """

    configuration: OnocConfiguration
    grid_wavelengths: WavelengthGrid
    onis: Tuple[OpticalNetworkInterface, ...]

    # ------------------------------------------------------------------ sizes
    @property
    def core_count(self) -> int:
        """Number of IP cores (and of ONIs)."""
        ...

    @property
    def wavelength_count(self) -> int:
        """Number of WDM wavelengths carried by the optical layer (``NW``)."""
        ...

    def core_ids(self) -> range:
        """Identifiers of every IP core."""
        ...

    # ------------------------------------------------------------------ parts
    def oni(self, core_id: int) -> OpticalNetworkInterface:
        """The Optical Network Interface attached to ``core_id``."""
        ...

    def reset_network_state(self) -> None:
        """Switch every receiver micro-ring of every ONI OFF."""
        ...

    # ------------------------------------------------------------------ paths
    def path(self, source_core: int, destination_core: int) -> WaveguidePath:
        """Deterministic waveguide path between the ONIs of two cores."""
        ...

    def hop_count(self, source_core: int, destination_core: int) -> int:
        """Number of waveguide segments between two cores."""
        ...

    def crossed_oni_ids(self, source_core: int, destination_core: int) -> List[int]:
        """ONIs whose receiver rings the signal passes non-resonantly, in order."""
        ...

    def crossed_off_ring_count(self, source_core: int, destination_core: int) -> int:
        """Micro-rings crossed in pass-through between source and destination."""
        ...

    # ----------------------------------------------------------------- losses
    def extra_path_loss_db(
        self,
        source_core: int,
        destination_core: int,
        parameters: Optional[PhotonicParameters] = None,
    ) -> float:
        """Topology-specific loss (dB, <= 0) beyond waveguide and ring terms."""
        ...

    def crosstalk_path_loss_db(
        self,
        source_core: int,
        destination_core: int,
        victim_destination: int,
        parameters: PhotonicParameters,
    ) -> Optional[float]:
        """Aggressor loss (dB) at the victim's drop ONI, or ``None`` if unreachable."""
        ...

    # -------------------------------------------------------------- conflicts
    def segment_usage(
        self, endpoints: Sequence[Tuple[int, int]]
    ) -> Dict[Tuple[int, int], List[int]]:
        """Map each directed segment to the indices of the paths using it."""
        ...

    # ------------------------------------------------------------------ misc
    def with_wavelength_count(self, wavelength_count: int) -> "OnocTopology":
        """A fresh copy of this topology carrying a different WDM comb."""
        ...

    def describe(self) -> str:
        """One-paragraph human-readable description of the topology."""
        ...


def generic_segment_usage(
    topology: OnocTopology, endpoints: Sequence[Tuple[int, int]]
) -> Dict[Tuple[int, int], List[int]]:
    """Segment usage computed from :meth:`OnocTopology.path` alone.

    Works for any topology whose paths enumerate their directed segments; the
    multi-ring and crossbar implementations delegate here, and the result maps
    a segment key to the list of indices into ``endpoints`` whose path
    traverses that segment (the core primitive of wavelength-conflict
    detection).
    """
    usage: Dict[Tuple[int, int], List[int]] = {}
    for index, (source, destination) in enumerate(endpoints):
        for key in topology.path(source, destination).segment_keys():
            usage.setdefault(key, []).append(index)
    return usage


def ring_style_crosstalk_path_loss_db(
    topology: OnocTopology,
    source_core: int,
    destination_core: int,
    victim_destination: int,
    parameters: PhotonicParameters,
) -> Optional[float]:
    """Aggressor reach/loss model shared by the ring-routed topologies.

    An aggressor injected at the victim's own ONI has travelled nothing (zero
    loss, only the drop-ring leak applies); otherwise it reaches the victim's
    destination only when that ONI lies on its path, crossing the full
    receiver bank of every intermediate ONI on the way plus the topology's
    extra terms (exactly ``0.0`` on the plain ring).  ``None`` means the
    aggressor never reaches the victim's drop rings.
    """
    if source_core == victim_destination:
        return 0.0
    path = topology.path(source_core, destination_core)
    if victim_destination not in path.onis[1:]:
        return None
    subpath = topology.path(source_core, victim_destination)
    crossed = len(subpath.intermediate_onis) * topology.wavelength_count
    return (
        subpath.total_waveguide_loss_db(parameters)
        + crossed * parameters.mr_off_pass_loss_db
        + topology.extra_path_loss_db(source_core, victim_destination, parameters)
    )


def worst_case_link_loss_db(
    topology: OnocTopology, parameters: Optional[PhotonicParameters] = None
) -> float:
    """Worst (most negative) static insertion loss over every core pair.

    This is the figure Li et al.'s crossbar studies compare architectures by:
    waveguide propagation and bending, every OFF-state ring crossed, the final
    drop, and the topology-specific terms (crossings, vertical couplers) —
    all with the network idle, so the number depends on the topology alone.
    """
    parameters = parameters or topology.configuration.photonic
    worst = 0.0
    for source in topology.core_ids():
        for destination in topology.core_ids():
            if source == destination:
                continue
            path = topology.path(source, destination)
            loss = (
                path.total_waveguide_loss_db(parameters)
                + topology.crossed_off_ring_count(source, destination)
                * parameters.mr_off_pass_loss_db
                + parameters.mr_on_loss_db
                + topology.extra_path_loss_db(source, destination, parameters)
            )
            worst = min(worst, loss)
    return worst
