"""The base class every ONoC topology subclasses.

Historically the whole stack was written against the single serpentine
:class:`~repro.topology.architecture.RingOnocArchitecture`.  The
:class:`OnocTopology` base class captures the exact surface those consumers
need — source-to-destination :class:`~repro.devices.waveguide.WaveguidePath`
objects, micro-ring crossing counts, topology-specific loss terms and
directed segment usage for conflict analysis — so that the power-loss
models, the allocation evaluators, the discrete-event simulator and the
scenario layer all work unmodified on any registered topology
(:data:`~repro.topology.registry.TOPOLOGIES`).

The base class owns everything the topologies share: the :meth:`~OnocTopology.grid`
build (tile layout, WDM comb, one ONI per core), the path cache, and every
quantity that follows from a path.  A topology defines how a signal is routed
(:meth:`~OnocTopology._build_path`) and how it describes itself, and overrides
only the terms in which it differs from a ring-routed one.

Three notions recur across the base class and deserve a precise definition:

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

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type, TypeVar

from ..config import OnocConfiguration, PhotonicParameters
from ..devices.waveguide import WaveguidePath
from ..devices.wavelength_grid import WavelengthGrid
from ..errors import TopologyError
from .layout import TileLayout
from .oni import OpticalNetworkInterface

__all__ = ["OnocTopology", "worst_case_link_loss_db"]

TopologyT = TypeVar("TopologyT", bound="OnocTopology")


@dataclass(repr=False)
class OnocTopology:
    """Everything the models/allocation/simulation layers need from a topology.

    Instances are normally created through :meth:`grid`.  They are
    value-like: two topologies built from the same arguments behave
    identically, and :meth:`with_wavelength_count` returns a *fresh* instance
    (sharing no mutable state such as path caches or ONI receiver states)
    carrying a different WDM comb.

    ``onis`` holds one ONI per core, numbered by core; an empty tuple (what
    :meth:`grid` passes) is filled with fresh ONIs once the fields that fix
    the core count are set.
    """

    layout: TileLayout
    grid_wavelengths: WavelengthGrid
    onis: Tuple[OpticalNetworkInterface, ...]
    configuration: OnocConfiguration
    _path_cache: Dict[Tuple[int, int], WaveguidePath] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.onis:
            self.onis = tuple(
                OpticalNetworkInterface.build(
                    core_id,
                    self.grid_wavelengths,
                    self.configuration.photonic,
                    self.configuration.energy,
                )
                for core_id in self.core_ids()
            )
        if len(self.onis) != self.core_count:
            raise TopologyError("the architecture needs exactly one ONI per core")
        for expected_id, oni in enumerate(self.onis):
            if oni.oni_id != expected_id:
                raise TopologyError(
                    f"ONI at position {expected_id} carries id {oni.oni_id}"
                )

    # ---------------------------------------------------------------- factory
    @classmethod
    def grid(
        cls: Type[TopologyT],
        rows: int,
        columns: int,
        wavelength_count: int,
        configuration: Optional[OnocConfiguration] = None,
        tile_pitch_cm: Optional[float] = None,
        **options: Any,
    ) -> TopologyT:
        """Build the topology over ``rows x columns`` tiles and ``wavelength_count`` channels.

        ``options`` are the topology's own keyword options (``layers``,
        ``crossing_loss_db`` ...); :meth:`_option_fields` turns them into its
        fields and rejects unknown ones with a :class:`TypeError`.
        """
        configuration = configuration or OnocConfiguration()
        layout_kwargs = {}
        if tile_pitch_cm is not None:
            layout_kwargs["tile_pitch_cm"] = tile_pitch_cm
        layout = TileLayout(rows=rows, columns=columns, **layout_kwargs)
        return cls(
            layout=layout,
            grid_wavelengths=WavelengthGrid.from_photonic_parameters(
                wavelength_count, configuration.photonic
            ),
            onis=(),
            configuration=configuration,
            **cls._option_fields(layout, **options),
        )

    @classmethod
    def _option_fields(cls, layout: TileLayout) -> Dict[str, Any]:
        """The topology's own fields, from the layout and its :meth:`grid` options (none here)."""
        del layout
        return {}

    def with_wavelength_count(self: TopologyT, wavelength_count: int) -> TopologyT:
        """A fresh copy of this topology carrying a different number of wavelengths."""
        return dataclasses.replace(
            self,
            grid_wavelengths=WavelengthGrid.from_photonic_parameters(
                wavelength_count, self.configuration.photonic
            ),
            onis=(),
        )

    # ------------------------------------------------------------------ sizes
    @property
    def core_count(self) -> int:
        """Number of IP cores (and of ONIs)."""
        return self.layout.core_count

    @property
    def wavelength_count(self) -> int:
        """Number of WDM wavelengths carried by the optical layer (``NW``)."""
        return self.grid_wavelengths.count

    def core_ids(self) -> range:
        """Identifiers of every IP core."""
        return range(self.core_count)

    # ------------------------------------------------------------------ parts
    def oni(self, core_id: int) -> OpticalNetworkInterface:
        """The Optical Network Interface attached to ``core_id``."""
        self._check_core(core_id)
        return self.onis[core_id]

    def reset_network_state(self) -> None:
        """Switch every receiver micro-ring of every ONI OFF."""
        for oni in self.onis:
            oni.reset_receivers()

    # ------------------------------------------------------------------ paths
    def path(self, source_core: int, destination_core: int) -> WaveguidePath:
        """Deterministic waveguide path between the ONIs of two cores (cached)."""
        key = (source_core, destination_core)
        if key not in self._path_cache:
            self._check_core(source_core)
            self._check_core(destination_core)
            if source_core == destination_core:
                raise TopologyError("source and destination ONIs must differ")
            self._path_cache[key] = self._build_path(source_core, destination_core)
        return self._path_cache[key]

    def _build_path(self, source_core: int, destination_core: int) -> WaveguidePath:
        """Route a signal between two distinct, valid cores (defined by each topology)."""
        raise NotImplementedError

    def hop_count(self, source_core: int, destination_core: int) -> int:
        """Number of waveguide segments between two cores."""
        return len(self.path(source_core, destination_core).segments)

    def crossed_oni_ids(self, source_core: int, destination_core: int) -> List[int]:
        """ONIs whose receiver rings the signal passes non-resonantly, in order.

        On a ring-routed topology these are exactly the path's intermediate
        ONIs: every ONI between source and destination places its full
        receiver bank on the waveguide.
        """
        return self.path(source_core, destination_core).intermediate_onis

    def crossed_oni_count(self, source_core: int, destination_core: int) -> int:
        """Number of intermediate ONIs crossed between two cores."""
        return len(self.crossed_oni_ids(source_core, destination_core))

    def crossed_off_ring_count(self, source_core: int, destination_core: int) -> int:
        """Micro-rings crossed in pass-through between source and destination.

        Every crossed ONI places one receiver ring per wavelength on the
        waveguide, and the destination ONI contributes its remaining
        ``NW - 1`` non-resonant rings; the resonant destination ring is counted
        separately as the single ON-state drop ring.
        """
        crossed = self.crossed_oni_count(source_core, destination_core)
        return crossed * self.wavelength_count + (self.wavelength_count - 1)

    # ----------------------------------------------------------------- losses
    def extra_path_loss_db(
        self,
        source_core: int,
        destination_core: int,
        parameters: Optional[PhotonicParameters] = None,
    ) -> float:
        """Topology-specific loss (dB, <= 0) beyond waveguide and micro-ring terms.

        A ring-routed path has none: every loss mechanism of Eq. (6) is
        already covered by propagation, bending and ring crossings, so this is
        exactly ``0.0`` (keeping the ring's arithmetic bit-identical to the
        pre-topology-subsystem implementation).
        """
        del source_core, destination_core, parameters
        return 0.0

    def crosstalk_path_loss_db(
        self,
        source_core: int,
        destination_core: int,
        victim_destination: int,
        parameters: PhotonicParameters,
    ) -> Optional[float]:
        """Aggressor loss (dB) at the victim's drop ONI, or ``None`` if unreachable.

        The ring-routed reach model: an aggressor injected at the victim's own
        ONI has travelled nothing (zero loss, only the drop-ring leak
        applies); otherwise it reaches the victim's destination only when that
        ONI lies on its path, crossing the full receiver bank of every
        intermediate ONI on the way plus the topology's extra terms (exactly
        ``0.0`` on the plain ring).
        """
        if source_core == victim_destination:
            return 0.0
        path = self.path(source_core, destination_core)
        if victim_destination not in path.onis[1:]:
            return None
        subpath = self.path(source_core, victim_destination)
        crossed = len(subpath.intermediate_onis) * self.wavelength_count
        return (
            subpath.total_waveguide_loss_db(parameters)
            + crossed * parameters.mr_off_pass_loss_db
            + self.extra_path_loss_db(source_core, victim_destination, parameters)
        )

    # -------------------------------------------------------------- conflicts
    def segment_usage(
        self, endpoints: Sequence[Tuple[int, int]]
    ) -> Dict[Tuple[int, int], List[int]]:
        """Map each directed segment to the indices of the paths using it.

        ``endpoints`` is a sequence of (source, destination) pairs; the result
        maps a segment key to the list of indices into ``endpoints`` whose
        path traverses that segment (the core primitive of wavelength-conflict
        detection).
        """
        usage: Dict[Tuple[int, int], List[int]] = {}
        for index, (source, destination) in enumerate(endpoints):
            for key in self.path(source, destination).segment_keys():
                usage.setdefault(key, []).append(index)
        return usage

    # ------------------------------------------------------------------ misc
    def describe(self) -> str:
        """One-paragraph human-readable description of the topology."""
        raise NotImplementedError

    def _check_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.core_count:
            raise TopologyError(
                f"core {core_id} outside architecture with {self.core_count} cores"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(cores={self.core_count}, "
            f"wavelengths={self.wavelength_count})"
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
