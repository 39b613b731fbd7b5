"""Aggregate ring-based WDM ONoC architecture.

:class:`RingOnocArchitecture` ties together the physical tile layout, the ring
waveguide, the WDM wavelength grid and one Optical Network Interface per core.
It is the object every higher-level model (power loss, scheduling, wavelength
allocation, simulation) receives.  The paper's *Architecture Characterization
Graph* (ACG, Definition 2) is its ring: the cores are the vertices and
:attr:`RingWaveguide.segments` the edges, each with its length and bends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import OnocConfiguration, PhotonicParameters
from ..devices.waveguide import WaveguidePath
from ..devices.wavelength_grid import WavelengthGrid
from ..errors import TopologyError
from .base import ring_style_crosstalk_path_loss_db
from .layout import TileLayout
from .oni import OpticalNetworkInterface
from .ring import RingWaveguide

__all__ = ["RingOnocArchitecture"]


@dataclass
class RingOnocArchitecture:
    """A ring-based WDM ONoC with one ONI per IP core.

    Instances are normally created through :meth:`grid`, which mirrors the
    paper's 4x4 arrangement (``RingOnocArchitecture.grid(4, 4, wavelength_count=8)``).
    """

    layout: TileLayout
    ring: RingWaveguide
    grid_wavelengths: WavelengthGrid
    onis: Tuple[OpticalNetworkInterface, ...]
    configuration: OnocConfiguration = field(default_factory=OnocConfiguration)
    _path_cache: Dict[Tuple[int, int], WaveguidePath] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        if len(self.onis) != self.layout.core_count:
            raise TopologyError("the architecture needs exactly one ONI per core")
        for expected_id, oni in enumerate(self.onis):
            if oni.oni_id != expected_id:
                raise TopologyError(
                    f"ONI at position {expected_id} carries id {oni.oni_id}"
                )

    # ---------------------------------------------------------------- factory
    @classmethod
    def grid(
        cls,
        rows: int,
        columns: int,
        wavelength_count: int,
        configuration: Optional[OnocConfiguration] = None,
        tile_pitch_cm: Optional[float] = None,
    ) -> "RingOnocArchitecture":
        """Build a ``rows x columns`` ring ONoC carrying ``wavelength_count`` wavelengths."""
        configuration = configuration or OnocConfiguration()
        layout_kwargs = {}
        if tile_pitch_cm is not None:
            layout_kwargs["tile_pitch_cm"] = tile_pitch_cm
        layout = TileLayout(rows=rows, columns=columns, **layout_kwargs)
        ring = RingWaveguide(layout=layout)
        grid_wavelengths = WavelengthGrid.from_photonic_parameters(
            wavelength_count, configuration.photonic
        )
        onis = tuple(
            OpticalNetworkInterface.build(
                core_id,
                grid_wavelengths,
                configuration.photonic,
                configuration.energy,
            )
            for core_id in layout.core_ids()
        )
        return cls(
            layout=layout,
            ring=ring,
            grid_wavelengths=grid_wavelengths,
            onis=onis,
            configuration=configuration,
        )

    def with_wavelength_count(self, wavelength_count: int) -> "RingOnocArchitecture":
        """A copy of this architecture carrying a different number of wavelengths."""
        return RingOnocArchitecture.grid(
            rows=self.layout.rows,
            columns=self.layout.columns,
            wavelength_count=wavelength_count,
            configuration=self.configuration,
            tile_pitch_cm=self.layout.tile_pitch_cm,
        )

    # ------------------------------------------------------------------ sizes
    @property
    def core_count(self) -> int:
        """Number of IP cores (and of ONIs)."""
        return self.layout.core_count

    @property
    def wavelength_count(self) -> int:
        """Number of WDM wavelengths carried by the waveguide (``NW``)."""
        return self.grid_wavelengths.count

    def core_ids(self) -> range:
        """Identifiers of every IP core."""
        return self.layout.core_ids()

    # ------------------------------------------------------------------ parts
    def oni(self, core_id: int) -> OpticalNetworkInterface:
        """The Optical Network Interface attached to ``core_id``."""
        if not 0 <= core_id < self.core_count:
            raise TopologyError(f"core {core_id} outside architecture with {self.core_count} cores")
        return self.onis[core_id]

    def reset_network_state(self) -> None:
        """Switch every receiver micro-ring of every ONI OFF."""
        for oni in self.onis:
            oni.reset_receivers()

    # ------------------------------------------------------------------ paths
    def path(self, source_core: int, destination_core: int) -> WaveguidePath:
        """Waveguide path between the ONIs of two cores (cached)."""
        key = (source_core, destination_core)
        if key not in self._path_cache:
            self._path_cache[key] = self.ring.path(source_core, destination_core)
        return self._path_cache[key]

    def hop_count(self, source_core: int, destination_core: int) -> int:
        """Ring hop count between two cores."""
        return self.ring.hop_count(source_core, destination_core)

    def crossed_oni_count(self, source_core: int, destination_core: int) -> int:
        """Number of intermediate ONIs crossed between two cores."""
        return len(self.path(source_core, destination_core).intermediate_onis)

    def crossed_oni_ids(self, source_core: int, destination_core: int) -> List[int]:
        """ONIs whose receiver rings the signal passes non-resonantly, in order.

        On the ring these are exactly the path's intermediate ONIs: every ONI
        between source and destination places its full receiver bank on the
        waveguide.
        """
        return self.path(source_core, destination_core).intermediate_onis

    def crossed_off_ring_count(self, source_core: int, destination_core: int) -> int:
        """Micro-rings crossed in pass-through between source and destination.

        Every intermediate ONI places one receiver ring per wavelength on the
        waveguide, and the destination ONI contributes its remaining
        ``NW - 1`` non-resonant rings; the resonant destination ring is counted
        separately as the single ON-state drop ring.
        """
        intermediate = self.crossed_oni_count(source_core, destination_core)
        return intermediate * self.wavelength_count + (self.wavelength_count - 1)

    # ----------------------------------------------------------------- losses
    def extra_path_loss_db(
        self,
        source_core: int,
        destination_core: int,
        parameters: Optional[PhotonicParameters] = None,
    ) -> float:
        """Topology-specific loss beyond waveguide and micro-ring terms.

        The single serpentine ring has none: every loss mechanism of Eq. (6)
        is already covered by propagation, bending and ring crossings, so this
        is exactly ``0.0`` (keeping the ring's arithmetic bit-identical to the
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
        """Loss an aggressor ``source -> destination`` has accumulated at the victim ONI.

        Delegates to the shared ring-routed reach model (the ring's extra
        topology term is exactly ``0.0``, so the arithmetic is bit-identical
        to the pre-topology-subsystem implementation).
        """
        return ring_style_crosstalk_path_loss_db(
            self, source_core, destination_core, victim_destination, parameters
        )

    def segment_usage(
        self, endpoints: Sequence[Tuple[int, int]]
    ) -> Dict[Tuple[int, int], List[int]]:
        """Delegate to :meth:`RingWaveguide.segment_usage` for conflict analysis."""
        return self.ring.segment_usage(endpoints)

    def describe(self) -> str:
        """One-paragraph human-readable description of the architecture."""
        return (
            f"Ring-based WDM ONoC: {self.layout.rows}x{self.layout.columns} IP cores, "
            f"{self.wavelength_count} wavelengths "
            f"(channel spacing {self.grid_wavelengths.channel_spacing_nm:.3f} nm over "
            f"FSR {self.grid_wavelengths.free_spectral_range_nm} nm), "
            f"ring circumference {self.ring.circumference_cm:.2f} cm."
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RingOnocArchitecture(cores={self.core_count}, "
            f"wavelengths={self.wavelength_count})"
        )
