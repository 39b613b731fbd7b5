"""Multi-ring 3D ONoC: one serpentine ring per layer plus vertical couplers.

This topology realises the "3D" of the paper's title explicitly: the optical
layer is replicated ``layer_count`` times, each layer carrying its own
serpentine ring over a ``rows x columns`` tile grid, and the layers are joined
by a *pillar* of vertical optical couplers (through-silicon optical vias) at a
configurable serpentine position.  A signal between cores of different layers
rides its source ring to the pillar, hops layer to layer through the vertical
couplers (each hop costing ``coupler_loss_db``), and rides the destination
ring from the pillar to its target ONI.

Global core identifiers stack the layers: core ``l * rows * columns + k`` is
serpentine position ``k`` of layer ``l``.  Every node a path touches is a real
ONI (the pillar cores double as vertical access points), so ring-crossing
counts follow the same ``intermediate x NW`` arithmetic as the single ring,
with the vertical coupler insertion loss reported separately through
:meth:`extra_path_loss_db`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import OnocConfiguration, PhotonicParameters
from ..devices.waveguide import WaveguidePath, WaveguideSegment
from ..devices.wavelength_grid import WavelengthGrid
from ..errors import TopologyError
from .base import generic_segment_usage, ring_style_crosstalk_path_loss_db
from .layout import TileLayout
from .oni import OpticalNetworkInterface

__all__ = ["MultiRingOnocArchitecture"]

#: Default physical height of one vertical coupler hop (cm) — a stacked-die
#: optical via is tens of micrometres tall, negligible next to tile pitches.
DEFAULT_LAYER_PITCH_CM = 0.001

#: Default insertion loss of one vertical coupler traversal (dB, negative).
DEFAULT_COUPLER_LOSS_DB = -1.0


@dataclass
class MultiRingOnocArchitecture:
    """A stack of serpentine rings joined by a vertical coupler pillar.

    Instances are normally created through :meth:`grid`
    (``MultiRingOnocArchitecture.grid(4, 4, wavelength_count=8, layers=2)``).
    """

    layout: TileLayout
    layer_count: int
    pillar: int
    layer_pitch_cm: float
    coupler_loss_db: float
    grid_wavelengths: WavelengthGrid
    onis: Tuple[OpticalNetworkInterface, ...]
    configuration: OnocConfiguration = field(default_factory=OnocConfiguration)
    _path_cache: Dict[Tuple[int, int], WaveguidePath] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        if self.layer_count < 1:
            raise TopologyError("a multi-ring stack needs at least one layer")
        if not 0 <= self.pillar < self.layout.core_count:
            raise TopologyError(
                f"pillar position {self.pillar} outside the "
                f"{self.layout.core_count}-tile layer"
            )
        if self.layer_pitch_cm <= 0.0:
            raise TopologyError("layer pitch must be positive")
        if self.coupler_loss_db > 0.0:
            raise TopologyError("coupler loss must be <= 0 dB (attenuation)")
        if len(self.onis) != self.core_count:
            raise TopologyError("the architecture needs exactly one ONI per core")
        for expected_id, oni in enumerate(self.onis):
            if oni.oni_id != expected_id:
                raise TopologyError(
                    f"ONI at position {expected_id} carries id {oni.oni_id}"
                )
        # Per-layer ring segments with global node identifiers; the segment at
        # index k of a layer's tuple is the one leaving serpentine position k.
        per_layer: List[Tuple[WaveguideSegment, ...]] = []
        for layer in range(self.layer_count):
            offset = layer * self.layout.core_count
            per_layer.append(
                tuple(
                    WaveguideSegment(
                        source_oni=offset + position,
                        destination_oni=offset + self.layout.ring_successor(position),
                        length_cm=self.layout.segment_length_cm(position),
                        bend_count=self.layout.segment_bend_count(position),
                    )
                    for position in self.layout.ring_order()
                )
            )
        self._ring_segments: Tuple[Tuple[WaveguideSegment, ...], ...] = tuple(per_layer)

    # ---------------------------------------------------------------- factory
    @classmethod
    def grid(
        cls,
        rows: int,
        columns: int,
        wavelength_count: int,
        configuration: Optional[OnocConfiguration] = None,
        tile_pitch_cm: Optional[float] = None,
        layers: int = 2,
        pillar: int = 0,
        layer_pitch_cm: float = DEFAULT_LAYER_PITCH_CM,
        coupler_loss_db: float = DEFAULT_COUPLER_LOSS_DB,
    ) -> "MultiRingOnocArchitecture":
        """Build a ``layers``-deep stack of ``rows x columns`` ring layers."""
        configuration = configuration or OnocConfiguration()
        layout_kwargs = {}
        if tile_pitch_cm is not None:
            layout_kwargs["tile_pitch_cm"] = tile_pitch_cm
        layout = TileLayout(rows=rows, columns=columns, **layout_kwargs)
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
            for core_id in range(int(layers) * layout.core_count)
        )
        return cls(
            layout=layout,
            layer_count=int(layers),
            pillar=int(pillar),
            layer_pitch_cm=float(layer_pitch_cm),
            coupler_loss_db=float(coupler_loss_db),
            grid_wavelengths=grid_wavelengths,
            onis=onis,
            configuration=configuration,
        )

    def with_wavelength_count(
        self, wavelength_count: int
    ) -> "MultiRingOnocArchitecture":
        """A fresh copy of this stack carrying a different number of wavelengths."""
        return MultiRingOnocArchitecture.grid(
            rows=self.layout.rows,
            columns=self.layout.columns,
            wavelength_count=wavelength_count,
            configuration=self.configuration,
            tile_pitch_cm=self.layout.tile_pitch_cm,
            layers=self.layer_count,
            pillar=self.pillar,
            layer_pitch_cm=self.layer_pitch_cm,
            coupler_loss_db=self.coupler_loss_db,
        )

    # ------------------------------------------------------------------ sizes
    @property
    def core_count(self) -> int:
        """Number of IP cores across every layer."""
        return self.layer_count * self.layout.core_count

    @property
    def wavelength_count(self) -> int:
        """Number of WDM wavelengths carried by every ring (``NW``)."""
        return self.grid_wavelengths.count

    def core_ids(self) -> range:
        """Identifiers of every IP core, layers stacked."""
        return range(self.core_count)

    def layer_of(self, core_id: int) -> int:
        """The layer a core sits on."""
        self._check_core(core_id)
        return core_id // self.layout.core_count

    def position_of(self, core_id: int) -> int:
        """The serpentine position of a core within its layer."""
        self._check_core(core_id)
        return core_id % self.layout.core_count

    def pillar_node(self, layer: int) -> int:
        """The core hosting the vertical coupler on ``layer``."""
        if not 0 <= layer < self.layer_count:
            raise TopologyError(
                f"layer {layer} outside stack with {self.layer_count} layers"
            )
        return layer * self.layout.core_count + self.pillar

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
        """Waveguide path between two cores (cached).

        Intra-layer paths follow that layer's unidirectional ring; inter-layer
        paths ride the source ring to the pillar, climb the vertical couplers
        and ride the destination ring from the pillar.
        """
        key = (source_core, destination_core)
        if key not in self._path_cache:
            self._path_cache[key] = self._build_path(source_core, destination_core)
        return self._path_cache[key]

    def _build_path(self, source_core: int, destination_core: int) -> WaveguidePath:
        self._check_core(source_core)
        self._check_core(destination_core)
        if source_core == destination_core:
            raise TopologyError("source and destination ONIs must differ")
        source_layer = source_core // self.layout.core_count
        destination_layer = destination_core // self.layout.core_count
        segments: List[WaveguideSegment] = []
        if source_layer == destination_layer:
            segments.extend(
                self._ring_walk(source_layer, source_core, destination_core)
            )
        else:
            segments.extend(
                self._ring_walk(
                    source_layer, source_core, self.pillar_node(source_layer)
                )
            )
            step = 1 if destination_layer > source_layer else -1
            for layer in range(source_layer, destination_layer, step):
                segments.append(
                    WaveguideSegment(
                        source_oni=self.pillar_node(layer),
                        destination_oni=self.pillar_node(layer + step),
                        length_cm=self.layer_pitch_cm,
                        bend_count=0,
                    )
                )
            segments.extend(
                self._ring_walk(
                    destination_layer,
                    self.pillar_node(destination_layer),
                    destination_core,
                )
            )
        return WaveguidePath.from_segments(segments)

    def _ring_walk(
        self, layer: int, source_core: int, destination_core: int
    ) -> List[WaveguideSegment]:
        """Ring segments from source to destination within one layer (may be empty)."""
        if source_core == destination_core:
            return []
        ring = self._ring_segments[layer]
        offset = layer * self.layout.core_count
        segments: List[WaveguideSegment] = []
        current = source_core
        while current != destination_core:
            segment = ring[current - offset]
            segments.append(segment)
            current = segment.destination_oni
        return segments

    def hop_count(self, source_core: int, destination_core: int) -> int:
        """Number of waveguide segments (ring hops plus vertical hops)."""
        return len(self.path(source_core, destination_core).segments)

    def crossed_oni_count(self, source_core: int, destination_core: int) -> int:
        """Number of intermediate ONIs crossed between two cores."""
        return len(self.path(source_core, destination_core).intermediate_onis)

    def crossed_oni_ids(self, source_core: int, destination_core: int) -> List[int]:
        """ONIs whose receiver rings the signal passes non-resonantly, in order."""
        return self.path(source_core, destination_core).intermediate_onis

    def crossed_off_ring_count(self, source_core: int, destination_core: int) -> int:
        """Micro-rings crossed in pass-through between source and destination.

        Identical arithmetic to the single ring: every intermediate ONI (the
        pillar cores included) contributes its full receiver bank, and the
        destination its ``NW - 1`` non-resonant rings.
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
        """Vertical coupler insertion loss between the two cores' layers."""
        del parameters
        self._check_core(source_core)
        self._check_core(destination_core)
        layer_hops = abs(
            source_core // self.layout.core_count
            - destination_core // self.layout.core_count
        )
        return layer_hops * self.coupler_loss_db

    def crosstalk_path_loss_db(
        self,
        source_core: int,
        destination_core: int,
        victim_destination: int,
        parameters: PhotonicParameters,
    ) -> Optional[float]:
        """Aggressor loss at the victim's drop ONI (``None`` when unreachable).

        Delegates to the shared ring-routed reach model; the stack's extra
        term is the vertical coupler loss up to the victim's layer.
        """
        return ring_style_crosstalk_path_loss_db(
            self, source_core, destination_core, victim_destination, parameters
        )

    # -------------------------------------------------------------- conflicts
    def segment_usage(
        self, endpoints: Sequence[Tuple[int, int]]
    ) -> Dict[Tuple[int, int], List[int]]:
        """Directed-segment usage (vertical coupler hops included)."""
        return generic_segment_usage(self, endpoints)

    def describe(self) -> str:
        """One-paragraph human-readable description of the stack."""
        return (
            f"Multi-ring 3D WDM ONoC: {self.layer_count} layers of "
            f"{self.layout.rows}x{self.layout.columns} IP cores "
            f"({self.core_count} cores total), {self.wavelength_count} wavelengths, "
            f"vertical coupler pillar at serpentine position {self.pillar} "
            f"({self.coupler_loss_db:g} dB per layer hop)."
        )

    # ---------------------------------------------------------------- helpers
    def _check_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.core_count:
            raise TopologyError(
                f"core {core_id} outside architecture with {self.core_count} cores"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MultiRingOnocArchitecture(layers={self.layer_count}, "
            f"cores={self.core_count}, wavelengths={self.wavelength_count})"
        )
