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
from typing import Any, Dict, List, Optional, Tuple

from ..config import PhotonicParameters, is_count
from ..devices.waveguide import WaveguidePath, WaveguideSegment
from ..errors import TopologyError
from .base import OnocTopology
from .layout import TileLayout
from .registry import TOPOLOGIES
from .ring import RingWaveguide

__all__ = ["MultiRingOnocArchitecture"]

#: Default physical height of one vertical coupler hop (cm) — a stacked-die
#: optical via is tens of micrometres tall, negligible next to tile pitches.
DEFAULT_LAYER_PITCH_CM = 0.001

#: Default insertion loss of one vertical coupler traversal (dB, negative).
DEFAULT_COUPLER_LOSS_DB = -1.0


@TOPOLOGIES.register("multi_ring")
@dataclass(repr=False)
class MultiRingOnocArchitecture(OnocTopology):
    """Stacked 3D rings (one serpentine ring per layer, vertical coupler pillar).

    Instances are normally created through :meth:`grid`
    (``MultiRingOnocArchitecture.grid(4, 4, wavelength_count=8, layers=2)``).
    """

    layer_count: int
    pillar: int
    layer_pitch_cm: float
    coupler_loss_db: float
    #: One ring waveguide per layer, carrying that layer's global ONI ids.
    rings: Tuple[RingWaveguide, ...] = field(init=False, repr=False)

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
        self.rings = tuple(
            RingWaveguide(layout=self.layout, oni_offset=layer * self.layout.core_count)
            for layer in range(self.layer_count)
        )
        super().__post_init__()

    @classmethod
    def _option_fields(
        cls,
        layout: TileLayout,
        layers: int = 2,
        pillar: int = 0,
        layer_pitch_cm: float = DEFAULT_LAYER_PITCH_CM,
        coupler_loss_db: float = DEFAULT_COUPLER_LOSS_DB,
    ) -> Dict[str, Any]:
        """A ``layers``-deep stack joined by a coupler pillar at serpentine position ``pillar``."""
        del layout
        for option, value in (("layers", layers), ("pillar", pillar)):
            if not is_count(value):
                raise TypeError(f"{option} must be an integer, got {value!r}")
        return {
            "layer_count": layers,
            "pillar": pillar,
            "layer_pitch_cm": float(layer_pitch_cm),
            "coupler_loss_db": float(coupler_loss_db),
        }

    # ------------------------------------------------------------------ sizes
    @property
    def core_count(self) -> int:
        """Number of IP cores across every layer."""
        return self.layer_count * self.layout.core_count

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

    # ------------------------------------------------------------------ paths
    def _build_path(self, source_core: int, destination_core: int) -> WaveguidePath:
        """Intra-layer paths follow that layer's unidirectional ring.

        Inter-layer paths ride the source ring to the pillar, climb the
        vertical couplers and ride the destination ring from the pillar.
        """
        source_layer = source_core // self.layout.core_count
        destination_layer = destination_core // self.layout.core_count
        if source_layer == destination_layer:
            return self.rings[source_layer].path(source_core, destination_core)
        step = 1 if destination_layer > source_layer else -1
        climb = [
            WaveguideSegment(
                source_oni=self.pillar_node(layer),
                destination_oni=self.pillar_node(layer + step),
                length_cm=self.layer_pitch_cm,
                bend_count=0,
            )
            for layer in range(source_layer, destination_layer, step)
        ]
        return WaveguidePath.from_segments(
            self._ring_walk(source_layer, source_core, self.pillar_node(source_layer))
            + climb
            + self._ring_walk(
                destination_layer, self.pillar_node(destination_layer), destination_core
            )
        )

    def _ring_walk(
        self, layer: int, source_core: int, destination_core: int
    ) -> List[WaveguideSegment]:
        """Ring segments from source to destination within one layer (may be empty)."""
        if source_core == destination_core:
            return []
        return list(self.rings[layer].path(source_core, destination_core).segments)

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

    def describe(self) -> str:
        """One-paragraph human-readable description of the stack."""
        return (
            f"Multi-ring 3D WDM ONoC: {self.layer_count} layers of "
            f"{self.layout.rows}x{self.layout.columns} IP cores "
            f"({self.core_count} cores total), {self.wavelength_count} wavelengths, "
            f"vertical coupler pillar at serpentine position {self.pillar} "
            f"({self.coupler_loss_db:g} dB per layer hop)."
        )
