"""Unidirectional ring waveguide and path computation.

The optical layer is one closed ring waveguide visiting every ONI once, in the
serpentine order given by the :class:`~repro.topology.layout.TileLayout`.
Propagation is unidirectional (as in ORNoC-style single-waveguide rings), so
the path from a source ONI to a destination ONI is uniquely determined: follow
the ring in the propagation direction until the destination is reached.

The ring produces :class:`~repro.devices.waveguide.WaveguidePath` objects whose
geometry (length, bends, crossed ONIs) feeds the power-loss model, and exposes
segment-level queries used by the wavelength-conflict validity rules of the
allocator (two communications whose paths share a directed waveguide segment
must not use the same wavelength at the same time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..devices.waveguide import WaveguidePath, WaveguideSegment
from ..errors import TopologyError
from .base import OnocTopology
from .layout import TileLayout

__all__ = ["RingWaveguide"]


@dataclass(frozen=True)
class RingWaveguide:
    """The closed, unidirectional ring waveguide of the optical layer.

    Parameters
    ----------
    layout:
        Physical layout providing the visiting order and per-segment geometry.
    oni_offset:
        Identifier of the ONI at serpentine position 0; the ring of layer
        ``l`` of a 3D stack numbers its ONIs from ``l * layout.core_count``.
    """

    layout: TileLayout
    oni_offset: int = 0
    _segments: Tuple[WaveguideSegment, ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        if not self._segments:
            object.__setattr__(self, "_segments", self._build_segments())

    def _build_segments(self) -> Tuple[WaveguideSegment, ...]:
        layout, offset = self.layout, self.oni_offset
        return tuple(
            WaveguideSegment(
                source_oni=offset + position,
                destination_oni=offset + layout.ring_successor(position),
                length_cm=layout.segment_length_cm(position),
                bend_count=layout.segment_bend_count(position),
            )
            for position in layout.ring_order()
        )

    # ------------------------------------------------------------------ sizes
    @property
    def oni_count(self) -> int:
        """Number of ONIs attached to the ring."""
        return self.layout.core_count

    @property
    def segments(self) -> Tuple[WaveguideSegment, ...]:
        """Every directed segment of the ring, in propagation order."""
        return self._segments

    @property
    def circumference_cm(self) -> float:
        """Total physical length of the closed ring."""
        return sum(segment.length_cm for segment in self._segments)

    # ------------------------------------------------------------------ paths
    def segment_after(self, oni_id: int) -> WaveguideSegment:
        """The segment leaving ``oni_id`` in the propagation direction."""
        self._check_oni(oni_id)
        return self._segments[oni_id - self.oni_offset]

    def path(self, source_oni: int, destination_oni: int) -> WaveguidePath:
        """Waveguide path from ``source_oni`` to ``destination_oni``.

        The path follows the single propagation direction of the ring; a path
        from an ONI to itself is rejected because the architecture never routes
        a communication between a core and itself.
        """
        self._check_oni(source_oni)
        self._check_oni(destination_oni)
        if source_oni == destination_oni:
            raise TopologyError("source and destination ONIs must differ")
        segments: List[WaveguideSegment] = []
        current = source_oni
        while current != destination_oni:
            segment = self.segment_after(current)
            segments.append(segment)
            current = segment.destination_oni
        return WaveguidePath.from_segments(segments)

    def hop_count(self, source_oni: int, destination_oni: int) -> int:
        """Number of ring segments between two ONIs in the propagation direction."""
        self._check_oni(source_oni)
        self._check_oni(destination_oni)
        return (destination_oni - source_oni) % self.oni_count

    def crossed_onis(self, source_oni: int, destination_oni: int) -> List[int]:
        """ONIs strictly between source and destination along the path."""
        return self.path(source_oni, destination_oni).intermediate_onis

    #: Map each directed segment to the indices of the paths using it: the
    #: same walk over :meth:`path` as every topology's conflict analysis.
    segment_usage = OnocTopology.segment_usage

    def _check_oni(self, oni_id: int) -> None:
        if not 0 <= oni_id - self.oni_offset < self.oni_count:
            raise TopologyError(f"ONI {oni_id} outside ring with {self.oni_count} ONIs")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RingWaveguide(onis={self.oni_count}, "
            f"circumference={self.circumference_cm:.2f} cm)"
        )
