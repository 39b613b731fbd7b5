"""Li-style optical crossbar ONoC with worst-case-loss path analysis.

Following Li et al.'s comparative studies of on-chip optical crossbars, every
core owns a dedicated *injection* (row) waveguide and a dedicated *reception*
(column) waveguide; the two sets cross in an ``N x N`` matrix of passive
waveguide crossings.  A signal from core ``i`` to core ``j`` travels row ``i``
across ``j`` crossings, turns at crosspoint ``(i, j)``, and descends column
``j`` through ``N - 1 - i`` further crossings to the destination's receiver
bank — so the worst-case path suffers ``2 (N - 1)`` crossings, the quantity
Li's loss analysis is built around (:meth:`CrossbarOnocArchitecture.crossing_count`
/ :meth:`worst_case_crossing_count`).

The crossbar crosses no foreign ONI: the only micro-rings on a signal's way
are the destination's own ``NW - 1`` non-resonant receivers, while the
crossing losses are reported through :meth:`extra_path_loss_db`.  Paths are
materialised as ordinary :class:`~repro.devices.waveguide.WaveguidePath`
chains whose interior nodes are *crosspoint* pseudo-nodes (identifiers ``>=
core_count``), which makes directed-segment conflict analysis exact: two
communications share waveguide precisely when they leave the same source
(shared row) or enter the same destination (shared column).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..config import PhotonicParameters
from ..devices.waveguide import WaveguidePath, WaveguideSegment
from ..errors import TopologyError
from .base import OnocTopology
from .layout import TileLayout
from .registry import TOPOLOGIES

__all__ = ["CrossbarOnocArchitecture"]

#: Default insertion loss of one passive waveguide crossing (dB, negative).
DEFAULT_CROSSING_LOSS_DB = -0.05


@TOPOLOGIES.register("crossbar")
@dataclass(repr=False)
class CrossbarOnocArchitecture(OnocTopology):
    """Li-style optical crossbar (dedicated row/column waveguides, passive crossings).

    An ``N x N`` optical crossbar with one row and one column waveguide per
    core.  Instances are normally created through :meth:`grid`
    (``CrossbarOnocArchitecture.grid(4, 4, wavelength_count=8)``).
    """

    crossing_loss_db: float

    def __post_init__(self) -> None:
        if self.crossing_loss_db > 0.0:
            raise TopologyError("crossing loss must be <= 0 dB (attenuation)")
        super().__post_init__()

    @classmethod
    def _option_fields(
        cls, layout: TileLayout, crossing_loss_db: float = DEFAULT_CROSSING_LOSS_DB
    ) -> Dict[str, Any]:
        """The insertion loss of one passive waveguide crossing."""
        del layout
        return {"crossing_loss_db": float(crossing_loss_db)}

    def crosspoint(self, row_core: int, column_core: int) -> int:
        """Pseudo-node identifier of the crossing of row ``i`` and column ``j``."""
        self._check_core(row_core)
        self._check_core(column_core)
        return self.core_count + row_core * self.core_count + column_core

    # ------------------------------------------------------------------ paths
    def _build_path(self, source_core: int, destination_core: int) -> WaveguidePath:
        """Along row ``source``, turn at the crosspoint, down column ``destination``."""
        count = self.core_count
        pitch = self.layout.tile_pitch_cm
        i, j = source_core, destination_core
        nodes: List[int] = [i]
        # Row waveguide of source i: crosspoints (i, 0) .. (i, j).
        nodes.extend(self.crosspoint(i, column) for column in range(j + 1))
        # Column waveguide of destination j: crosspoints (i+1, j) .. (N-1, j).
        nodes.extend(self.crosspoint(row, j) for row in range(i + 1, count))
        nodes.append(j)
        segments = []
        for index, (upstream, downstream) in enumerate(zip(nodes, nodes[1:])):
            # The single 90-degree redirection happens when the signal leaves
            # its turning crosspoint (i, j) onto the column waveguide.
            turning = nodes[index] == self.crosspoint(i, j)
            segments.append(
                WaveguideSegment(
                    source_oni=upstream,
                    destination_oni=downstream,
                    length_cm=pitch,
                    bend_count=1 if turning else 0,
                )
            )
        return WaveguidePath.from_segments(segments)

    def crossed_oni_ids(self, source_core: int, destination_core: int) -> List[int]:
        """ONIs whose receiver rings the signal passes non-resonantly: none.

        So the only rings crossed in pass-through are the destination's
        ``NW - 1`` non-resonant receivers.
        """
        self._check_core(source_core)
        self._check_core(destination_core)
        return []

    # -------------------------------------------------------------- crossings
    def crossing_count(self, source_core: int, destination_core: int) -> int:
        """Passive waveguide crossings traversed by a signal (Li's loss metric).

        ``destination`` crossings on the row before the turn plus
        ``N - 1 - source`` on the column after it.
        """
        self._check_core(source_core)
        self._check_core(destination_core)
        return destination_core + (self.core_count - 1 - source_core)

    def worst_case_crossing_count(self) -> int:
        """Crossings of the longest path: ``2 (N - 1)``."""
        return 2 * (self.core_count - 1)

    # ----------------------------------------------------------------- losses
    def extra_path_loss_db(
        self,
        source_core: int,
        destination_core: int,
        parameters: Optional[PhotonicParameters] = None,
    ) -> float:
        """Accumulated waveguide-crossing loss of the path."""
        del parameters
        return self.crossing_count(source_core, destination_core) * self.crossing_loss_db

    def crosstalk_path_loss_db(
        self,
        source_core: int,
        destination_core: int,
        victim_destination: int,
        parameters: PhotonicParameters,
    ) -> Optional[float]:
        """Aggressor loss at the victim's drop ONI (``None`` when unreachable).

        Row and column waveguides are dedicated, so an aggressor only reaches
        a victim's receiver bank when both target the *same* destination core
        (they share that core's column waveguide); a transmitter never leaks
        into its own core's receivers.
        """
        if destination_core != victim_destination:
            return None
        path = self.path(source_core, destination_core)
        return path.total_waveguide_loss_db(parameters) + self.extra_path_loss_db(
            source_core, destination_core
        )

    def describe(self) -> str:
        """One-paragraph human-readable description of the crossbar."""
        return (
            f"Optical crossbar ONoC: {self.core_count} IP cores "
            f"({self.layout.rows}x{self.layout.columns} tiles), "
            f"{self.wavelength_count} wavelengths, worst-case "
            f"{self.worst_case_crossing_count()} waveguide crossings at "
            f"{self.crossing_loss_db:g} dB each."
        )
