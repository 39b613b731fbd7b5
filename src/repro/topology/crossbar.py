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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import OnocConfiguration, PhotonicParameters
from ..devices.waveguide import WaveguidePath, WaveguideSegment
from ..devices.wavelength_grid import WavelengthGrid
from ..errors import TopologyError
from .base import generic_segment_usage
from .layout import TileLayout
from .oni import OpticalNetworkInterface

__all__ = ["CrossbarOnocArchitecture"]

#: Default insertion loss of one passive waveguide crossing (dB, negative).
DEFAULT_CROSSING_LOSS_DB = -0.05


@dataclass
class CrossbarOnocArchitecture:
    """An ``N x N`` optical crossbar with one row and one column waveguide per core.

    Instances are normally created through :meth:`grid`
    (``CrossbarOnocArchitecture.grid(4, 4, wavelength_count=8)``).
    """

    layout: TileLayout
    crossing_loss_db: float
    grid_wavelengths: WavelengthGrid
    onis: Tuple[OpticalNetworkInterface, ...]
    configuration: OnocConfiguration = field(default_factory=OnocConfiguration)
    _path_cache: Dict[Tuple[int, int], WaveguidePath] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        if self.crossing_loss_db > 0.0:
            raise TopologyError("crossing loss must be <= 0 dB (attenuation)")
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
        cls,
        rows: int,
        columns: int,
        wavelength_count: int,
        configuration: Optional[OnocConfiguration] = None,
        tile_pitch_cm: Optional[float] = None,
        crossing_loss_db: float = DEFAULT_CROSSING_LOSS_DB,
    ) -> "CrossbarOnocArchitecture":
        """Build a crossbar joining the cores of a ``rows x columns`` tile grid."""
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
            for core_id in layout.core_ids()
        )
        return cls(
            layout=layout,
            crossing_loss_db=float(crossing_loss_db),
            grid_wavelengths=grid_wavelengths,
            onis=onis,
            configuration=configuration,
        )

    def with_wavelength_count(self, wavelength_count: int) -> "CrossbarOnocArchitecture":
        """A fresh copy of this crossbar carrying a different number of wavelengths."""
        return CrossbarOnocArchitecture.grid(
            rows=self.layout.rows,
            columns=self.layout.columns,
            wavelength_count=wavelength_count,
            configuration=self.configuration,
            tile_pitch_cm=self.layout.tile_pitch_cm,
            crossing_loss_db=self.crossing_loss_db,
        )

    # ------------------------------------------------------------------ sizes
    @property
    def core_count(self) -> int:
        """Number of IP cores (and of ONIs)."""
        return self.layout.core_count

    @property
    def wavelength_count(self) -> int:
        """Number of WDM wavelengths carried per waveguide (``NW``)."""
        return self.grid_wavelengths.count

    def core_ids(self) -> range:
        """Identifiers of every IP core."""
        return self.layout.core_ids()

    def crosspoint(self, row_core: int, column_core: int) -> int:
        """Pseudo-node identifier of the crossing of row ``i`` and column ``j``."""
        self._check_core(row_core)
        self._check_core(column_core)
        return self.core_count + row_core * self.core_count + column_core

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
        """Waveguide path: along row ``source``, turn at the crosspoint, down column ``destination``."""
        key = (source_core, destination_core)
        if key not in self._path_cache:
            self._path_cache[key] = self._build_path(source_core, destination_core)
        return self._path_cache[key]

    def _build_path(self, source_core: int, destination_core: int) -> WaveguidePath:
        self._check_core(source_core)
        self._check_core(destination_core)
        if source_core == destination_core:
            raise TopologyError("source and destination ONIs must differ")
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

    def hop_count(self, source_core: int, destination_core: int) -> int:
        """Number of waveguide segments between two cores."""
        return len(self.path(source_core, destination_core).segments)

    def crossed_oni_count(self, source_core: int, destination_core: int) -> int:
        """Number of foreign ONIs a crossbar signal crosses: always zero."""
        self._check_core(source_core)
        self._check_core(destination_core)
        return 0

    def crossed_oni_ids(self, source_core: int, destination_core: int) -> List[int]:
        """ONIs whose receiver rings the signal passes non-resonantly: none."""
        self._check_core(source_core)
        self._check_core(destination_core)
        return []

    def crossed_off_ring_count(self, source_core: int, destination_core: int) -> int:
        """Micro-rings crossed in pass-through: the destination's ``NW - 1`` only."""
        self._check_core(source_core)
        self._check_core(destination_core)
        return self.wavelength_count - 1

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

    # -------------------------------------------------------------- conflicts
    def segment_usage(
        self, endpoints: Sequence[Tuple[int, int]]
    ) -> Dict[Tuple[int, int], List[int]]:
        """Directed-segment usage over the row/column waveguides."""
        return generic_segment_usage(self, endpoints)

    def describe(self) -> str:
        """One-paragraph human-readable description of the crossbar."""
        return (
            f"Optical crossbar ONoC: {self.core_count} IP cores "
            f"({self.layout.rows}x{self.layout.columns} tiles), "
            f"{self.wavelength_count} wavelengths, worst-case "
            f"{self.worst_case_crossing_count()} waveguide crossings at "
            f"{self.crossing_loss_db:g} dB each."
        )

    # ---------------------------------------------------------------- helpers
    def _check_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.core_count:
            raise TopologyError(
                f"core {core_id} outside architecture with {self.core_count} cores"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CrossbarOnocArchitecture(cores={self.core_count}, "
            f"wavelengths={self.wavelength_count})"
        )
