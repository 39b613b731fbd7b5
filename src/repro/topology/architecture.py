"""Aggregate ring-based WDM ONoC architecture.

:class:`RingOnocArchitecture` ties together the physical tile layout, the ring
waveguide, the WDM wavelength grid and one Optical Network Interface per core.
It is the object every higher-level model (power loss, scheduling, wavelength
allocation, simulation) receives.  The paper's *Architecture Characterization
Graph* (ACG, Definition 2) is its ring: the cores are the vertices and
:attr:`RingWaveguide.segments` the edges, each with its length and bends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from ..devices.waveguide import WaveguidePath
from .base import OnocTopology
from .layout import TileLayout
from .registry import TOPOLOGIES
from .ring import RingWaveguide

__all__ = ["RingOnocArchitecture"]


@TOPOLOGIES.register("ring")
@dataclass(repr=False)
class RingOnocArchitecture(OnocTopology):
    """Single serpentine ring of the source paper (the default).

    A ring-based WDM ONoC with one ONI per IP core.  Instances are normally
    created through :meth:`grid`, which mirrors the paper's 4x4 arrangement
    (``RingOnocArchitecture.grid(4, 4, wavelength_count=8)``).
    """

    ring: RingWaveguide

    @classmethod
    def _option_fields(cls, layout: TileLayout) -> Dict[str, Any]:
        """The ring waveguide visiting the layout's tiles in serpentine order."""
        return {"ring": RingWaveguide(layout=layout)}

    def _build_path(self, source_core: int, destination_core: int) -> WaveguidePath:
        """Follow the ring in its propagation direction."""
        return self.ring.path(source_core, destination_core)

    def describe(self) -> str:
        """One-paragraph human-readable description of the architecture."""
        return (
            f"Ring-based WDM ONoC: {self.layout.rows}x{self.layout.columns} IP cores, "
            f"{self.wavelength_count} wavelengths "
            f"(channel spacing {self.grid_wavelengths.channel_spacing_nm:.3f} nm over "
            f"FSR {self.grid_wavelengths.free_spectral_range_nm} nm), "
            f"ring circumference {self.ring.circumference_cm:.2f} cm."
        )
