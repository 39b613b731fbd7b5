"""Literal goldens for the geometry every registered topology derives from its paths.

Each configuration pins two things: the static worst-case link loss, as a
literal float, and a SHA-256 over every core pair's segment keys, segment
lengths and bends, hop count, crossed ONIs, crossed OFF-ring count, extra
path loss and the crosstalk reach of the pair at every victim ONI.  Any
change to how a topology is built, routed or charged moves one of them.

The file also pins what ``with_wavelength_count`` keeps of a topology's
options, and what a new topology inherits from :class:`OnocTopology` when it
defines only ``_build_path`` and ``describe``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.devices.waveguide import WaveguidePath, WaveguideSegment
from repro.errors import TopologyError
from repro.topology import OnocTopology, build_topology, worst_case_link_loss_db

#: Topology name and options of every pinned configuration.
CONFIGURATIONS = {
    "ring": ("ring", {}),
    "multi_ring_2": ("multi_ring", {"layers": 2}),
    "multi_ring_3": ("multi_ring", {"layers": 3, "pillar": 2, "coupler_loss_db": -0.5}),
    "crossbar": ("crossbar", {}),
    "crossbar_lossy": ("crossbar", {"crossing_loss_db": -0.2}),
}

#: Grid shapes (rows, columns, wavelengths) every configuration is pinned at.
SHAPES = {"4x4_nw8": (4, 4, 8), "2x3_nw4": (2, 3, 4)}

#: (configuration, shape) -> (worst-case link loss in dB, geometry digest).
GOLDENS = {
    ("ring", "4x4_nw8"): (
        -2.2266,
        "3f246b3ad91143831ed0823449522d8c2d8b2acee52c1d5ffcaf2baaa60ac98a",
    ),
    ("multi_ring_2", "4x4_nw8"): (
        -4.868874,
        "bee9b117704d78491b749f7fc6f16803bdc8590e00c125e724b2281400c230bc",
    ),
    ("multi_ring_3", "4x4_nw8"): (
        -5.038748,
        "4c37f27e8bcf52056dd445f4db397f352e4fb65115bcfd669e26b6281cb38b8d",
    ),
    ("crossbar", "4x4_nw8"): (
        -3.7935999999999988,
        "ba285393c93947a84224723ac8b27a45ac3a6e6549707b4a589e25a964668a81",
    ),
    ("crossbar_lossy", "4x4_nw8"): (
        -8.293599999999998,
        "0c937bbdca30e198831897b7a2ed22aca35650df4f8ab43c47a92b76058464f0",
    ),
    ("ring", "2x3_nw4"): (
        -0.9490000000000001,
        "53fb68bce0ba9876c4a46bd0303270871724bc2443a8ede1a4b76d35aa77972c",
    ),
    ("multi_ring_2", "2x3_nw4"): (
        -2.403274,
        "f6851020aaad04747a8e733d195f362dcf18ce3261af30842584b675bbb42320",
    ),
    ("multi_ring_3", "2x3_nw4"): (
        -2.433548,
        "94e57c7e7a432f96061adb52a801096a55f1b685c0f198ac501a8dcc015dffd3",
    ),
    ("crossbar", "2x3_nw4"): (
        -1.6776,
        "ba1c85108e5a8c19124246e501f4077a3f14d56271251ff03a452c6ba5eb0e6b",
    ),
    ("crossbar_lossy", "2x3_nw4"): (
        -3.1776,
        "3838accd0b5bd61f87833f475937a822a128af03bf7fd32098ca34a78f051259",
    ),
}


def _build(configuration: str, shape: str):
    name, options = CONFIGURATIONS[configuration]
    rows, columns, wavelengths = SHAPES[shape]
    return build_topology(name, rows, columns, wavelengths, options=options)


def geometry_digest(topology) -> str:
    """SHA-256 over everything the topology derives from each core pair's path."""
    parameters = topology.configuration.photonic
    cores = list(topology.core_ids())
    digest = hashlib.sha256()
    for source in cores:
        for destination in cores:
            if source == destination:
                continue
            path = topology.path(source, destination)
            record = [
                source,
                destination,
                [
                    [
                        segment.source_oni,
                        segment.destination_oni,
                        segment.length_cm,
                        segment.bend_count,
                    ]
                    for segment in path.segments
                ],
                topology.hop_count(source, destination),
                topology.crossed_oni_ids(source, destination),
                topology.crossed_off_ring_count(source, destination),
                topology.extra_path_loss_db(source, destination, parameters),
                [
                    topology.crosstalk_path_loss_db(source, destination, victim, parameters)
                    for victim in cores
                ],
            ]
            digest.update(json.dumps(record).encode("utf-8") + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("configuration, shape", sorted(GOLDENS))
def test_worst_case_link_loss_is_pinned(configuration, shape):
    expected, _ = GOLDENS[(configuration, shape)]
    assert worst_case_link_loss_db(_build(configuration, shape)) == expected


@pytest.mark.parametrize("configuration, shape", sorted(GOLDENS))
def test_path_geometry_is_pinned(configuration, shape):
    _, expected = GOLDENS[(configuration, shape)]
    assert geometry_digest(_build(configuration, shape)) == expected


class TestWithWavelengthCount:
    def test_multi_ring_copy_keeps_its_stack(self):
        stack = _build("multi_ring_3", "2x3_nw4")
        wider = stack.with_wavelength_count(8)
        assert type(wider) is type(stack)
        assert wider.wavelength_count == 8
        assert (wider.layer_count, wider.pillar, wider.coupler_loss_db) == (3, 2, -0.5)
        assert wider.layer_pitch_cm == stack.layer_pitch_cm
        assert wider.core_count == stack.core_count == 18
        assert [oni.grid.count for oni in wider.onis] == [8] * 18
        assert geometry_digest(wider.with_wavelength_count(4)) == geometry_digest(stack)

    def test_crossbar_copy_keeps_its_crossing_loss(self):
        crossbar = _build("crossbar_lossy", "2x3_nw4")
        wider = crossbar.with_wavelength_count(8)
        assert type(wider) is type(crossbar)
        assert wider.wavelength_count == 8
        assert wider.crossing_loss_db == -0.2
        assert geometry_digest(wider.with_wavelength_count(4)) == geometry_digest(crossbar)


class _LineBus(OnocTopology):
    """A bidirectional bus visiting the cores in id order, one tile pitch apart."""

    def _build_path(self, source_core: int, destination_core: int) -> WaveguidePath:
        step = 1 if destination_core > source_core else -1
        return WaveguidePath.from_segments(
            WaveguideSegment(
                source_oni=core,
                destination_oni=core + step,
                length_cm=self.layout.tile_pitch_cm,
                bend_count=0,
            )
            for core in range(source_core, destination_core, step)
        )

    def describe(self) -> str:
        return f"line bus of {self.core_count} cores"


class TestSubclassDefaults:
    """A topology defining only its routing and description gets the rest."""

    @pytest.fixture
    def bus(self) -> _LineBus:
        return _LineBus.grid(2, 3, wavelength_count=4)

    def test_grid_builds_one_oni_per_core(self, bus):
        assert isinstance(bus, OnocTopology)
        assert bus.core_count == 6 and list(bus.core_ids()) == list(range(6))
        assert [oni.oni_id for oni in bus.onis] == list(range(6))
        assert bus.wavelength_count == 4
        assert bus.describe() == "line bus of 6 cores"

    def test_paths_are_cached_and_checked(self, bus):
        assert bus.path(0, 3) is bus.path(0, 3)
        assert bus.path(4, 1).onis == [4, 3, 2, 1]
        with pytest.raises(TopologyError):
            bus.path(2, 2)
        with pytest.raises(TopologyError):
            bus.path(0, 6)
        with pytest.raises(TopologyError):
            bus.oni(6)

    def test_path_derived_counts_are_ring_routed(self, bus):
        assert bus.hop_count(0, 5) == 5
        assert bus.crossed_oni_ids(0, 3) == [1, 2]
        assert bus.crossed_oni_count(0, 3) == 2
        assert bus.crossed_off_ring_count(0, 3) == 2 * 4 + 3
        assert bus.extra_path_loss_db(0, 3) == 0.0

    def test_segment_usage_walks_the_paths(self, bus):
        assert bus.segment_usage([(0, 3), (1, 2), (5, 4)]) == {
            (0, 1): [0],
            (1, 2): [0, 1],
            (2, 3): [0],
            (5, 4): [2],
        }

    def test_crosstalk_reach_is_ring_routed(self, bus):
        parameters = bus.configuration.photonic
        assert bus.crosstalk_path_loss_db(0, 3, 0, parameters) == 0.0
        assert bus.crosstalk_path_loss_db(0, 3, 4, parameters) is None
        expected = (
            bus.path(0, 2).total_waveguide_loss_db(parameters)
            + 1 * 4 * parameters.mr_off_pass_loss_db
        )
        assert bus.crosstalk_path_loss_db(0, 3, 2, parameters) == expected

    def test_with_wavelength_count_and_state(self, bus):
        bus.path(0, 1)
        wider = bus.with_wavelength_count(8)
        assert type(wider) is _LineBus
        assert wider.wavelength_count == 8 and wider._path_cache == {}
        assert wider.onis[0] is not bus.onis[0]
        bus.oni(3).activate_receiver(1)
        bus.reset_network_state()
        assert bus.oni(3).active_ring_count() == 0
        assert worst_case_link_loss_db(bus) < 0.0
