"""Unit tests for the aggregate ring ONoC architecture."""

from __future__ import annotations

import pytest

from repro.config import OnocConfiguration
from repro.errors import TopologyError
from repro.topology import RingOnocArchitecture


class TestConstruction:
    def test_grid_builds_one_oni_per_core(self, architecture):
        assert architecture.core_count == 16
        assert len(architecture.onis) == 16
        assert [oni.oni_id for oni in architecture.onis] == list(range(16))

    def test_wavelength_count(self, architecture):
        assert architecture.wavelength_count == 8
        assert architecture.grid_wavelengths.channel_spacing_nm == pytest.approx(1.6)

    def test_with_wavelength_count_copies_geometry(self, architecture):
        wider = architecture.with_wavelength_count(12)
        assert wider.wavelength_count == 12
        assert wider.core_count == architecture.core_count
        assert wider.layout.tile_pitch_cm == architecture.layout.tile_pitch_cm

    def test_custom_tile_pitch(self):
        architecture = RingOnocArchitecture.grid(2, 2, wavelength_count=2, tile_pitch_cm=0.5)
        assert architecture.layout.tile_pitch_cm == pytest.approx(0.5)

    def test_describe_mentions_size(self, architecture):
        text = architecture.describe()
        assert "4x4" in text
        assert "8 wavelengths" in text

    def test_oni_lookup_bounds(self, architecture):
        with pytest.raises(TopologyError):
            architecture.oni(16)

    def test_mismatched_oni_count_rejected(self, architecture):
        with pytest.raises(TopologyError):
            RingOnocArchitecture(
                layout=architecture.layout,
                ring=architecture.ring,
                grid_wavelengths=architecture.grid_wavelengths,
                onis=architecture.onis[:-1],
                configuration=architecture.configuration,
            )


class TestPaths:
    def test_path_is_cached(self, architecture):
        first = architecture.path(0, 5)
        second = architecture.path(0, 5)
        assert first is second

    def test_hop_count_matches_layout(self, architecture):
        assert architecture.hop_count(0, 5) == 5
        assert architecture.hop_count(5, 0) == 11

    def test_crossed_oni_count(self, architecture):
        assert architecture.crossed_oni_count(0, 1) == 0
        assert architecture.crossed_oni_count(0, 5) == 4

    def test_crossed_off_ring_count(self, architecture):
        # 4 intermediate ONIs x 8 rings + 7 non-resonant rings at the destination.
        assert architecture.crossed_off_ring_count(0, 5) == 4 * 8 + 7

    def test_reset_network_state(self, architecture):
        architecture.oni(3).activate_receiver(1)
        architecture.reset_network_state()
        assert architecture.oni(3).active_ring_count() == 0


class TestCharacterizationGraph:
    """The ACG of Definition 2: the cores, joined by the ring's segments."""

    def test_acg_is_a_single_cycle(self, architecture):
        segments = architecture.ring.segments
        assert len(segments) == 16
        successor = {segment.source_oni: segment.destination_oni for segment in segments}
        assert sorted(successor) == sorted(successor.values()) == list(range(16))
        visited = [0]
        while successor[visited[-1]] != 0:
            visited.append(successor[visited[-1]])
        assert sorted(visited) == list(range(16))

    def test_acg_edges_carry_geometry(self, architecture):
        for segment in architecture.ring.segments:
            assert segment.length_cm > 0.0
            assert segment.bend_count >= 0

    def test_acg_nodes_carry_coordinates(self, architecture):
        first = architecture.ring.segments[0].source_oni
        coordinate = architecture.layout.coordinate_of(first)
        assert (first, coordinate.row, coordinate.column) == (0, 0, 0)

    def test_segment_usage_delegates_to_ring(self, architecture):
        usage = architecture.segment_usage([(0, 3), (1, 4)])
        assert usage[(1, 2)] == [0, 1]
