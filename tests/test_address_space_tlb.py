"""Unit tests for the simulated address space and the TLB."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.address_space import AddressSpace, Region
from repro.sim.tlb import TLBConfig, lines_to_pages, simulate_tlb


class TestAddressSpace:
    def test_regions_do_not_overlap(self):
        space = AddressSpace(num_vertices=100, num_edges=1000)
        assert space.offsets_base < space.edges_base
        assert space.edges_base < space.data_base
        assert space.data_base < space.out_base
        assert space.out_base < space.end

    def test_bases_line_aligned(self):
        space = AddressSpace(num_vertices=7, num_edges=13, line_size=64)
        for base in (space.edges_base, space.data_base, space.out_base):
            assert base % 64 == 0

    def test_data_lines_pack_eight_vertices(self):
        space = AddressSpace(num_vertices=100, num_edges=10)
        lines = space.data_lines(np.arange(16))
        assert lines[0] == lines[7]
        assert lines[8] == lines[0] + 1
        assert space.vertices_per_data_line() == 8

    def test_edges_lines_pack_sixteen_edges(self):
        space = AddressSpace(num_vertices=10, num_edges=64)
        lines = space.edges_lines(np.arange(32))
        assert lines[0] == lines[15]
        assert lines[16] == lines[0] + 1

    def test_region_classification(self):
        space = AddressSpace(num_vertices=50, num_edges=200)
        lines = np.concatenate(
            [
                space.offsets_lines(np.array([0])),
                space.edges_lines(np.array([0])),
                space.data_lines(np.array([0])),
                space.out_lines(np.array([0])),
            ]
        )
        assert space.region_of_lines(lines).tolist() == [
            Region.OFFSETS,
            Region.EDGES,
            Region.VERTEX_DATA,
            Region.VERTEX_OUT,
        ]

    def test_region_counts(self):
        space = AddressSpace(num_vertices=50, num_edges=200)
        counts = space.region_counts(space.data_lines(np.array([0, 1, 9])))
        assert counts[Region.VERTEX_DATA] == 3
        assert counts.sum() == 3

    def test_out_of_space_line_rejected(self):
        space = AddressSpace(num_vertices=4, num_edges=4)
        with pytest.raises(SimulationError):
            space.region_of_lines(np.array([10_000_000]))

    def test_rejects_bad_line_size(self):
        with pytest.raises(SimulationError):
            AddressSpace(num_vertices=4, num_edges=4, line_size=100)

    def test_rejects_negative_dimensions(self):
        with pytest.raises(SimulationError):
            AddressSpace(num_vertices=-1, num_edges=4)


class TestTLB:
    def test_config_geometry(self):
        config = TLBConfig(entries=64, ways=4, page_size=4096)
        assert config.num_sets == 16

    def test_rejects_indivisible_ways(self):
        with pytest.raises(SimulationError):
            TLBConfig(entries=10, ways=4)

    def test_rejects_bad_page_size(self):
        with pytest.raises(SimulationError):
            TLBConfig(page_size=1000)

    def test_lines_to_pages(self):
        pages = lines_to_pages(np.array([0, 63, 64, 65]), 64, 4096)
        assert pages.tolist() == [0, 0, 1, 1]

    def test_lines_to_pages_rejects_smaller_page(self):
        with pytest.raises(SimulationError):
            lines_to_pages(np.array([0]), 64, 32)

    def test_miss_counting(self):
        config = TLBConfig(entries=4, ways=4, page_size=64)
        # page per line (page_size == line_size); 5 distinct pages in a
        # 4-entry TLB.
        out = simulate_tlb(np.arange(5, dtype=np.int64), 64, config)
        assert out.num_misses == 5
        out = simulate_tlb(np.array([0, 0, 0], dtype=np.int64), 64, config)
        assert out.num_misses == 1

    def test_scaled_for_reach(self):
        config = TLBConfig.scaled_for(100_000)
        reach = config.entries * config.page_size
        assert reach >= 2.0 * 100_000 * 8 / 2  # power-of-two rounding slack
