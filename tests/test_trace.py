"""Unit tests for SpMV trace generation."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.address_space import AddressSpace, Region
from repro.sim.trace import concatenate_traces, spmv_trace


class TestPullTrace:
    def test_one_random_access_per_edge(self, tiny_graph):
        trace = spmv_trace(tiny_graph)
        assert trace.num_random_accesses == tiny_graph.num_edges

    def test_random_reads_target_in_neighbours(self, tiny_graph):
        trace = spmv_trace(tiny_graph)
        mask = trace.random_mask()
        # every (proc, read) pair must be an edge read -> proc
        for u, v in zip(trace.read_vertex[mask], trace.proc_vertex[mask]):
            assert u in tiny_graph.in_adj.neighbours(int(v)).tolist()

    def test_random_lines_are_data_region(self, tiny_graph):
        trace = spmv_trace(tiny_graph)
        mask = trace.random_mask()
        regions = trace.space.region_of_lines(trace.lines[mask])
        assert (regions == Region.VERTEX_DATA).all()

    def test_processing_order_is_vertex_order(self, two_hop_ring):
        trace = spmv_trace(two_hop_ring)
        mask = trace.random_mask()
        procs = trace.proc_vertex[mask]
        assert (np.diff(procs) >= 0).all()

    def test_non_random_accesses_have_no_read_vertex(self, tiny_graph):
        trace = spmv_trace(tiny_graph)
        other = ~trace.random_mask()
        assert (trace.read_vertex[other] == -1).all()

    def test_vertex_range_slices(self, two_hop_ring):
        full = spmv_trace(two_hop_ring)
        left = spmv_trace(two_hop_ring, vertex_range=(0, 8))
        right = spmv_trace(two_hop_ring, vertex_range=(8, 16))
        assert (
            left.num_random_accesses + right.num_random_accesses
            == full.num_random_accesses
        )
        assert left.proc_vertex[left.random_mask()].max() < 8

    def test_bad_vertex_range(self, tiny_graph):
        with pytest.raises(SimulationError):
            spmv_trace(tiny_graph, vertex_range=(4, 2))
        with pytest.raises(SimulationError):
            spmv_trace(tiny_graph, vertex_range=(0, 99))

    def test_empty_range(self, tiny_graph):
        trace = spmv_trace(tiny_graph, vertex_range=(2, 2))
        assert len(trace) == 0

    def test_promotion_doubles_sequential_lines(self, two_hop_ring):
        """Each newly-entered edges line is emitted twice, back to back."""
        trace = spmv_trace(two_hop_ring)
        edge_lines = trace.lines[trace.kinds == Region.EDGES]
        pairs = edge_lines.reshape(-1, 2)
        np.testing.assert_array_equal(pairs[:, 0], pairs[:, 1])
        assert np.all(np.diff(pairs[:, 0]) > 0)
        first = int(np.flatnonzero(trace.kinds == Region.EDGES)[0])
        assert trace.lines[first] == trace.lines[first + 1]

    def test_interleaving_edges_before_data(self, ring_graph):
        """Program order: a vertex's edges access precedes its data reads."""
        trace = spmv_trace(ring_graph)
        kinds = trace.kinds.tolist()
        first_edge = kinds.index(Region.EDGES)
        first_data = kinds.index(Region.VERTEX_DATA)
        assert first_edge < first_data


class TestPushTrace:
    def test_push_random_writes_out_region(self, tiny_graph):
        trace = spmv_trace(tiny_graph, direction="push")
        mask = trace.kinds == Region.VERTEX_OUT
        assert mask.sum() >= tiny_graph.num_edges

    def test_push_random_targets_out_neighbours(self, tiny_graph):
        trace = spmv_trace(tiny_graph, direction="push")
        mask = (trace.kinds == Region.VERTEX_OUT) & (trace.read_vertex >= 0)
        assert int(mask.sum()) == tiny_graph.num_edges
        for u, v in zip(trace.read_vertex[mask], trace.proc_vertex[mask]):
            assert u in tiny_graph.out_adj.neighbours(int(v)).tolist()

    def test_unknown_direction(self, tiny_graph):
        with pytest.raises(SimulationError):
            spmv_trace(tiny_graph, direction="sideways")


class TestConcatenate:
    def test_concatenate(self, tiny_graph):
        space = AddressSpace(tiny_graph.num_vertices, tiny_graph.num_edges)
        a = spmv_trace(tiny_graph, space, vertex_range=(0, 3))
        b = spmv_trace(tiny_graph, space, vertex_range=(3, 6))
        joined = concatenate_traces([a, b])
        assert len(joined) == len(a) + len(b)
        assert joined.num_random_accesses == tiny_graph.num_edges

    def test_concatenate_empty_list(self):
        with pytest.raises(SimulationError):
            concatenate_traces([])

    def test_mismatched_spaces_rejected(self, tiny_graph, ring_graph):
        a = spmv_trace(tiny_graph)
        b = spmv_trace(ring_graph)
        with pytest.raises(SimulationError):
            concatenate_traces([a, b])
