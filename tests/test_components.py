"""Unit tests for connected components and the GCC choice."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.components import connected_components
from tests.fixture_graphs import ring_edges


def cc(n, edges, **kwargs):
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    return connected_components(n, src, dst, **kwargs)


class TestComponents:
    def test_single_component(self):
        result = cc(3, [(0, 1), (1, 2)])
        assert result.num_components == 1
        assert result.sizes.tolist() == [3]
        assert result.edge_counts.tolist() == [2]

    def test_direction_ignored(self):
        result = cc(3, [(2, 0), (1, 0)])
        assert result.num_components == 1

    def test_two_components(self):
        result = cc(5, [(0, 1), (2, 3)])
        assert result.num_components == 3  # {0,1}, {2,3}, {4}
        assert sorted(result.sizes.tolist()) == [1, 2, 2]

    def test_isolated_vertices_each_own_component(self):
        result = cc(4, [])
        assert result.num_components == 4

    def test_labels_contiguous_by_first_member(self):
        result = cc(4, [(2, 3)])
        assert result.labels.tolist() == [0, 1, 2, 2]

    def test_ring_is_connected(self):
        src, dst = ring_edges(64)
        result = connected_components(64, src, dst)
        assert result.num_components == 1

    def test_edge_counts_partition_edges(self):
        result = cc(6, [(0, 1), (1, 2), (3, 4), (3, 4)])
        assert result.edge_counts.sum() == 4


class TestActiveMask:
    def test_inactive_vertices_excluded(self):
        active = np.array([True, False, True])
        result = cc(3, [(0, 1), (1, 2)], active=active)
        assert result.labels[1] == -1
        # 0 and 2 disconnected once 1 is removed
        assert result.num_components == 2

    def test_mask_length_checked(self):
        with pytest.raises(GraphFormatError):
            cc(3, [(0, 1)], active=np.array([True]))

    def test_all_inactive(self):
        result = cc(2, [(0, 1)], active=np.zeros(2, dtype=bool))
        assert result.num_components == 0


class TestGiantComponent:
    def test_gcc_by_edges(self):
        # component {0,1,2} has 3 edges; {3,4,5,6} has 3 vertices more
        # but same edges -> tie broken by vertex count.
        result = cc(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)])
        gcc = result.giant_component_id(by="edges")
        assert result.sizes[gcc] == 4

    def test_gcc_by_vertices(self):
        result = cc(5, [(0, 1), (0, 2), (3, 4)])
        gcc = result.giant_component_id(by="vertices")
        assert (result.labels == gcc).tolist() == [True, True, True, False, False]

    def test_gcc_unknown_criterion(self):
        result = cc(2, [(0, 1)])
        with pytest.raises(GraphFormatError):
            result.giant_component_id(by="mass")

    def test_gcc_empty_raises(self):
        result = cc(2, [(0, 1)], active=np.zeros(2, dtype=bool))
        with pytest.raises(GraphFormatError):
            result.giant_component_id()

    def test_chain_components_converge(self):
        # Long path stresses the pointer-jumping convergence.
        n = 500
        src = np.arange(n - 1, dtype=np.int64)
        dst = src + 1
        result = connected_components(n, src, dst)
        assert result.num_components == 1
        assert result.sizes[0] == n
