"""Unit tests for the Graph container."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.csr import Adjacency
from repro.graph.graph import Graph
from repro.graph.permute import random_permutation
from repro.graph.validate import validate_graph


class TestConstruction:
    def test_from_edges_shapes(self, tiny_graph):
        assert tiny_graph.num_vertices == 6
        assert tiny_graph.num_edges == 7

    def test_csc_mirrors_csr(self, tiny_graph):
        # in-neighbours of 0 are 2 and 5
        assert tiny_graph.in_adj.neighbours(0).tolist() == [2, 5]
        assert tiny_graph.out_adj.neighbours(0).tolist() == [1, 2]

    def test_mismatched_vertex_counts_rejected(self):
        a = Adjacency.from_edges(2, np.array([0]), np.array([1]))
        b = Adjacency.from_edges(3, np.array([1]), np.array([0]))
        with pytest.raises(GraphFormatError):
            Graph(a, b)

    def test_mismatched_edge_counts_rejected(self):
        a = Adjacency.from_edges(2, np.array([0]), np.array([1]))
        b = Adjacency.from_edges(2, np.array([], dtype=np.int64),
                                 np.array([], dtype=np.int64))
        with pytest.raises(GraphFormatError):
            Graph(a, b)


class TestDegrees:
    def test_in_out_degrees(self, tiny_graph):
        assert tiny_graph.out_degrees().tolist() == [2, 1, 1, 1, 1, 1]
        assert tiny_graph.in_degrees().tolist() == [2, 1, 2, 1, 1, 0]

    def test_total_degrees(self, tiny_graph):
        total = tiny_graph.total_degrees()
        assert total.tolist() == [4, 2, 3, 2, 2, 1]

    def test_average_degree(self, tiny_graph):
        assert tiny_graph.average_degree == pytest.approx(7 / 6)

    def test_average_degree_empty(self):
        g = Graph.from_edges(0, np.array([], dtype=np.int64),
                             np.array([], dtype=np.int64))
        assert g.average_degree == 0.0

    def test_hub_threshold(self, tiny_graph):
        assert tiny_graph.hub_threshold == pytest.approx(np.sqrt(6))

    def test_star_in_hub(self, star_graph):
        assert star_graph.in_hubs().tolist() == [0]
        assert star_graph.out_hubs().tolist() == []

    def test_degree_masks(self, star_graph):
        hdv = star_graph.high_degree_mask("in")
        assert hdv.tolist() == [True] + [False] * 19
        assert (~star_graph.low_degree_mask("in") == hdv).all()

    def test_unknown_direction(self, tiny_graph):
        with pytest.raises(GraphFormatError):
            tiny_graph._degrees("sideways")


class TestPermuted:
    def test_permuted_preserves_structure(self, tiny_graph):
        perm = random_permutation(6, seed=1)
        g2 = tiny_graph.permuted(perm)
        validate_graph(g2)
        assert g2.num_edges == tiny_graph.num_edges
        # edge (0, 1) becomes (perm[0], perm[1])
        assert perm[1] in g2.out_adj.neighbours(perm[0]).tolist()

    def test_permuted_degree_multiset_invariant(self, tiny_graph):
        perm = random_permutation(6, seed=2)
        g2 = tiny_graph.permuted(perm)
        assert sorted(g2.in_degrees().tolist()) == sorted(
            tiny_graph.in_degrees().tolist()
        )

    def test_permuted_rejects_bad_relabeling(self, tiny_graph):
        from repro.errors import PermutationError

        with pytest.raises(PermutationError):
            tiny_graph.permuted(np.zeros(6, dtype=np.int64))

    def test_identity_permutation_is_noop(self, tiny_graph):
        g2 = tiny_graph.permuted(np.arange(6))
        assert g2 == tiny_graph


class TestReversed:
    def test_reversed_swaps_directions(self, tiny_graph):
        r = tiny_graph.reversed()
        assert r.in_degrees().tolist() == tiny_graph.out_degrees().tolist()
        assert r.out_degrees().tolist() == tiny_graph.in_degrees().tolist()

    def test_double_reverse(self, tiny_graph):
        assert tiny_graph.reversed().reversed() == tiny_graph

    def test_not_hashable(self, tiny_graph):
        with pytest.raises(TypeError):
            hash(tiny_graph)

    def test_repr_contains_name(self, tiny_graph):
        assert "tiny" in repr(tiny_graph)
