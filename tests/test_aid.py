"""Unit tests for the N2N AID metric (Equation 1 of the paper)."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.core.aid import aid_degree_distribution, aid_per_vertex
from repro.core.binning import log_bins
from repro.graph import Graph


def graph_of(n, edges):
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    return Graph.from_edges(n, src, dst)


class TestPerVertex:
    def test_hand_computed(self):
        # in-neighbours of 0: {1, 4, 9} -> gaps 3, 5 -> AID = 8/3
        g = graph_of(10, [(1, 0), (4, 0), (9, 0)])
        aid = aid_per_vertex(g)
        assert aid[0] == pytest.approx(8 / 3)

    def test_single_neighbour_is_zero(self):
        g = graph_of(3, [(2, 0)])
        assert aid_per_vertex(g)[0] == 0.0

    def test_zero_degree_is_nan(self):
        g = graph_of(3, [(0, 1)])
        aid = aid_per_vertex(g)
        assert np.isnan(aid[0])
        assert np.isnan(aid[2])

    def test_consecutive_neighbours_aid(self):
        # neighbours 5, 6, 7 -> gaps 1, 1 -> AID = 2/3
        g = graph_of(8, [(5, 0), (6, 0), (7, 0)])
        assert aid_per_vertex(g)[0] == pytest.approx(2 / 3)

    def test_out_direction(self):
        g = graph_of(10, [(0, 1), (0, 4), (0, 9)])
        aid = aid_per_vertex(g, direction="out")
        assert aid[0] == pytest.approx(8 / 3)
        assert np.isnan(aid_per_vertex(g)[0])  # no in-neighbours

    def test_unknown_direction(self, tiny_graph):
        with pytest.raises(ReproError):
            aid_per_vertex(tiny_graph, direction="up")

    def test_ring_aid_zero(self, ring_graph):
        # every vertex has exactly one in-neighbour
        aid = aid_per_vertex(ring_graph)
        assert np.nanmax(aid) == 0.0

    def test_lists_do_not_leak_across_vertices(self):
        # vertex 0 in-nb {9}; vertex 1 in-nb {0}: the gap 9 -> 0 must
        # not be attributed anywhere.
        g = graph_of(10, [(9, 0), (0, 1)])
        aid = aid_per_vertex(g)
        assert aid[0] == 0.0
        assert aid[1] == 0.0

    def test_clustering_lowers_aid(self, community_graph):
        from repro.graph.permute import random_permutation

        clustered = np.nanmean(aid_per_vertex(community_graph))
        scrambled_graph = community_graph.permuted(
            random_permutation(community_graph.num_vertices, seed=3)
        )
        scrambled = np.nanmean(aid_per_vertex(scrambled_graph))
        assert clustered < scrambled

    def test_empty_graph(self):
        g = graph_of(4, [])
        assert g.num_vertices == 4
        assert np.isnan(aid_per_vertex(g)).all()


class TestDistribution:
    def test_bins_cover_all_vertices_with_edges(self, community_graph):
        dist = aid_degree_distribution(community_graph)
        in_deg = community_graph.in_degrees()
        assert dist.vertex_counts.sum() == int((in_deg > 0).sum())

    def test_series_drops_empty_bins(self):
        g = graph_of(10, [(1, 0), (4, 0), (9, 0)])
        dist = aid_degree_distribution(g)
        x, y = dist.series()
        assert x.shape == y.shape
        assert not np.isnan(y).any()

    def test_explicit_bins_respected(self, community_graph):
        bins = log_bins(1000)
        dist = aid_degree_distribution(community_graph, bins=bins)
        assert dist.bins is bins

    def test_mean_aid_matches_manual_average(self):
        g = graph_of(12, [(1, 0), (4, 0), (9, 0), (2, 5), (3, 5), (4, 5)])
        dist = aid_degree_distribution(g, bins=log_bins(10))
        idx = dist.bins.index_of(np.array([3]))[0]
        expected = (8 / 3 + 2 / 3) / 2  # AID(0)=8/3, AID(5)=2/3
        assert dist.mean_aid[idx] == pytest.approx(expected)
