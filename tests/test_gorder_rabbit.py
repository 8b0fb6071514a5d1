"""Unit tests for GOrder and Rabbit-Order."""

import numpy as np
import pytest

from repro.errors import ReorderingError
from repro.core import aid_per_vertex
from repro.graph.graph import Graph
from repro.graph.permute import invert_permutation, is_permutation
from repro.graph.validate import validate_graph
from repro.reorder.gorder import GOrder
from repro.reorder.rabbit import RabbitOrder


def graph_of(n, edges):
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    return Graph.from_edges(n, src, dst)


class TestGOrder:
    def test_valid_permutation(self, small_social):
        result = GOrder()(small_social)
        assert is_permutation(result.relabeling, small_social.num_vertices)
        validate_graph(result.apply(small_social))

    def test_starts_from_max_degree(self, star_graph):
        result = GOrder()(star_graph)
        assert result.relabeling[0] == 0

    def test_siblings_placed_adjacently(self):
        # 1 and 2 share both in-neighbours 3 and 4; 5 is unrelated.
        g = graph_of(6, [(3, 1), (3, 2), (4, 1), (4, 2), (3, 4), (5, 0), (0, 5)])
        result = GOrder(window=3)(g)
        new_ids = result.relabeling
        assert abs(int(new_ids[1]) - int(new_ids[2])) <= 2

    def test_window_validation(self):
        with pytest.raises(ReorderingError):
            GOrder(window=0)

    def test_disconnected_graph_completes(self):
        g = graph_of(6, [(0, 1), (2, 3), (4, 5)])
        result = GOrder()(g)
        assert is_permutation(result.relabeling, 6)

    def test_deterministic(self, small_social):
        a = GOrder()(small_social).relabeling
        b = GOrder()(small_social).relabeling
        assert np.array_equal(a, b)

    def test_details_recorded(self, small_social):
        result = GOrder(window=4)(small_social)
        assert result.details["window"] == 4
        assert result.details["huge_threshold"] > 0

    def test_huge_threshold_override(self, small_social):
        result = GOrder(huge_threshold=10)(small_social)
        assert result.details["huge_threshold"] == 10


class TestRabbitOrder:
    def test_valid_permutation(self, small_web):
        result = RabbitOrder()(small_web)
        assert is_permutation(result.relabeling, small_web.num_vertices)
        validate_graph(result.apply(small_web))

    def test_planted_communities_made_contiguous(self, community_graph):
        result = RabbitOrder()(community_graph)
        relabeled = community_graph.permuted(result.relabeling)
        # new IDs within a planted block should be much closer than random
        before = np.nanmean(aid_per_vertex(community_graph))
        from repro.graph.permute import random_permutation

        scrambled = community_graph.permuted(
            random_permutation(community_graph.num_vertices, seed=1)
        )
        after = np.nanmean(aid_per_vertex(relabeled))
        random_aid = np.nanmean(aid_per_vertex(scrambled))
        assert after < 0.5 * random_aid
        assert after <= before * 1.2

    def test_merges_happen(self, community_graph):
        result = RabbitOrder()(community_graph)
        assert result.details["num_merges"] > community_graph.num_vertices / 2
        assert result.details["num_top_level"] >= 1

    def test_seed_changes_output(self, small_web):
        a = RabbitOrder(seed=0)(small_web).relabeling
        b = RabbitOrder(seed=1)(small_web).relabeling
        assert not np.array_equal(a, b)

    def test_seed_deterministic(self, small_web):
        a = RabbitOrder(seed=5)(small_web).relabeling
        b = RabbitOrder(seed=5)(small_web).relabeling
        assert np.array_equal(a, b)

    def test_community_members_adjacent_ids(self):
        # two cliques joined by one edge: each clique one community
        edges = []
        for block in (range(0, 4), range(4, 8)):
            block = list(block)
            edges.extend(
                (u, v) for u in block for v in block if u != v
            )
        edges.append((0, 4))
        g = graph_of(8, edges)
        result = RabbitOrder()(g)
        ids = result.relabeling
        spread_a = ids[:4].max() - ids[:4].min()
        spread_b = ids[4:].max() - ids[4:].min()
        assert spread_a == 3
        assert spread_b == 3

    def test_max_community_weight_cap(self):
        with pytest.raises(ReorderingError):
            RabbitOrder(max_community_weight=0)

    def test_cap_limits_merging(self, community_graph):
        unlimited = RabbitOrder()(community_graph)
        capped = RabbitOrder(max_community_weight=10.0)(community_graph)
        assert (
            capped.details["num_merges"] < unlimited.details["num_merges"]
        )

    def test_edgeless_graph(self):
        g = graph_of(3, [(0, 0)])  # only a self loop
        result = RabbitOrder()(g)
        assert is_permutation(result.relabeling, 3)

    def test_self_loops_tolerated(self):
        g = graph_of(4, [(0, 0), (0, 1), (1, 0), (2, 3), (3, 2)])
        result = RabbitOrder()(g)
        assert is_permutation(result.relabeling, 4)
