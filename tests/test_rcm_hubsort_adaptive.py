"""Unit tests for RCM, HubSort/HubCluster, and adaptive GOrder."""

import numpy as np
import pytest

from repro.errors import ReorderingError
from repro.core.gap import average_gap_profile
from repro.graph.graph import Graph
from repro.graph.permute import invert_permutation, is_permutation
from repro.graph.validate import validate_graph
from repro.reorder import get_algorithm
from repro.reorder.gorder import GOrder
from repro.reorder.hubsort import HubCluster, HubSort
from repro.reorder.rcm import ReverseCuthillMcKee


class TestRCM:
    def test_valid_permutation(self, small_web):
        result = ReverseCuthillMcKee()(small_web)
        assert is_permutation(result.relabeling, small_web.num_vertices)
        validate_graph(result.apply(small_web))

    def test_reduces_bandwidth_of_scrambled_ring(self, ring_graph):
        from repro.graph.permute import random_permutation

        scrambled = ring_graph.permuted(random_permutation(12, seed=2))
        result = ReverseCuthillMcKee()(scrambled)
        reordered = result.apply(scrambled)
        assert (
            average_gap_profile(reordered).mean_gap
            <= average_gap_profile(scrambled).mean_gap
        )

    def test_ring_gap_bounded_by_level_structure(self, ring_graph):
        result = ReverseCuthillMcKee()(ring_graph)
        reordered = result.apply(ring_graph)
        # BFS of a ring alternates sides, so consecutive-level vertices
        # sit at most 2 IDs apart (plus the single wrap-around edge).
        profile = average_gap_profile(reordered)
        assert profile.p90_gap <= 2.0

    def test_components_counted(self):
        g = Graph.from_edges(4, np.array([0, 2]), np.array([1, 3]))
        result = ReverseCuthillMcKee()(g)
        assert result.details["num_components"] == 2

    def test_registered(self):
        assert get_algorithm("rcm").name == "rcm"


class TestHubSort:
    def test_valid_permutation(self, small_social):
        result = HubSort()(small_social)
        assert is_permutation(result.relabeling, small_social.num_vertices)

    def test_hubs_first_sorted(self, small_social):
        result = HubSort(direction="total")(small_social)
        num_hubs = result.details["num_hubs"]
        order = invert_permutation(result.relabeling)
        degrees = small_social.total_degrees()[order[:num_hubs]]
        assert (np.diff(degrees) <= 0).all()
        assert degrees.min() > small_social.average_degree

    def test_non_hubs_keep_relative_order(self, small_social):
        result = HubSort(direction="total")(small_social)
        degrees = small_social.total_degrees()
        non_hubs = np.flatnonzero(degrees <= small_social.average_degree)
        assert (np.diff(result.relabeling[non_hubs]) > 0).all()

    def test_threshold_override(self, star_graph):
        result = HubSort(direction="in", hub_threshold=5)(star_graph)
        assert result.details["num_hubs"] == 1

    def test_unknown_direction(self):
        with pytest.raises(ReorderingError):
            HubSort(direction="up")


class TestHubCluster:
    def test_hubs_keep_relative_order(self, small_social):
        result = HubCluster(direction="total")(small_social)
        degrees = small_social.total_degrees()
        hubs = np.flatnonzero(degrees > small_social.average_degree)
        assert (np.diff(result.relabeling[hubs]) > 0).all()
        assert result.relabeling[hubs].max() == hubs.shape[0] - 1

    def test_registered(self):
        assert get_algorithm("hubcluster").name == "hubcluster"


class TestAdaptiveGOrder:
    def test_valid_permutation(self, small_social):
        result = GOrder(adaptive=True)(small_social)
        assert is_permutation(result.relabeling, small_social.num_vertices)

    def test_window_actually_grows(self, small_social):
        result = GOrder(window=5, adaptive=True, max_window=16)(small_social)
        assert 5 < result.details["max_window_used"] <= 16

    def test_max_window_validation(self):
        with pytest.raises(ReorderingError):
            GOrder(window=8, adaptive=True, max_window=4)

    def test_non_adaptive_unchanged(self, small_social):
        fixed = GOrder(window=5)(small_social)
        assert "max_window_used" not in fixed.details
