"""Unit tests for degree helpers and validation."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import (
    Adjacency,
    Graph,
    degree_class_edges,
    degree_class_labels,
    degree_histogram,
    degree_summary,
    normalized_degree_frequency,
    power_law_tail_exponent,
    validate_graph,
)


class TestDegreeHelpers:
    def test_histogram(self):
        hist = degree_histogram(np.array([0, 1, 1, 3]))
        assert hist.tolist() == [1, 2, 0, 1]

    def test_histogram_min_length(self):
        hist = degree_histogram(np.array([1]), max_degree=4)
        assert hist.shape[0] == 5

    def test_histogram_rejects_negative(self):
        with pytest.raises(GraphFormatError):
            degree_histogram(np.array([-1]))

    def test_normalized_frequency_peak_is_one(self):
        norm = normalized_degree_frequency(np.array([1, 1, 1, 2]))
        assert norm.max() == 1.0
        assert norm[1] == 1.0

    def test_normalized_frequency_empty(self):
        norm = normalized_degree_frequency(np.array([], dtype=np.int64))
        assert norm.sum() == 0

    def test_degree_classes(self):
        classes = degree_class_edges(np.array([0, 1, 9, 10, 99, 100, 1000]))
        assert classes.tolist() == [0, 0, 0, 1, 1, 2, 3]

    def test_class_labels(self):
        assert degree_class_labels(4) == ["1-10", "10-100", "100-1K", "1K-10K"]

    def test_power_law_exponent_of_power_law(self):
        # Exact Pareto tail via inverse transform: P(D > d) = (d/10)^-1.5,
        # so the density exponent is 2.5.
        rng = np.random.default_rng(0)
        degrees = np.floor(10.0 * rng.random(20_000) ** (-1.0 / 1.5))
        alpha = power_law_tail_exponent(degrees, d_min=10)
        assert 2.3 < alpha < 2.7

    def test_power_law_exponent_uniform_is_large(self):
        degrees = np.full(1000, 12)
        alpha = power_law_tail_exponent(degrees, d_min=10)
        assert alpha > 5  # no heavy tail

    def test_power_law_exponent_insufficient_tail(self):
        assert np.isnan(power_law_tail_exponent(np.array([1, 2, 3]), d_min=10))

    def test_degree_summary(self, star_graph):
        summary = degree_summary(star_graph, "in")
        assert summary.num_hubs == 1
        assert summary.maximum == 19
        assert summary.num_ldv + summary.num_hdv == 20


class TestValidate:
    def test_valid_graph_passes(self, tiny_graph):
        validate_graph(tiny_graph)

    def test_inconsistent_directions_rejected(self):
        out_adj = Adjacency.from_edges(3, np.array([0]), np.array([1]))
        in_adj = Adjacency.from_edges(3, np.array([2]), np.array([1]))
        bad = Graph(out_adj, in_adj)
        with pytest.raises(GraphFormatError):
            validate_graph(bad)

    def test_unsorted_neighbours_rejected(self, tiny_graph):
        raw = Adjacency(
            tiny_graph.out_adj.offsets,
            tiny_graph.out_adj.targets[::-1].copy(),
            validate=False,
        )
        bad = Graph(raw, tiny_graph.in_adj)
        with pytest.raises(GraphFormatError):
            validate_graph(bad)
