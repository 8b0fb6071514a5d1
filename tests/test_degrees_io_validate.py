"""Unit tests for degree helpers and validation."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.csr import Adjacency
from repro.graph.degrees import (
    degree_class_edges,
    degree_class_labels,
    power_law_tail_exponent,
)
from repro.graph.graph import Graph
from repro.graph.validate import validate_graph


class TestDegreeHelpers:
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
