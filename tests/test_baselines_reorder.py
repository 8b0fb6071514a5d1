"""Unit tests for the reordering interface and baseline orderings."""

import os

import numpy as np
import pytest

from repro.bench.experiments import table2_preprocessing
from repro.bench.experiments.table2_preprocessing import reorder_in_child
from repro.errors import ExperimentError, PermutationError, ReorderingError
from repro.generate import load_dataset
from repro.graph import Graph, invert_permutation, is_permutation, validate_graph
from repro.reorder import (
    BFSOrder,
    DegreeSort,
    Identity,
    RandomOrder,
    ReorderingAlgorithm,
    algorithm_names,
    get_algorithm,
)


class _ExitOnUnpickle:
    def __reduce__(self):
        return (os._exit, (3,))


class TestInterface:
    def test_result_fields(self, tiny_graph):
        result = Identity()(tiny_graph)
        assert result.algorithm == "identity"
        assert result.preprocessing_seconds >= 0
        assert is_permutation(result.relabeling, 6)

    @pytest.mark.slow
    def test_table2_child_matches_in_process_run(self):
        graph = load_dataset("twtr-mini", scale=0.25)
        result, peak_bytes = reorder_in_child(graph, "twtr-mini", "rabbit")
        in_process = get_algorithm("rabbit")(graph)
        assert np.array_equal(result.relabeling, in_process.relabeling)
        assert result.preprocessing_seconds > 0
        assert peak_bytes > 0

    def test_table2_child_failures_are_typed(self, monkeypatch, tiny_graph):
        empty = Graph.from_edges(0, np.array([], dtype=np.int64),
                                 np.array([], dtype=np.int64))
        with pytest.raises(ExperimentError, match="identity on empty") as raised:
            reorder_in_child(empty, "empty", "identity")
        assert isinstance(raised.value.__cause__, ReorderingError)
        # A child that dies while unpickling its arguments.
        with pytest.raises(ExperimentError, match="identity on killed"):
            reorder_in_child(_ExitOnUnpickle(), "killed", "identity")
        monkeypatch.setattr(table2_preprocessing, "_STATUS", "/nonexistent/status")
        with pytest.raises(ExperimentError, match="peak RSS"):
            table2_preprocessing._reorder_measured(tiny_graph, "identity")

    def test_apply(self, tiny_graph):
        result = RandomOrder(seed=3)(tiny_graph)
        g2 = result.apply(tiny_graph)
        validate_graph(g2)
        assert g2.num_edges == tiny_graph.num_edges

    def test_empty_graph_rejected(self):
        g = Graph.from_edges(0, np.array([], dtype=np.int64),
                             np.array([], dtype=np.int64))
        with pytest.raises(ReorderingError):
            Identity()(g)

    def test_invalid_relabeling_caught(self, tiny_graph):
        class Broken(ReorderingAlgorithm):
            name = "broken"

            def compute(self, graph, details):
                return np.zeros(graph.num_vertices, dtype=np.int64)

        with pytest.raises(PermutationError):
            Broken()(tiny_graph)

    def test_registry_round_trip(self):
        for name in algorithm_names():
            assert get_algorithm(name).name == name

    def test_registry_unknown(self):
        with pytest.raises(ReorderingError):
            get_algorithm("sorting-hat")

    def test_registry_kwargs(self):
        algorithm = get_algorithm("random", seed=9)
        assert algorithm.seed == 9


class TestIdentityRandom:
    def test_identity_is_identity(self, tiny_graph):
        result = Identity()(tiny_graph)
        assert result.relabeling.tolist() == list(range(6))

    def test_random_seeded(self, tiny_graph):
        a = RandomOrder(seed=1)(tiny_graph).relabeling
        b = RandomOrder(seed=1)(tiny_graph).relabeling
        c = RandomOrder(seed=2)(tiny_graph).relabeling
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestDegreeSort:
    def test_highest_degree_first(self, star_graph):
        result = DegreeSort(direction="in")(star_graph)
        assert result.relabeling[0] == 0  # hub gets ID 0

    def test_ascending_option(self, star_graph):
        result = DegreeSort(direction="in", descending=False)(star_graph)
        assert result.relabeling[0] == 19  # hub gets the last ID

    def test_order_sorted_by_degree(self, small_social):
        result = DegreeSort(direction="total")(small_social)
        order = invert_permutation(result.relabeling)
        degrees = small_social.total_degrees()[order]
        assert (np.diff(degrees) <= 0).all()

    def test_stable_for_ties(self, ring_graph):
        result = DegreeSort()(ring_graph)
        assert result.relabeling.tolist() == list(range(12))

    def test_unknown_direction(self):
        with pytest.raises(ReorderingError):
            DegreeSort(direction="up")


class TestBFS:
    def test_valid_permutation(self, small_web):
        result = BFSOrder()(small_web)
        assert is_permutation(result.relabeling, small_web.num_vertices)

    def test_starts_from_max_degree(self, star_graph):
        result = BFSOrder()(star_graph)
        assert result.relabeling[0] == 0

    def test_component_count_recorded(self):
        # two disjoint pairs -> 2 components
        g = Graph.from_edges(4, np.array([0, 2]), np.array([1, 3]))
        result = BFSOrder()(g)
        assert result.details["num_components_visited"] == 2

    def test_neighbours_get_adjacent_ids_on_ring(self, ring_graph):
        result = BFSOrder()(ring_graph)
        order = invert_permutation(result.relabeling)
        # BFS of a ring enumerates it in path order
        diffs = np.abs(np.diff(ring_graph.out_adj.targets[order] - order))
        assert diffs.max() <= ring_graph.num_vertices
