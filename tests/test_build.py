"""Unit tests for edge-list cleaning and graph construction."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.build import build_graph, dedup_edges
from repro.graph.validate import validate_graph


class TestDedup:
    def test_removes_duplicates(self):
        src, dst = dedup_edges(np.array([0, 0, 1]), np.array([1, 1, 2]))
        assert sorted(zip(src.tolist(), dst.tolist())) == [(0, 1), (1, 2)]

    def test_keeps_reverse_edges(self):
        src, dst = dedup_edges(np.array([0, 1]), np.array([1, 0]))
        assert src.shape[0] == 2

    def test_empty(self):
        src, dst = dedup_edges(np.array([], dtype=np.int64),
                               np.array([], dtype=np.int64))
        assert src.shape == (0,)

    def test_negative_ids(self):
        src, dst = dedup_edges(
            np.array([5, -3, 0, -3, 5]), np.array([-1, 2, -3, 2, -1])
        )
        assert list(zip(src.tolist(), dst.tolist())) == [(-3, 2), (0, -3), (5, -1)]

    def test_widest_packable_spread(self):
        # max - min + 1 == 3037000499, the largest spread with spread**2 < 2**63.
        hi = 3037000498
        src, dst = dedup_edges(np.array([hi, 0, hi]), np.array([0, hi, 0]))
        assert list(zip(src.tolist(), dst.tolist())) == [(0, hi), (hi, 0)]

    def test_rejects_key_overflow(self):
        with pytest.raises(GraphFormatError, match="2\\*\\*63"):
            dedup_edges(np.array([0, 3037000499]), np.array([0, 0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(GraphFormatError):
            dedup_edges(np.array([0, 1]), np.array([1]))


class TestCompact:
    """``build_graph`` drops zero-degree vertices by default."""

    def test_drops_isolated_vertices(self):
        result = build_graph(5, np.array([0, 4]), np.array([4, 0]))
        assert result.graph.num_vertices == 2
        assert result.num_removed_vertices == 3
        assert result.old_to_new.tolist() == [0, -1, -1, -1, 1]
        src, dst = result.graph.edges()
        assert sorted(zip(src.tolist(), dst.tolist())) == [(0, 1), (1, 0)]

    def test_preserves_relative_order(self):
        result = build_graph(6, np.array([1, 3]), np.array([3, 5]))
        survivors = [v for v in result.old_to_new.tolist() if v >= 0]
        assert survivors == sorted(survivors)
        assert result.graph.num_vertices == 3

    def test_no_removal_when_all_used(self):
        result = build_graph(2, np.array([0]), np.array([1]))
        assert result.graph.num_vertices == 2
        assert result.num_removed_vertices == 0
        assert result.old_to_new.tolist() == [0, 1]


class TestBuildGraph:
    def test_full_pipeline(self):
        result = build_graph(
            6,
            np.array([0, 0, 0, 5]),
            np.array([1, 1, 2, 5]),
            drop_self_loops=True,
        )
        # duplicate (0,1) removed, self loop (5,5) removed, vertices
        # 3, 4 and (after loop removal) 5 are isolated.
        assert result.graph.num_vertices == 3
        assert result.graph.num_edges == 2
        assert result.num_removed_vertices == 3
        assert result.num_removed_edges == 2
        validate_graph(result.graph)

    def test_self_loops_kept_by_default(self):
        result = build_graph(2, np.array([0, 1]), np.array([0, 1]))
        assert result.graph.num_edges == 2

    def test_no_dedup_option(self):
        result = build_graph(
            2, np.array([0, 0]), np.array([1, 1]), dedup=False
        )
        assert result.graph.num_edges == 2

    def test_keep_zero_degree_option(self):
        result = build_graph(
            5, np.array([0]), np.array([1]), drop_zero_degree=False
        )
        assert result.graph.num_vertices == 5
        assert result.old_to_new.tolist() == [0, 1, 2, 3, 4]

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphFormatError):
            build_graph(2, np.array([0]), np.array([5]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(GraphFormatError):
            build_graph(3, np.array([0, 1]), np.array([1]))

    def test_name_propagates(self):
        result = build_graph(2, np.array([0]), np.array([1]), name="g")
        assert result.graph.name == "g"

    def test_empty_edge_list(self):
        result = build_graph(4, np.array([], dtype=np.int64),
                             np.array([], dtype=np.int64))
        assert result.graph.num_vertices == 0
        assert result.num_removed_vertices == 4
