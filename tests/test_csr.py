"""Unit tests for the compressed adjacency structure."""

import os

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.csr import Adjacency


# The smallest vertex count whose packed edge keys ``src * n + dst``
# could reach 2**63 (``n * n >= 2**63``).
KEY_OVERFLOW_N = 3037000500


@pytest.fixture
def address_space_cap():
    """Cap the address space at 1 GiB above its current size.

    A vertex count that overflows the packed keys also asks for a
    multi-GiB ``offsets`` array.  Under the cap, a build that misses the
    overflow check fails with ``MemoryError`` instead of paging it in.
    """
    resource = pytest.importorskip("resource")
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[0])
    except OSError:
        pytest.skip("needs /proc/self/statm to size the cap")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = pages * os.sysconf("SC_PAGE_SIZE") + (1 << 30)
    if hard != resource.RLIM_INFINITY and hard < cap:
        pytest.skip("hard address-space limit is below the cap")
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def make(n, edges):
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    return Adjacency.from_edges(n, src, dst)


class TestFromEdges:
    def test_basic_shape(self):
        adj = make(4, [(0, 1), (0, 2), (2, 3)])
        assert adj.num_vertices == 4
        assert adj.num_edges == 3

    def test_neighbours_sorted(self):
        adj = make(3, [(0, 2), (0, 1), (0, 0)])
        assert adj.neighbours(0).tolist() == [0, 1, 2]

    def test_empty_graph(self):
        adj = make(5, [])
        assert adj.num_edges == 0
        assert adj.degrees().tolist() == [0] * 5

    def test_zero_vertices(self):
        adj = make(0, [])
        assert adj.num_vertices == 0

    def test_rejects_out_of_range_target(self):
        with pytest.raises(GraphFormatError):
            make(2, [(0, 2)])

    def test_rejects_negative_source(self):
        with pytest.raises(GraphFormatError):
            make(2, [(-1, 0)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(GraphFormatError):
            make(-1, [])

    def test_rejects_mismatched_edge_arrays(self):
        with pytest.raises(GraphFormatError):
            Adjacency.from_edges(
                3, np.array([0, 1], dtype=np.int64), np.array([1], dtype=np.int64)
            )

    def test_duplicate_edges_kept(self):
        adj = make(2, [(0, 1), (0, 1)])
        assert adj.degree(0) == 2

    @pytest.mark.parametrize("n", [KEY_OVERFLOW_N, np.int64(KEY_OVERFLOW_N)])
    @pytest.mark.usefixtures("address_space_cap")
    def test_rejects_key_overflow(self, n):
        with pytest.raises(GraphFormatError, match="2\\*\\*63"):
            Adjacency.from_edges(
                n, np.array([0], dtype=np.int64), np.array([1], dtype=np.int64)
            )


class TestAccessors:
    def test_degrees(self):
        adj = make(4, [(0, 1), (0, 2), (1, 2)])
        assert adj.degrees().tolist() == [2, 1, 0, 0]

    def test_degree_out_of_range(self):
        adj = make(2, [(0, 1)])
        with pytest.raises(GraphFormatError):
            adj.degree(2)

    def test_neighbours_out_of_range(self):
        adj = make(2, [(0, 1)])
        with pytest.raises(GraphFormatError):
            adj.neighbours(-1)

    def test_edge_sources_expands_offsets(self):
        adj = make(3, [(0, 1), (0, 2), (2, 1)])
        assert adj.edge_sources().tolist() == [0, 0, 2]

    def test_edges_round_trip(self):
        edges = [(0, 3), (1, 2), (3, 0), (3, 1)]
        adj = make(4, edges)
        src, dst = adj.edges()
        assert sorted(zip(src.tolist(), dst.tolist())) == sorted(edges)

    def test_iter_neighbour_lists(self):
        adj = make(3, [(0, 1), (2, 0), (2, 1)])
        lists = [lst.tolist() for lst in adj.iter_neighbour_lists()]
        assert lists == [[1], [], [0, 1]]


class TestTranspose:
    def test_transpose_reverses_edges(self):
        adj = make(3, [(0, 1), (1, 2)])
        t = adj.transpose()
        assert t.neighbours(1).tolist() == [0]
        assert t.neighbours(2).tolist() == [1]

    def test_double_transpose_identity(self):
        adj = make(5, [(0, 1), (0, 4), (2, 3), (4, 0)])
        assert adj.transpose().transpose() == adj

    def test_transpose_preserves_counts(self):
        adj = make(4, [(0, 1), (1, 0), (2, 3)])
        t = adj.transpose()
        assert t.num_edges == adj.num_edges
        assert t.num_vertices == adj.num_vertices


class TestValidation:
    def test_offsets_must_start_at_zero(self):
        with pytest.raises(GraphFormatError):
            Adjacency(np.array([1, 2]), np.array([0, 0]))

    def test_offsets_must_be_monotone(self):
        with pytest.raises(GraphFormatError):
            Adjacency(np.array([0, 2, 1]), np.array([0]))

    def test_offsets_must_end_at_edge_count(self):
        with pytest.raises(GraphFormatError):
            Adjacency(np.array([0, 1]), np.array([0, 0]))

    def test_targets_in_range(self):
        with pytest.raises(GraphFormatError):
            Adjacency(np.array([0, 1]), np.array([5]))

    def test_has_sorted_neighbours(self):
        adj = make(3, [(0, 2), (0, 1)])
        assert adj.has_sorted_neighbours()
        raw = Adjacency(
            np.array([0, 2]), np.array([1, 0]), validate=False
        )
        assert not raw.has_sorted_neighbours()

    def test_arrays_read_only(self):
        adj = make(2, [(0, 1)])
        with pytest.raises(ValueError):
            adj.targets[0] = 0

    def test_not_hashable(self):
        adj = make(2, [(0, 1)])
        with pytest.raises(TypeError):
            hash(adj)

    def test_equality(self):
        a = make(3, [(0, 1), (1, 2)])
        b = make(3, [(1, 2), (0, 1)])
        assert a == b
        assert a != make(3, [(0, 1)])

    def test_repr(self):
        assert "n=3" in repr(make(3, [(0, 1)]))
