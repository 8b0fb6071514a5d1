"""Unit and property tests for the pull SpMV that PageRank iterates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.graph import Graph
from repro.graph.permute import random_permutation
from repro.sim.spmv import pagerank


def pull(graph, data):
    """One pull iteration, as :func:`repro.sim.pagerank` runs it:
    ``out[v] = sum of data[u] over in-neighbours u`` through the CSC."""
    adj = graph.in_adj
    return np.bincount(adj.edge_sources(), weights=data[adj.targets],
                       minlength=graph.num_vertices)


class TestPull:
    def test_ring_shifts_data(self, ring_graph):
        data = np.arange(12, dtype=np.float64)
        out = pull(ring_graph, data)
        # vertex v's only in-neighbour is v-1 (mod 12)
        assert np.array_equal(out, np.roll(data, 1))

    def test_star_sums_leaves(self, star_graph):
        data = np.ones(20)
        out = pull(star_graph, data)
        assert out[0] == 19
        assert (out[1:] == 0).all()


class TestRelabelingInvariance:
    """The core oracle: relabeling never changes SpMV semantics."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_pull_invariant_under_relabeling(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, 150))
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        graph = Graph.from_edges(n, src, dst)
        data = rng.random(n)

        perm = random_permutation(n, seed=seed + 1)
        relabeled = graph.permuted(perm)
        # The relabeled graph reads old vertex v's value at perm[v].
        moved = np.empty_like(data)
        moved[perm] = data

        original = pull(graph, data)
        relabeled_out = pull(relabeled, moved)
        assert np.allclose(original, relabeled_out[perm])


class TestPageRank:
    def test_sums_to_one(self, small_web):
        ranks = pagerank(small_web, iterations=25)
        assert ranks.sum() == pytest.approx(1.0, abs=1e-9)
        assert (ranks > 0).all()

    def test_star_center_dominates(self, star_graph):
        ranks = pagerank(star_graph, iterations=30)
        assert ranks[0] == ranks.max()

    def test_empty_graph(self):
        g = Graph.from_edges(0, np.array([], dtype=np.int64),
                             np.array([], dtype=np.int64))
        assert pagerank(g).shape == (0,)

    def test_converges_early(self, ring_graph):
        a = pagerank(ring_graph, iterations=500, tolerance=1e-14)
        b = pagerank(ring_graph, iterations=1000, tolerance=1e-14)
        assert np.allclose(a, b)

    def test_invariant_under_relabeling(self, small_social):
        perm = random_permutation(small_social.num_vertices, seed=4)
        relabeled = small_social.permuted(perm)
        r1 = pagerank(small_social, iterations=20)
        r2 = pagerank(relabeled, iterations=20)
        assert np.allclose(r1, r2[perm], atol=1e-12)
