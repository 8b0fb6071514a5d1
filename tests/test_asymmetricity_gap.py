"""Unit tests for asymmetricity, reciprocity and the gap profile."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.asymmetricity import (
    asymmetricity_degree_distribution,
    asymmetricity_per_vertex,
    reciprocity,
)
from repro.core.gap import average_gap_profile
from repro.graph import Graph


def graph_of(n, edges):
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    return Graph.from_edges(n, src, dst)


class TestAsymmetricity:
    def test_fully_symmetric_pair(self):
        g = graph_of(2, [(0, 1), (1, 0)])
        asym = asymmetricity_per_vertex(g)
        assert asym[0] == 0.0
        assert asym[1] == 0.0

    def test_one_way_edge(self):
        g = graph_of(2, [(0, 1)])
        asym = asymmetricity_per_vertex(g)
        assert asym[1] == 1.0
        assert np.isnan(asym[0])  # no in-neighbours

    def test_mixed(self):
        # in-nb of 2: {0 (one-way), 1 (reciprocated)} -> asym = 1/2
        g = graph_of(3, [(0, 2), (1, 2), (2, 1)])
        assert asymmetricity_per_vertex(g)[2] == pytest.approx(0.5)

    def test_self_loop_is_symmetric(self):
        g = graph_of(1, [(0, 0)])
        assert asymmetricity_per_vertex(g)[0] == 0.0

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        m = int(rng.integers(1, 80))
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        g = graph_of(n, list(set(zip(src.tolist(), dst.tolist()))))
        asym = asymmetricity_per_vertex(g)
        edges = set(zip(*[arr.tolist() for arr in g.edges()]))
        for v in range(n):
            in_nb = [u for (u, w) in edges if w == v]
            if not in_nb:
                assert np.isnan(asym[v])
                continue
            not_reciprocated = [u for u in in_nb if (v, u) not in edges]
            assert asym[v] == pytest.approx(len(not_reciprocated) / len(in_nb))

    def test_reciprocity_bounds(self, small_social, small_web):
        assert 0.0 <= reciprocity(small_web) <= 1.0
        assert reciprocity(small_social) > reciprocity(small_web)

    def test_reciprocity_symmetric_graph(self):
        g = graph_of(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
        assert reciprocity(g) == pytest.approx(1.0)

    def test_reciprocity_empty(self):
        g = graph_of(0, [])
        assert reciprocity(g) == 0.0

    def test_distribution_percent_scale(self, small_web):
        dist = asymmetricity_degree_distribution(small_web)
        x, y = dist.series()
        assert ((y >= 0) & (y <= 100)).all()

    def test_distribution_counts_in_degree_vertices(self, small_web):
        dist = asymmetricity_degree_distribution(small_web)
        assert dist.vertex_counts.sum() == int(
            (small_web.in_degrees() > 0).sum()
        )


class TestGapProfile:
    def test_hand_computed(self):
        g = graph_of(10, [(0, 9), (4, 5)])
        profile = average_gap_profile(g)
        assert profile.mean_gap == pytest.approx(5.0)
        assert profile.median_gap == pytest.approx(5.0)

    def test_empty(self):
        g = graph_of(0, [])
        assert average_gap_profile(g).mean_gap == 0.0

    def test_gap_blind_to_neighbour_clustering(self):
        """The paper's motivation for AID over the gap profile.

        Neighbours 100 apart from the vertex but adjacent to each other:
        the gap profile is large although spatial locality is perfect.
        """
        from repro.core import aid_per_vertex

        g = graph_of(205, [(100, 0), (101, 0), (102, 0)])
        profile = average_gap_profile(g)
        aid = aid_per_vertex(g)[0]
        assert profile.mean_gap == pytest.approx(101.0)
        assert aid == pytest.approx(2 / 3)  # AID sees the clustering

    def test_as_dict(self, tiny_graph):
        d = average_gap_profile(tiny_graph).as_dict()
        assert set(d) == {"mean", "median", "p90"}
