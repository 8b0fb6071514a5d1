"""Oracle equality: the fast reordering loops match their plain versions.

Rabbit-Order's merge, label propagation's mode vote and GOrder's greedy
pass are each compared against the straightforward formulation in
:mod:`tests.reorder_oracles` on random multigraphs with self-loops and
on a few seeded social/web graphs.  Every property asserts equality of
the full relabeling (or label vector), plus Rabbit-Order's merge
statistics — a speed-up that changes one ID fails here.
"""

from __future__ import annotations

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graph.communities as communities
from repro.graph import Graph, label_propagation_communities
from repro.reorder import get_algorithm
from tests.reorder_oracles import gorder_oracle, mode_labels_oracle, rabbit_oracle

ORACLE = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def multigraphs(draw, max_vertices: int = 40, max_edges: int = 160) -> Graph:
    """Directed multigraphs: repeated edges, self-loops, isolated vertices.

    Endpoints are drawn from a small pool half of the time so that
    multiplicities (and hence integer edge weights above 1) are common.
    """
    n = draw(st.integers(1, max_vertices))
    pool = draw(st.integers(1, n))
    vertex = st.integers(0, pool - 1) | st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges))
    src = np.array([u for u, _ in edges], dtype=np.int64)
    dst = np.array([v for _, v in edges], dtype=np.int64)
    return Graph.from_edges(n, src, dst, name="oracle")


def _rabbit(graph: Graph, seed: int, cap: "float | None"):
    result = get_algorithm("rabbit", seed=seed, max_community_weight=cap)(graph)
    return result.relabeling, result.details


# -- Rabbit-Order ------------------------------------------------------------


@ORACLE
@given(
    multigraphs(),
    st.integers(0, 2**16),
    st.none() | st.floats(1.0, 64.0) | st.integers(1, 64).map(float),
)
def test_rabbit_matches_oracle(graph, seed, cap):
    relabeling, details = _rabbit(graph, seed, cap)
    expected, expected_details = rabbit_oracle(graph, seed, cap)
    np.testing.assert_array_equal(relabeling, expected)
    for key in ("num_merges", "num_top_level"):
        assert details.get(key) == expected_details.get(key), key


@pytest.mark.parametrize("cap", [None, 48.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rabbit_matches_oracle_on_social(small_social, seed, cap):
    relabeling, details = _rabbit(small_social, seed, cap)
    expected, expected_details = rabbit_oracle(small_social, seed, cap)
    np.testing.assert_array_equal(relabeling, expected)
    assert details["num_merges"] == expected_details["num_merges"]
    assert details["num_top_level"] == expected_details["num_top_level"]


def test_rabbit_leaves_recursion_limit_alone(small_social):
    before = sys.getrecursionlimit()
    # Below any floor a caller might raise it to, above pytest's depth.
    sys.setrecursionlimit(2017)
    try:
        get_algorithm("rabbit")(small_social)
        get_algorithm("community")(small_social)
        assert sys.getrecursionlimit() == 2017
    finally:
        sys.setrecursionlimit(before)


# -- label propagation -------------------------------------------------------


@ORACLE
@given(st.data())
def test_mode_labels_matches_oracle(data):
    n = data.draw(st.integers(1, 30))
    size = data.draw(st.integers(0, 200))
    index = st.integers(0, n - 1)
    vertices = np.array(data.draw(st.lists(index, min_size=size, max_size=size)), dtype=np.int64)
    labels = np.array(data.draw(st.lists(index, min_size=size, max_size=size)), dtype=np.int64)
    voters, winner = communities._mode_labels(vertices, labels, n)
    expected_voters, expected_winner = mode_labels_oracle(vertices, labels, n)
    np.testing.assert_array_equal(voters, expected_voters)
    np.testing.assert_array_equal(winner, expected_winner)


def _lpa_pair(num_vertices, src, dst, seed, max_rounds):
    fast = label_propagation_communities(
        num_vertices, src, dst, seed=seed, max_rounds=max_rounds
    )
    with mock.patch.object(communities, "_mode_labels", mode_labels_oracle):
        slow = label_propagation_communities(
            num_vertices, src, dst, seed=seed, max_rounds=max_rounds
        )
    return fast, slow


def _assert_same_partition(fast, slow):
    np.testing.assert_array_equal(fast.labels, slow.labels)
    np.testing.assert_array_equal(fast.sizes, slow.sizes)
    np.testing.assert_array_equal(fast.internal_edges, slow.internal_edges)
    assert fast.rounds == slow.rounds


@ORACLE
@given(multigraphs(), st.integers(0, 2**16), st.integers(1, 20))
def test_label_propagation_matches_oracle(graph, seed, max_rounds):
    src, dst = graph.edges()
    _assert_same_partition(*_lpa_pair(graph.num_vertices, src, dst, seed, max_rounds))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_label_propagation_matches_oracle_on_web(small_web, seed):
    src, dst = small_web.edges()
    _assert_same_partition(*_lpa_pair(small_web.num_vertices, src, dst, seed, 16))


# -- GOrder ------------------------------------------------------------------


@ORACLE
@given(
    multigraphs(),
    st.integers(1, 8),
    st.booleans(),
    st.none() | st.integers(0, 12),
)
def test_gorder_matches_oracle(graph, window, adaptive, huge_threshold):
    params = dict(window=window, adaptive=adaptive, huge_threshold=huge_threshold, max_window=12)
    result = get_algorithm("gorder", **params)(graph)
    np.testing.assert_array_equal(result.relabeling, gorder_oracle(graph, **params))


@pytest.mark.parametrize("adaptive", [False, True])
def test_gorder_matches_oracle_on_social(small_social, adaptive):
    result = get_algorithm("gorder", adaptive=adaptive)(small_social)
    np.testing.assert_array_equal(
        result.relabeling, gorder_oracle(small_social, adaptive=adaptive)
    )
