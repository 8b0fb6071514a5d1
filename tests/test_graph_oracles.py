"""Oracle equality: packed-key graph construction matches lexsort/unique.

``Adjacency.from_edges`` (and through it ``Graph.from_edges``,
``Graph.permuted`` and ``transpose``), ``dedup_edges`` and
``connected_components`` are compared against the plain formulations
in :mod:`tests.graph_oracles` on random multigraphs with duplicate
edges, self-loops, isolated vertices and ``n`` of 0 and 1, and on the
four seeded minis.  Every property asserts equality of the full
``offsets``/``targets`` arrays, of the dedup output in order, or of
every component label, size and edge count — a change that moves one
neighbour or one vertex fails here.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.graph.build as build
from repro.bench.workloads import SIM_DATASETS
from repro.generate import load_dataset
from repro.graph.build import dedup_edges
from repro.graph.components import connected_components
from repro.graph.csr import Adjacency
from repro.graph.graph import Graph
from tests.graph_oracles import (
    adjacency_oracle,
    components_oracle,
    dedup_edges_oracle,
    graph_oracle,
    permuted_oracle,
)

ORACLE = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def edge_lists(draw, max_vertices: int = 40, max_edges: int = 160):
    """``(n, sources, targets)`` of a directed multigraph, ``n`` from 0.

    Endpoints are drawn from a small pool half of the time so repeated
    edges are common; vertices no edge touches stay isolated.
    """
    n = draw(st.integers(0, max_vertices))
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return 0, empty, empty.copy()
    pool = draw(st.integers(1, n))
    vertex = st.integers(0, pool - 1) | st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges))
    src = np.array([u for u, _ in edges], dtype=np.int64)
    dst = np.array([v for _, v in edges], dtype=np.int64)
    return n, src, dst


def assert_same_adjacency(actual: Adjacency, expected: Adjacency) -> None:
    np.testing.assert_array_equal(actual.offsets, expected.offsets)
    np.testing.assert_array_equal(actual.targets, expected.targets)
    assert actual.offsets.dtype == expected.offsets.dtype == np.int64
    assert actual.targets.dtype == expected.targets.dtype == np.int64


def assert_same_graph(actual: Graph, expected: Graph) -> None:
    assert_same_adjacency(actual.out_adj, expected.out_adj)
    assert_same_adjacency(actual.in_adj, expected.in_adj)


def assert_same_dedup(sources: np.ndarray, targets: np.ndarray) -> None:
    got_src, got_dst = dedup_edges(sources, targets)
    want_src, want_dst = dedup_edges_oracle(sources, targets)
    np.testing.assert_array_equal(got_src, want_src)
    np.testing.assert_array_equal(got_dst, want_dst)
    assert got_src.dtype == got_dst.dtype == np.int64


_LOOPS = (1, np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64))


# -- random multigraphs --------------------------------------------------------


@ORACLE
@given(edge_lists())
@example((0, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)))
@example(_LOOPS)
def test_from_edges_matches_oracle(edges):
    n, src, dst = edges
    graph = Graph.from_edges(n, src, dst)
    assert_same_graph(graph, graph_oracle(n, src, dst))
    assert_same_adjacency(graph.out_adj.transpose(), adjacency_oracle(n, dst, src))


@ORACLE
@given(st.data())
def test_permuted_matches_oracle(data):
    n, src, dst = data.draw(edge_lists())
    relabeling = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
    graph = Graph.from_edges(n, src, dst)
    assert_same_graph(graph.permuted(relabeling), permuted_oracle(graph, relabeling))


@ORACLE
@given(edge_lists())
@example(_LOOPS)
def test_dedup_matches_oracle(edges):
    _, src, dst = edges
    assert_same_dedup(src, dst)


@ORACLE
@given(st.data())
def test_dedup_matches_oracle_on_signed_ids(data):
    """Negative and widely spread IDs: keys pack relative to the minimum."""
    pool = data.draw(st.lists(st.integers(-(2**30), 2**30), min_size=1, max_size=8))
    vertex = st.sampled_from(pool) | st.integers(-(2**30), 2**30)
    edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=80))
    src = np.array([u for u, _ in edges], dtype=np.int64)
    dst = np.array([v for _, v in edges], dtype=np.int64)
    assert_same_dedup(src, dst)


def assert_same_components(num_vertices, sources, targets, active=None) -> None:
    actual = connected_components(num_vertices, sources, targets, active=active)
    expected = components_oracle(num_vertices, sources, targets, active=active)
    np.testing.assert_array_equal(actual.labels, expected.labels)
    np.testing.assert_array_equal(actual.sizes, expected.sizes)
    np.testing.assert_array_equal(actual.edge_counts, expected.edge_counts)


@ORACLE
@given(edge_lists(), st.data())
@example(_LOOPS, None)
def test_components_match_oracle(edges, data):
    n, src, dst = edges
    active = None
    if data is not None and data.draw(st.booleans()):
        bits = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        active = np.array(bits, dtype=bool)
    assert_same_components(n, src, dst, active)


# -- seeded minis --------------------------------------------------------------

MINI_SCALE = 0.1


def _oracle_from_edges(cls, num_vertices, sources, targets):
    return adjacency_oracle(num_vertices, sources, targets)


@pytest.fixture(scope="module", params=SIM_DATASETS)
def mini(request) -> "tuple[str, Graph]":
    return request.param, load_dataset(request.param, scale=MINI_SCALE)


def test_mini_generation_matches_oracle(mini):
    """The whole generator pipeline, rebuilt with oracle dedup and CSR."""
    name, graph = mini
    with mock.patch.object(build, "dedup_edges", dedup_edges_oracle), mock.patch.object(
        Adjacency, "from_edges", classmethod(_oracle_from_edges)
    ):
        expected = load_dataset(name, scale=MINI_SCALE)
    assert_same_graph(graph, expected)
    assert graph.num_edges > 0


@pytest.mark.parametrize("seed", [0, 1])
def test_mini_permuted_matches_oracle(mini, seed):
    _, graph = mini
    relabeling = np.random.default_rng(seed).permutation(graph.num_vertices)
    assert_same_graph(graph.permuted(relabeling), permuted_oracle(graph, relabeling))


def test_mini_dedup_matches_oracle(mini):
    _, graph = mini
    src, dst = graph.edges()
    rng = np.random.default_rng(0)
    repeat = rng.integers(0, src.shape[0], src.shape[0] // 2)
    shuffle = rng.permutation(src.shape[0] + repeat.shape[0])
    both_src = np.concatenate([src, src[repeat]])[shuffle]
    both_dst = np.concatenate([dst, dst[repeat]])[shuffle]
    assert_same_dedup(both_src, both_dst)


def test_mini_components_match_oracle(mini):
    _, graph = mini
    src, dst = graph.edges()
    # Hubs removed, as in SlashBurn's first iteration: a GCC plus spokes.
    hubs = np.argsort(-graph.total_degrees(), kind="stable")[: graph.num_vertices // 50]
    active = np.ones(graph.num_vertices, dtype=bool)
    active[hubs] = False
    assert_same_components(graph.num_vertices, src, dst)
    assert_same_components(graph.num_vertices, src, dst, active)
