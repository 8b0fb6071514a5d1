"""Oracle equality: the fast reordering loops match their plain versions.

Rabbit-Order's merge, label propagation's mode vote, GOrder's greedy
pass, SlashBurn's burn loop and HisOrder's K-means are each compared
against the straightforward formulation in :mod:`tests.reorder_oracles`
on random multigraphs with self-loops (random feature sets for the
K-means) and on a few seeded social/web graphs.  Every property asserts
equality of the full relabeling (or label vector), plus Rabbit-Order's
merge statistics, SlashBurn's iteration snapshots and K-means' iteration
count — a speed-up that changes one ID fails here.
"""

from __future__ import annotations

import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graph.communities as communities
import repro.reorder.traceprof as traceprof
from repro.graph.communities import label_propagation_communities
from repro.graph.graph import Graph
from repro.reorder import get_algorithm
from repro.reorder.slashburn import SlashBurn, slashburn_iterations
from tests.reorder_oracles import (
    gorder_oracle,
    kmeans_oracle,
    mode_labels_oracle,
    rabbit_oracle,
    slashburn_oracle,
)

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


# -- SlashBurn ---------------------------------------------------------------


def _assert_same_snapshots(fast, slow):
    assert len(fast) == len(slow)
    for got, want in zip(fast, slow):
        for field in (
            "iteration",
            "num_hubs_slashed",
            "num_spoke_vertices",
            "num_spoke_components",
            "gcc_vertices",
            "gcc_edges",
            "gcc_max_degree",
        ):
            assert getattr(got, field) == getattr(want, field), field
        np.testing.assert_array_equal(got.gcc_degrees, want.gcc_degrees)
        assert got.gcc_degrees.dtype == want.gcc_degrees.dtype


@ORACLE
@given(
    multigraphs(),
    st.floats(0.01, 0.5),
    st.none() | st.integers(1, 6),
    st.booleans(),
    st.sampled_from(["degree", "original"]),
)
def test_slashburn_matches_oracle(graph, k_ratio, max_iterations, sqrt_stop, remainder):
    params = dict(
        max_iterations=max_iterations,
        stop_at_sqrt_degree=sqrt_stop,
        record_iterations=True,
        remainder_order=remainder,
    )
    result = SlashBurn(k_ratio, **params)(graph)
    expected, expected_details = slashburn_oracle(graph, k_ratio, **params)
    np.testing.assert_array_equal(result.relabeling, expected)
    assert result.details["num_iterations"] == expected_details["num_iterations"]
    assert result.details["k"] == expected_details["k"]
    _assert_same_snapshots(result.details["iterations"], expected_details["iterations"])


@pytest.mark.parametrize("name", ["slashburn", "slashburn++"])
def test_slashburn_matches_oracle_on_social(small_social, name):
    result = get_algorithm(name)(small_social)
    plus = name == "slashburn++"
    expected, details = slashburn_oracle(
        small_social,
        stop_at_sqrt_degree=plus,
        remainder_order="original" if plus else "degree",
    )
    np.testing.assert_array_equal(result.relabeling, expected)
    assert result.details["num_iterations"] == details["num_iterations"]


def test_slashburn_iterations_match_oracle(small_web):
    _, details = slashburn_oracle(
        small_web, max_iterations=16, record_iterations=True
    )
    _assert_same_snapshots(
        slashburn_iterations(small_web, max_iterations=16), details["iterations"]
    )


# -- HisOrder K-means ----------------------------------------------------------


@st.composite
def feature_sets(draw) -> "tuple[np.ndarray, int]":
    """Non-negative feature rows with frequent duplicates, plus a k.

    Rows are drawn from a small pool of distinct rows half of the time,
    so tied distances and clusters emptied by duplicate centroids (the
    reseed path) are common; k covers 1, n and everything between.
    """
    n = draw(st.integers(1, 48))
    width = draw(st.integers(1, 8))
    pool = draw(st.integers(1, n))
    value = st.integers(0, 4)
    rows = [
        draw(st.lists(value, min_size=width, max_size=width)) for _ in range(pool)
    ]
    pick = st.integers(0, pool - 1)
    own = st.lists(value, min_size=width, max_size=width)
    chosen = [
        rows[draw(pick)] if draw(st.booleans()) else draw(own) for _ in range(n)
    ]
    features = np.array(chosen, dtype=np.float64).reshape(n, width)
    if draw(st.booleans()):
        # Production rows are L2-normalized histograms.
        norms = np.sqrt((features**2).sum(axis=1, keepdims=True))
        features = features / np.where(norms > 0, norms, 1.0)
    k = draw(st.sampled_from([1, n]) | st.integers(1, n))
    return features, k


@ORACLE
@given(feature_sets(), st.integers(0, 2**16), st.integers(1, 30))
def test_kmeans_matches_oracle(data, seed, max_iters):
    features, k = data
    assignment, iters = traceprof._kmeans(features, k, seed=seed, max_iters=max_iters)
    expected, expected_iters = kmeans_oracle(features, k, seed=seed, max_iters=max_iters)
    np.testing.assert_array_equal(assignment, expected)
    assert assignment.dtype == expected.dtype
    assert iters == expected_iters


@pytest.mark.parametrize("k", [1, 3, 6])
def test_kmeans_matches_oracle_on_duplicate_rows(k):
    # Six copies of two rows: every k > 2 starts with duplicate
    # centroids, so clusters empty out and are reseeded.
    features = np.repeat(np.eye(2, dtype=np.float64), 3, axis=0)
    for seed in range(8):
        got = traceprof._kmeans(features, k, seed=seed, max_iters=10)
        want = kmeans_oracle(features, k, seed=seed, max_iters=10)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]


@pytest.mark.parametrize("fixture", ["small_social", "small_web"])
def test_hisorder_matches_oracle(request, fixture):
    graph = request.getfixturevalue(fixture)
    result = get_algorithm("hisorder")(graph)
    with mock.patch.object(traceprof, "_kmeans", kmeans_oracle):
        expected = get_algorithm("hisorder")(graph)
    np.testing.assert_array_equal(result.relabeling, expected.relabeling)
    assert result.details["kmeans_iters"] == expected.details["kmeans_iters"]


def _kmeans_peak(features: np.ndarray, k: int, max_iters: int) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        traceprof._kmeans(features, k, seed=3, max_iters=max_iters)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_kmeans_memory_does_not_grow_with_iterations():
    # Uniform noise converges slowly, so every max_iters below is used up.
    n, width, k = 4000, 32, 64
    features = np.random.default_rng(5).random((n, width))
    buffers = 2 * n * k * 8  # the distance and dot-product buffers
    per_point = 2 * n * width * 8  # bin ids, argmin output, row norms, ...
    bound = buffers + per_point + (1 << 16)
    short, long = (_kmeans_peak(features, k, iters) for iters in (2, 25))
    assert short < bound and long < bound, (short, long, bound)
    assert long - short < (1 << 16), (short, long)
