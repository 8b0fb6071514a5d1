"""Registry-driven property harness: the contract every RA must satisfy.

Every algorithm registered in :mod:`repro.reorder` — current and future
— is pulled from ``algorithm_names()`` and run through the same
Hypothesis properties, so a new RA inherits this suite by registering:

* the result is a valid permutation with a bijective inverse;
* ``apply(apply(G, p), p⁻¹)`` restores the CSR arrays bit-identically;
* the ordering is deterministic under the default (fixed) seed;
* empty graphs raise a typed :class:`ReorderingError` (never a numpy
  error), and single-vertex / all-isolated / mixed graphs come back as
  valid permutations covering every vertex;
* RAs that claim degree monotonicity actually produce it;
* the per-community RA never interleaves communities, whatever inner
  algorithm it composes with.

Plus the metamorphic id-invariance checks: DBG's degree-class structure
is *exactly* invariant under input relabeling, and per-community
detection keeps its partition structure and locality quality within
tolerance (label-propagation tie-breaks are not id-equivariant, so
exact membership equality is deliberately not asserted).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReorderingError, ReproError
from repro.graph.build import build_graph
from repro.graph.communities import modularity
from repro.graph.graph import Graph
from repro.graph.permute import invert_permutation, is_permutation, random_permutation
from repro.reorder import algorithm_names, get_algorithm
from tests.fixture_graphs import planted_partition_edges

#: Names whose relative order in the new ID space is sorted by degree:
#: mapping to the predicate the suite asserts along the emitted order.
MONOTONE_CLAIMS = {
    "degree": "total-degree non-increasing",
    "dbg": "degree-class non-decreasing",
}

#: Inner RAs the per-community composition is exercised with — one
#: cheap, one structural, one the registry default uses.
COMMUNITY_INNERS = ("identity", "degree", "bfs")

RELAXED = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _random_graph(n: int, num_edges: int, seed: int) -> Graph:
    """Small deterministic graph; zero-degree vertices are kept."""
    rng = np.random.default_rng(seed)
    if num_edges:
        src = rng.integers(0, n, num_edges, dtype=np.int64)
        dst = rng.integers(0, n, num_edges, dtype=np.int64)
    else:
        src = np.zeros(0, dtype=np.int64)
        dst = np.zeros(0, dtype=np.int64)
    return build_graph(n, src, dst, drop_zero_degree=False).graph


graph_params = st.tuples(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=120),
    st.integers(min_value=0, max_value=2**31 - 1),
)


def _csr_arrays(graph: Graph) -> "list[np.ndarray]":
    return [
        graph.out_adj.offsets,
        graph.out_adj.targets,
        graph.in_adj.offsets,
        graph.in_adj.targets,
    ]


@pytest.mark.parametrize("name", algorithm_names())
class TestSharedContract:
    """One parametrized instance per registry entry — 15 RAs and counting."""

    @RELAXED
    @given(params=graph_params)
    def test_valid_permutation_and_apply_roundtrip(self, name, params):
        graph = _random_graph(*params)
        result = get_algorithm(name)(graph)
        relabeling = result.relabeling
        n = graph.num_vertices

        assert relabeling.shape == (n,)
        assert is_permutation(relabeling, n)
        inverse = invert_permutation(relabeling)
        assert np.array_equal(relabeling[inverse], np.arange(n))
        assert np.array_equal(inverse[relabeling], np.arange(n))

        # Satellite: apply/inverse round trip restores CSR bit-identically.
        reordered = result.apply(graph)
        restored = reordered.permuted(inverse)
        for original, back in zip(_csr_arrays(graph), _csr_arrays(restored)):
            assert original.dtype == back.dtype
            assert np.array_equal(original, back)

    @RELAXED
    @given(params=graph_params)
    def test_deterministic_under_fixed_seed(self, name, params):
        graph = _random_graph(*params)
        first = get_algorithm(name)(graph).relabeling
        second = get_algorithm(name)(graph).relabeling
        assert np.array_equal(first, second)

    def test_empty_graph_raises_typed_error(self, name):
        empty = np.zeros(0, dtype=np.int64)
        graph = build_graph(0, empty, empty, drop_zero_degree=False).graph
        with pytest.raises(ReorderingError):
            get_algorithm(name)(graph)

    @pytest.mark.parametrize(
        "case",
        ["single-vertex", "single-self-loop", "all-isolated", "mixed-isolated"],
    )
    def test_degenerate_graphs_yield_valid_permutations(self, name, case):
        empty = np.zeros(0, dtype=np.int64)
        if case == "single-vertex":
            graph = build_graph(1, empty, empty, drop_zero_degree=False).graph
        elif case == "single-self-loop":
            graph = build_graph(
                1, np.array([0]), np.array([0]), drop_zero_degree=False
            ).graph
        elif case == "all-isolated":
            graph = build_graph(8, empty, empty, drop_zero_degree=False).graph
        else:
            graph = build_graph(
                6, np.array([0, 1]), np.array([1, 2]), drop_zero_degree=False
            ).graph
        try:
            result = get_algorithm(name)(graph)
        except ReproError:
            pytest.fail(f"{name} rejected a valid degenerate graph: {case}")
        assert is_permutation(result.relabeling, graph.num_vertices)


@pytest.mark.parametrize("name", sorted(MONOTONE_CLAIMS))
@RELAXED
@given(params=graph_params)
def test_degree_monotonicity_where_claimed(name, params):
    graph = _random_graph(*params)
    order = invert_permutation(get_algorithm(name)(graph).relabeling)
    if name == "degree":
        along = graph._degrees("total")[order]
        assert bool(np.all(np.diff(along) <= 0)), MONOTONE_CLAIMS[name]
    else:
        along = get_algorithm(name).group_of(graph)[order]
        assert bool(np.all(np.diff(along) >= 0)), MONOTONE_CLAIMS[name]


@pytest.mark.parametrize("inner", COMMUNITY_INNERS)
@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(params=graph_params)
def test_community_blocks_never_interleave(inner, params):
    """Each detected community occupies one contiguous new-ID range."""
    graph = _random_graph(*params)
    algorithm = get_algorithm("community", inner=inner)
    partition = algorithm.communities(graph)
    relabeling = algorithm(graph).relabeling
    for community in range(partition.num_communities):
        new_ids = np.sort(relabeling[partition.labels == community])
        lo = int(new_ids[0])
        assert np.array_equal(
            new_ids, np.arange(lo, lo + new_ids.shape[0])
        ), f"community {community} interleaved under inner={inner!r}"


class TestCommunityComposition:
    def test_accepts_every_registered_inner(self, community_graph):
        for inner in algorithm_names():
            if inner == "community":
                continue
            algorithm = get_algorithm("community", inner=inner)
            assert algorithm.inner == inner

    def test_rejects_self_nesting(self):
        with pytest.raises(ReorderingError):
            get_algorithm("community", inner="community")

    def test_rejects_unknown_inner(self):
        with pytest.raises(ReorderingError):
            get_algorithm("community", inner="definitely-not-registered")

    def test_size_sorted_emission(self, community_graph):
        algorithm = get_algorithm("community")
        partition = algorithm.communities(community_graph)
        order = invert_permutation(algorithm(community_graph).relabeling)
        first_sizes = []
        seen: set[int] = set()
        for vertex in order.tolist():
            label = int(partition.labels[vertex])
            if label not in seen:
                seen.add(label)
                first_sizes.append(int(partition.sizes[label]))
        assert first_sizes == sorted(first_sizes, reverse=True)


class TestRegistryCoverage:
    def test_registry_has_at_least_twelve_algorithms(self):
        names = algorithm_names()
        assert len(names) >= 12
        assert {"dbg", "community", "hisorder"} <= set(names)

    def test_serve_jobs_validate_new_algorithms(self):
        from repro.serve.jobs import canonical_job

        for name in ("dbg", "community", "hisorder"):
            job = canonical_job(
                {"dataset": "twtr-mini", "algorithm": name}, kind="reorder"
            )
            assert job["algorithm"] == name
        job = canonical_job(
            {
                "dataset": "twtr-mini",
                "algorithm": "community",
                "params": {"inner": "degree", "seed": 1},
            },
            kind="reorder",
        )
        assert job["params"] == {"inner": "degree", "seed": 1}

    def test_serve_jobs_reject_bad_params_at_admission(self):
        """Invalid RA params are a 400 (ServeError), not a worker crash."""
        from repro.errors import ServeError
        from repro.serve.jobs import canonical_job

        bad = [
            {"algorithm": "community", "params": {"inner": "nope"}},
            {"algorithm": "community", "params": {"inner": "community"}},
            {"algorithm": "dbg", "params": {"num_groups": 0}},
            {"algorithm": "hisorder", "params": {"direction": "sideways"}},
            {"algorithm": "degree", "params": {"bogus_kwarg": 1}},
        ]
        for payload in bad:
            with pytest.raises(ServeError):
                canonical_job({"dataset": "twtr-mini", **payload}, kind="reorder")


# -- metamorphic id-invariance (satellite) -----------------------------------


@settings(max_examples=50, deadline=None)
@given(
    params=graph_params,
    perm_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_dbg_degree_classes_invariant_under_relabeling(params, perm_seed):
    """``group_of`` is a pure function of degrees: exactly id-invariant."""
    graph = _random_graph(*params)
    perm = random_permutation(graph.num_vertices, seed=perm_seed)
    relabeled = graph.permuted(perm)
    dbg = get_algorithm("dbg")
    base_groups = dbg.group_of(graph)
    moved_groups = dbg.group_of(relabeled)
    assert np.array_equal(moved_groups[perm], base_groups)
    assert np.array_equal(
        np.bincount(base_groups, minlength=dbg.num_groups),
        np.bincount(moved_groups, minlength=dbg.num_groups),
    )


@settings(max_examples=50, deadline=None)
@given(perm_seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_community_structure_stable_under_relabeling(perm_seed):
    """Partition structure and quality survive input relabeling.

    Label propagation breaks ties by label *value*, so the partition is
    not exactly id-equivariant — a relabeling can merge or split a
    borderline pair (measured worst case over 30 seeds: Rand index
    0.94, |ΔQ| 0.026 on the planted graph).  The metamorphic contract
    is therefore tolerance-based: pairwise membership agreement stays
    high and modularity — the id-invariant locality quality score —
    moves very little.
    """
    src, dst = planted_partition_edges(8, 32, 6, 1, seed=5)
    graph = build_graph(8 * 32, src, dst, name="planted").graph
    algorithm = get_algorithm("community")
    base = algorithm.communities(graph)
    base_q = modularity(graph.num_vertices, *graph.edges(), base.labels)

    perm = random_permutation(graph.num_vertices, seed=perm_seed)
    relabeled = graph.permuted(perm)
    moved = algorithm.communities(relabeled)
    moved_q = modularity(
        relabeled.num_vertices, *relabeled.edges(), moved.labels
    )
    back = moved.labels[perm]

    same_base = base.labels[:, None] == base.labels[None, :]
    same_moved = back[:, None] == back[None, :]
    n = graph.num_vertices
    rand_index = ((same_base == same_moved).sum() - n) / (n * (n - 1))
    assert rand_index >= 0.85
    assert abs(moved_q - base_q) <= 0.08
    assert abs(moved.num_communities - base.num_communities) <= 4
